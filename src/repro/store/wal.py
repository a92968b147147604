"""Write-ahead journal + crash recovery for the on-disk store.

A put (:meth:`~repro.store.core.ContentStore._put`) touches up to three
files — the immutable object, the request-index pointer, and (in the
certificate store) the lineage pointer.  Each individual write is atomic
(:meth:`~repro.store.io.StoreIO.atomic_write_text`), but a crash
*between* them leaves the store internally inconsistent: an index entry
pointing at an object that never landed, or an object no pointer will
ever reach.  The journal closes that window:

1. ``begin`` — the intended transaction (object hash, index key,
   lineage key, and the object text's byte length) is appended to
   ``wal/journal.jsonl`` and fsynced *before* any store file changes;
2. the object/index/lineage writes happen, each individually atomic;
3. ``commit`` — a commit record is appended and fsynced.

:func:`recover` replays the journal on startup: a begun-but-uncommitted
transaction is **rolled forward** if its object landed intact (the
pointers are rewritten — they are derivable from the begin record) and
**rolled back** otherwise (any torn object file is quarantined, any
pointer at the vanished object is dropped).  Orphaned ``.tmp-*`` files
are swept, and with ``verify_objects=True`` every object is re-hashed
and torn ones quarantined — the deep scan the chaos gate runs.

Quarantined files move to ``quarantine/`` (never deleted: a torn object
is evidence, and the paper's trust split means the store must be able
to show *why* it refused to serve something).

The journal is truncated after a successful recovery and checkpointed
(rewritten empty) once every committed transaction in it is obsolete,
so it stays small on long-lived daemons.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.store.io import StoreIO

#: committed transactions tolerated in the journal before checkpoint
CHECKPOINT_EVERY = 256


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did (JSON-friendly)."""

    scanned_txns: int = 0
    rolled_forward: List[str] = field(default_factory=list)  # object hashes
    rolled_back: List[str] = field(default_factory=list)  # object hashes
    quarantined: List[str] = field(default_factory=list)  # repo-rel paths
    orphans_swept: int = 0
    pointers_dropped: int = 0
    objects_verified: int = 0

    @property
    def clean(self) -> bool:
        """True when recovery found nothing to repair."""
        return not (
            self.rolled_forward
            or self.rolled_back
            or self.quarantined
            or self.orphans_swept
            or self.pointers_dropped
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "scanned_txns": self.scanned_txns,
            "rolled_forward": list(self.rolled_forward),
            "rolled_back": list(self.rolled_back),
            "quarantined": list(self.quarantined),
            "orphans_swept": self.orphans_swept,
            "pointers_dropped": self.pointers_dropped,
            "objects_verified": self.objects_verified,
        }


class WriteAheadLog:
    """The journal file and its begin/commit protocol."""

    def __init__(self, root: str, io: Optional[StoreIO] = None) -> None:
        self.root = root
        self.io = io or StoreIO()
        self.path = os.path.join(root, "wal", "journal.jsonl")
        self._txn = 0
        self._committed_since_checkpoint = 0

    # -- the protocol ---------------------------------------------------------

    def begin(
        self,
        *,
        object_hash: str,
        object_bytes: int,
        index_key: Optional[str],
        lineage_key: Optional[str],
    ) -> int:
        """Durably record intent; returns the transaction id."""
        self._sync_txn()
        self._txn += 1
        record = {
            "op": "begin",
            "txn": self._txn,
            "object": object_hash,
            "bytes": object_bytes,
            "index": index_key,
            "lineage": lineage_key,
            "ts": time.time(),
        }
        self.io.append_line(self.path, json.dumps(record, sort_keys=True))
        return self._txn

    def _sync_txn(self) -> None:
        """Resume the id counter past every txn already in the journal.

        Two processes share one journal file; if each started counting
        at zero, a sibling's uncommitted ``begin`` could reuse an id
        this process already committed and be silently masked at
        recovery.  Ids are claimed under the store's disk lock, so
        max-seen + 1 is collision-free.
        """
        text = self.io.read_text(self.path)
        if not text:
            return
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if isinstance(record, dict) and isinstance(
                record.get("txn"), int
            ):
                self._txn = max(self._txn, record["txn"])

    def commit(self, txn: int) -> None:
        self.io.append_line(
            self.path, json.dumps({"op": "commit", "txn": txn}, sort_keys=True)
        )
        self._committed_since_checkpoint += 1
        if self._committed_since_checkpoint >= CHECKPOINT_EVERY:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Drop committed transactions from the journal.

        Begin records with no commit are **preserved** — they may
        belong to a sibling process that crashed mid-put, and recovery
        needs them to quarantine that put's debris.  :meth:`reset` is
        the full truncate recovery itself uses once it has replayed
        everything.
        """
        pending = self.pending()
        self.io.atomic_write_text(
            self.path,
            "".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in pending
            ),
        )
        self._committed_since_checkpoint = 0

    def reset(self) -> None:
        """Truncate the journal entirely (post-recovery)."""
        self.io.atomic_write_text(self.path, "")
        self._committed_since_checkpoint = 0

    # -- reading --------------------------------------------------------------

    def pending(self) -> List[Dict[str, object]]:
        """Begin records with no matching commit, oldest first."""
        text = self.io.read_text(self.path)
        if not text:
            return []
        begun: Dict[int, Dict[str, object]] = {}
        committed: set = set()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # a torn journal append: everything before it is intact
                # (appends are fsynced in order), the tail is noise
                break
            if not isinstance(record, dict):
                continue
            txn = record.get("txn")
            if record.get("op") == "begin" and isinstance(txn, int):
                begun[txn] = record
                self._txn = max(self._txn, txn)
            elif record.get("op") == "commit" and isinstance(txn, int):
                committed.add(txn)
        return [
            record
            for txn, record in sorted(begun.items())
            if txn not in committed
        ]
