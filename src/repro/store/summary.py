"""Persistent interprocedural summary database.

The Section 8 tabulation computes one summary per *(method,
entry-vector)* context — the exit may-1 vector plus the per-node masks
that witness it.  Those summaries are pure functions of three hashes:

* the **analysis key** — spec hash, derived-abstraction hash, engine
  discipline (prune flag, payload format version);
* the **space key** — a canonical fingerprint of the procedure's derived
  fact space (the boolean program: instances, edges, checks, assigns,
  call sites, initial mask);
* the **entry fingerprint** — the context's entry may-1 vector and the
  may-0 seed it starts from (the root context's seed is exact, callee
  contexts start from "everything may be 0").

Nothing else reaches the local fixpoint, so two certification runs that
agree on all three produce bit-identical summaries — which is what makes
them safe to share across batch jobs and serve tenants that link the
same library code.  The consumer never *trusts* a stored summary: the
certifier runs the certificate checker's own linear pass over it
(:func:`repro.certifier.boolprog.replay`) and discards anything that
pass rejects.  The store's own integrity layer is therefore a performance
feature, not a soundness one — but a torn object must still never be
*served*.

:class:`SummaryStore` is a typed front end over the storage core the
certificate store uses too (:class:`~repro.store.core.ContentStore`):
the same WAL-bracketed writes, recovery, quarantine and LRU gc, with
its own layout under ``root``::

    objects/<h2>/<hash>.summary.json   immutable payloads (content-addressed)
    index/<k2>/<key>                   context key -> object hash
    wal/journal.jsonl                  begin/commit journal (crash recovery)
    quarantine/                        torn objects, kept as evidence

See :class:`SummaryStore`.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional

from repro.cert import model
from repro.store.core import ContentStore
from repro.store.io import StoreIO

#: bumped whenever the payload schema or the validation discipline
#: changes — stale formats must miss, never half-parse
SUMMARY_FORMAT = 1


def summary_analysis_key(
    *,
    spec_hash: str,
    abstraction_hash: Optional[str],
    prune_requires: bool,
) -> str:
    """Everything global to one analysis configuration, hashed.

    Two runs sharing this key run the *same derived analysis*; only then
    may their per-procedure summaries be exchanged.
    """
    return model.sha256_text(
        model.canonical_text(
            {
                "abstraction": abstraction_hash,
                "engine": "interproc",
                "format": SUMMARY_FORMAT,
                "prune_requires": bool(prune_requires),
                "spec": spec_hash,
            }
        )
    )


def summary_context_key(
    analysis_key: str, space_key: str, entry_vector: int, entry_zeros: int
) -> str:
    """The full store key for one tabulation context."""
    return model.sha256_text(
        model.canonical_text(
            {
                "analysis": analysis_key,
                "entry": format(entry_vector, "x"),
                "space": space_key,
                "zeros": format(entry_zeros, "x"),
            }
        )
    )


class SummaryStore(ContentStore):
    """Content-addressed storage of interprocedural context summaries.

    A typed front end over :class:`~repro.store.core.ContentStore` —
    the same objects, pointer files, journal, recovery and gc as the
    certificate store — holding canonical JSON payloads (one per
    tabulation context) under ``.summary.json`` objects, with only the
    ``index`` table: a summary either matches its exact context key or
    is useless, so there is no lineage layer.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        *,
        io: Optional[StoreIO] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        super().__init__(
            root, io=io, clock=clock, suffix=".summary.json", tables=("index",)
        )

    def put(self, key: str, payload: Dict[str, object]) -> str:
        """Store one context summary under ``key``; returns its hash.

        Idempotent for identical content; re-putting different content
        under the same key repoints the index.
        """
        return self._put(model.canonical_text(payload), {"index": key})

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Integrity-verified summary payload for ``key``, or None.

        Unknown key, dangling pointer, tampered object — all miss; a
        tampered object is additionally quarantined and its pointer
        dropped so the re-certified replacement can repoint it.
        """
        found = self._fetch("index", key)
        payload = None
        if found is not None:
            try:
                payload = json.loads(found[1])
            except json.JSONDecodeError:
                pass
        if not isinstance(payload, dict):
            payload = None
        self._count(payload is not None)
        return payload
