"""The one storage core behind both content-addressed stores.

:class:`~repro.store.cas.CertificateStore` and
:class:`~repro.store.summary.SummaryStore` are thin typed front ends
over :class:`ContentStore`; they differ only in the object suffix and
in which pointer tables they keep.  Layout under ``root``::

    objects/<h2>/<hash><suffix>   immutable objects, named by the
                                  SHA-256 of their text
    <table>/<k2>/<key>            one pointer file per key: "<hash>\\n"
    wal/journal.jsonl             begin/commit journal (crash recovery)
    quarantine/<hash><suffix>     torn or tampered objects (evidence)
    .lock                         advisory lock over multi-file mutations

An object whose recomputed hash no longer matches its name has been
torn or tampered with: it is quarantined, counted in
``stats.corrupt`` and never returned.  Every put writes the object and
one pointer per table inside a write-ahead journal transaction
(:mod:`repro.store.wal`), each write a same-directory temp file +
``fsync`` + ``os.replace`` (:class:`~repro.store.io.StoreIO`), under an
advisory ``flock`` so concurrent daemons and batch workers can share
one root.  :meth:`ContentStore.recover` replays the journal after a
crash.  Every read and directory walk goes through the
:class:`~repro.store.io.StoreIO` instance, so fault injection sees all
of them.

With ``root=None`` the store is purely in-memory (tests, ephemeral
services).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.cert import model
from repro.store.io import StoreIO
from repro.store.wal import RecoveryReport, WriteAheadLog


@dataclass
class StoreStats:
    """Counters for one store instance (monotone, updated under the
    store's lock)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    evictions: int = 0

    def to_json(self) -> Dict[str, object]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / total, 4) if total else None,
        }


class ContentStore:
    """Content-addressed objects plus named pointer tables.

    ``suffix`` names the object files; ``tables`` names the pointer
    tables, each a directory under ``root`` and a field of the journal's
    begin record (``index``, ``lineage``).  Both are fixed by the front
    end.  All methods are safe to call from multiple threads of one
    process; the on-disk layout is additionally safe across processes.
    """

    def __init__(
        self,
        root: Optional[str],
        *,
        io: Optional[StoreIO],
        clock: Callable[[], float],
        suffix: str,
        tables: Tuple[str, ...],
    ) -> None:
        self.root = root
        self.io = io or StoreIO()
        self.wal = WriteAheadLog(root, self.io) if root is not None else None
        self.stats = StoreStats()
        self._clock = clock
        self._suffix = suffix
        self._tables = tables
        self._lock = threading.RLock()
        # in-memory layer: always authoritative for root=None, a
        # read-through cache of verified text when backed by disk
        self._objects: Dict[str, str] = {}
        self._pointers: Dict[str, Dict[str, str]] = {t: {} for t in tables}
        # LRU bookkeeping for gc(): last access per object hash.  On disk
        # the file mtime is additionally bumped on every verified read so
        # recency survives restarts and is shared across processes.
        self._last_used: Dict[str, float] = {}

    # -- paths ---------------------------------------------------------------

    def object_path(self, object_hash: str) -> str:
        assert self.root is not None
        return os.path.join(
            self.root, "objects", object_hash[:2], object_hash + self._suffix
        )

    def pointer_path(self, table: str, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, table, key[:2], key)

    def _quarantine_path(self, object_hash: str) -> str:
        assert self.root is not None
        return os.path.join(
            self.root, "quarantine", object_hash + self._suffix
        )

    # -- cross-process exclusion ---------------------------------------------

    @contextmanager
    def _disk_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over the on-disk layout.

        Serializes mutations (put / gc / recover) across *processes*
        sharing one store root — pointer files are replace-atomic on
        their own, but gc's read-prune-unlink and recovery's replay are
        multi-file critical sections.  In-memory stores, and platforms
        without ``fcntl``, degrade to the thread lock alone.
        """
        if self.root is None or fcntl is None:
            yield
            return
        self.io.makedirs(self.root)
        fd = os.open(
            os.path.join(self.root, ".lock"), os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -- writing -------------------------------------------------------------

    def _put(self, text: str, keys: Dict[str, str]) -> str:
        """Store ``text`` and point ``keys[table]`` of every table at it;
        returns its content hash.

        Re-putting identical content is idempotent; re-putting other
        content under a key repoints that key.  On disk the object and
        pointer writes are bracketed by a write-ahead journal
        transaction, so a crash at any byte leaves a store
        :meth:`recover` restores to a consistent state.  Disk errors
        propagate *before* the in-memory layer is touched — a failed
        put changes nothing.
        """
        object_hash = model.sha256_text(text)
        with self._lock:
            if self.root is not None:
                assert self.wal is not None
                with self._disk_lock():
                    txn = self.wal.begin(
                        object_hash=object_hash,
                        object_bytes=len(text.encode("utf-8")),
                        index_key=keys.get("index"),
                        lineage_key=keys.get("lineage"),
                    )
                    object_path = self.object_path(object_hash)
                    if not self.io.exists(object_path):
                        self.io.atomic_write_text(object_path, text)
                    for table in self._tables:
                        self.io.atomic_write_text(
                            self.pointer_path(table, keys[table]),
                            object_hash + "\n",
                        )
                    self.wal.commit(txn)
            self._objects[object_hash] = text
            for table in self._tables:
                self._pointers[table][keys[table]] = object_hash
            self._last_used[object_hash] = self._clock()
            self.stats.puts += 1
        return object_hash

    # -- recovery ------------------------------------------------------------

    def recover(self, *, verify_objects: bool = False) -> RecoveryReport:
        """Restore on-disk consistency after a crash; returns a report.

        Run at startup (daemons do this automatically).  The pass:

        1. sweeps orphaned ``.tmp-*`` files (writes that died between
           ``mkstemp`` and ``os.replace``);
        2. replays the write-ahead journal: a begun-but-uncommitted
           transaction whose object landed intact is *rolled forward*
           (its pointers rewritten), anything else is *rolled back*
           (torn objects quarantined, pointers at them dropped);
        3. with ``verify_objects=True``, re-hashes **every** stored
           object, quarantines mismatches, and drops every pointer that
           no longer resolves to an intact object.

        In-memory caches are reset so nothing stale survives the
        repair.  On an in-memory store this is a no-op.
        """
        report = RecoveryReport()
        if self.root is None:
            return report
        assert self.wal is not None
        with self._lock, self._disk_lock():
            for orphan in list(self.io.iter_orphans(self.root)):
                self.io.unlink(orphan)
                report.orphans_swept += 1
            pending = self.wal.pending()
            report.scanned_txns = len(pending)
            for record in pending:
                object_hash = str(record.get("object"))
                text = self.io.read_text(self.object_path(object_hash))
                pointers = [
                    self.pointer_path(table, record[table])
                    for table in self._tables
                    if isinstance(record.get(table), str)
                ]
                if (
                    text is not None
                    and model.sha256_text(text) == object_hash
                ):
                    # object landed: the pointers are derivable from
                    # the begin record — roll the txn forward
                    for path in pointers:
                        self.io.atomic_write_text(path, object_hash + "\n")
                    report.rolled_forward.append(object_hash)
                    continue
                # object torn or missing: roll back
                if text is not None:
                    self._quarantine(object_hash, report)
                for path in pointers:
                    pointer = self.io.read_text(path)
                    if pointer is not None and pointer.strip() == object_hash:
                        self.io.unlink(path)
                        report.pointers_dropped += 1
                report.rolled_back.append(object_hash)
            # nothing stale survives the repair
            self._forget()
            for table in self._pointers.values():
                table.clear()
            if verify_objects:
                self._verify_all(report)
            self.wal.reset()
        return report

    def flush(self) -> None:
        """Compact the journal before a planned shutdown.

        Every put fsyncs before returning, so there is no buffered data
        to lose — flushing just drops committed journal records so the
        next startup's recovery scan is O(pending), not O(history).
        """
        if self.root is None:
            return
        assert self.wal is not None
        with self._lock, self._disk_lock():
            self.wal.checkpoint()

    def _quarantine(
        self, object_hash: str, report: Optional[RecoveryReport] = None
    ) -> None:
        """Count a torn/tampered object as corrupt, drop it from the
        caches, and move its file aside (evidence, not garbage)."""
        with self._lock:
            self._forget(object_hash)
            self.stats.corrupt += 1
            if self.root is None:
                return
            source = self.object_path(object_hash)
            target = self._quarantine_path(object_hash)
            try:
                self.io.replace(source, target)
            except OSError:
                self.io.unlink(source)
        if report is not None:
            report.quarantined.append(
                os.path.join("quarantine", os.path.basename(target))
            )

    def _verify_all(self, report: RecoveryReport) -> None:
        """Deep scan: re-hash every object, drop dangling pointers."""
        assert self.root is not None
        intact: set = set()
        objects_dir = os.path.join(self.root, "objects")
        for directory, name in list(self.io.iter_files(objects_dir)):
            if not name.endswith(self._suffix):
                continue
            object_hash = name[: -len(self._suffix)]
            text = self.io.read_text(os.path.join(directory, name))
            report.objects_verified += 1
            if text is not None and model.sha256_text(text) == object_hash:
                intact.add(object_hash)
            else:
                self._quarantine(object_hash, report)
        report.pointers_dropped += self._prune_index(intact)

    # -- reading -------------------------------------------------------------

    def _resolve(self, table: str, key: str) -> Optional[str]:
        """The object hash a pointer table maps ``key`` to, or None."""
        with self._lock:
            object_hash = self._pointers[table].get(key)
        if object_hash is None and self.root is not None:
            pointer = self.io.read_text(self.pointer_path(table, key))
            object_hash = (pointer or "").strip() or None
            if object_hash is not None:
                with self._lock:
                    self._pointers[table].setdefault(key, object_hash)
        return object_hash

    def _load_object(self, object_hash: str) -> Optional[str]:
        """Verified object text by content hash, or None."""
        with self._lock:
            text = self._objects.get(object_hash)
        if text is None and self.root is not None:
            text = self.io.read_text(self.object_path(object_hash))
        if text is None:
            return None
        if model.sha256_text(text) != object_hash:
            # tampered or truncated object: quarantine, count, miss
            self._quarantine(object_hash)
            return None
        with self._lock:
            self._objects.setdefault(object_hash, text)
        self._touch(object_hash)
        return text

    def _fetch(self, table: str, key: str) -> Optional[Tuple[str, str]]:
        """``(hash, verified text)`` behind a pointer, or None.

        A pointer at a missing or corrupt object is dropped, so the
        re-certified replacement can repoint it.
        """
        object_hash = self._resolve(table, key)
        if object_hash is None:
            return None
        text = self._load_object(object_hash)
        if text is None:
            with self._lock:
                if self._pointers[table].get(key) == object_hash:
                    del self._pointers[table][key]
                if self.root is not None:
                    self.io.unlink(self.pointer_path(table, key))
            return None
        return object_hash, text

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1

    def _touch(self, object_hash: str) -> None:
        """Record an access for the LRU eviction policy."""
        now = self._clock()
        with self._lock:
            self._last_used[object_hash] = now
        if self.root is not None:
            try:
                os.utime(self.object_path(object_hash), (now, now))
            except OSError:
                pass  # best effort; in-memory recency still applies

    def _forget(self, object_hash: Optional[str] = None) -> None:
        """Drop one object's (or, with None, every object's) cached
        state.  Front ends that cache decoded objects extend this."""
        if object_hash is None:
            self._objects.clear()
        else:
            self._objects.pop(object_hash, None)

    # -- eviction ------------------------------------------------------------

    def _object_entries(self) -> List[Tuple[str, int, float]]:
        """Every stored object as ``(hash, bytes, last_used)``.

        Recency is the max of the in-memory access record and (on disk)
        the object file's mtime, so a cold-started store still orders
        objects by their cross-process access history.
        """
        with self._lock:
            last_used = dict(self._last_used)
            memory = {h: len(text) for h, text in self._objects.items()}
        if self.root is None:
            return [
                (h, size, last_used.get(h, 0.0))
                for h, size in memory.items()
            ]
        entries: Dict[str, Tuple[int, float]] = {}
        objects_dir = os.path.join(self.root, "objects")
        for directory, name in self.io.iter_files(objects_dir):
            if not name.endswith(self._suffix):
                continue
            object_hash = name[: -len(self._suffix)]
            try:
                st = os.stat(os.path.join(directory, name))
            except OSError:
                continue
            entries[object_hash] = (
                st.st_size,
                max(st.st_mtime, last_used.get(object_hash, 0.0)),
            )
        for h, size in memory.items():  # put() raced the walk, or no file
            entries.setdefault(h, (size, last_used.get(h, 0.0)))
        return [(h, size, used) for h, (size, used) in entries.items()]

    def _prune_index(self, surviving: set) -> int:
        """Drop every pointer, in every table, at an object outside
        ``surviving`` (evicted now, or dangling from earlier corruption);
        returns how many were dropped."""
        removed = 0
        with self._lock:
            for table in self._pointers.values():
                stale = [k for k, h in table.items() if h not in surviving]
                for key in stale:
                    del table[key]
                removed += len(stale)
        if self.root is not None:
            for table in self._tables:
                for directory, name in list(
                    self.io.iter_files(os.path.join(self.root, table))
                ):
                    path = os.path.join(directory, name)
                    pointer = self.io.read_text(path)
                    if (pointer or "").strip() not in surviving:
                        self.io.unlink(path)
                        removed += 1
        return removed

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, object]:
        """Evict least-recently-used objects until the store fits.

        Both limits are optional and enforced together: after gc the
        store holds at most ``max_entries`` objects totalling at most
        ``max_bytes``.  Eviction order is oldest first, ties broken by
        hash, so it is deterministic.  Pointers at evicted (or
        already-dangling) objects are pruned so later lookups miss
        cleanly instead of resolving to a missing object.  Returns a
        summary dict.

        The whole sweep runs under the cross-process advisory lock —
        gc racing a concurrent put must not prune the pointer the put
        just journalled.
        """
        with self._disk_lock():
            entries = self._object_entries()
            bytes_before = sum(size for _h, size, _u in entries)
            objects_before = len(entries)
            entries.sort(key=lambda entry: (entry[2], entry[0]))
            keep_bytes = bytes_before
            keep_count = objects_before
            evicted: List[str] = []
            for object_hash, size, _used in entries:
                over_entries = (
                    max_entries is not None and keep_count > max_entries
                )
                over_bytes = max_bytes is not None and keep_bytes > max_bytes
                if not (over_entries or over_bytes):
                    break
                evicted.append(object_hash)
                keep_count -= 1
                keep_bytes -= size
            for object_hash in evicted:
                with self._lock:
                    self._forget(object_hash)
                    self._last_used.pop(object_hash, None)
                    self.stats.evictions += 1
                if self.root is not None:
                    self.io.unlink(self.object_path(object_hash))
            evicted_set = set(evicted)
            surviving = {
                h for h, _size, _used in entries if h not in evicted_set
            }
            return {
                "objects_before": objects_before,
                "objects_after": keep_count,
                "bytes_before": bytes_before,
                "bytes_after": keep_bytes,
                "evicted": len(evicted),
                "index_pruned": self._prune_index(surviving),
                "max_bytes": max_bytes,
                "max_entries": max_entries,
            }

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        if self.root is None:
            return len(self._objects)
        objects_dir = os.path.join(self.root, "objects")
        return sum(
            1
            for _dir, name in self.io.iter_files(objects_dir)
            if name.endswith(self._suffix)
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "objects": len(self),
            **self.stats.to_json(),
        }
