"""The on-disk store's filesystem side effects, behind one object.

Every byte the stores (:class:`~repro.store.core.ContentStore` and its
two front ends) put on disk — objects, index pointers, lineage
pointers, write-ahead journal records — and every read and directory
walk they make flows through a :class:`StoreIO` instance.  Two
reasons:

* **durability is a policy, not an accident.**  ``atomic_write_text``
  is the single place that implements same-directory-tempfile +
  ``fsync`` + ``os.replace`` + directory ``fsync``, so a power cut can
  leave an orphaned temp file but never a torn destination object;

* **fault injection.**  The chaos layer
  (:class:`repro.testing.chaos.FaultyIO`) subclasses the low-level
  :meth:`StoreIO._write` / :meth:`StoreIO._pre_op` hooks to simulate a
  process killed mid-write (the temp file keeps exactly the bytes that
  made it out), ``ENOSPC``, and ``EIO`` — without patching ``os``.

``fsync`` calls are real by default; tests that only care about
atomicity (not crash durability) may pass ``fsync=False`` to the store
to keep tmpdir-heavy suites fast.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterator, Optional, Tuple


class StoreIO:
    """Filesystem primitives used by the content-addressed stores.

    Subclass and override :meth:`_write` (bytes going into any file)
    and/or :meth:`_pre_op` (called with the operation name before each
    side effect) to inject faults deterministically.
    """

    def __init__(self, *, fsync: bool = True) -> None:
        self.fsync = fsync

    # -- fault-injection hooks ------------------------------------------------

    def _pre_op(self, op: str, path: str) -> None:
        """Called before every side-effecting operation (hook)."""

    def _write(self, fd: int, data: bytes) -> None:
        """Write ``data`` to ``fd`` (hook; faults may write a prefix
        and raise, modelling a crash mid-write)."""
        os.write(fd, data)

    # -- primitives -----------------------------------------------------------

    def makedirs(self, path: str) -> None:
        self._pre_op("makedirs", path)
        os.makedirs(path, exist_ok=True)

    def fsync_dir(self, path: str) -> None:
        """Flush a directory entry table (makes renames durable)."""
        if not self.fsync:
            return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; best effort
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def atomic_write_text(self, path: str, text: str) -> None:
        """Durably replace ``path`` with ``text``.

        The data travels through a same-directory temp file that is
        fsynced *before* the rename, and the directory is fsynced after,
        so readers observe either the old content or the complete new
        content — never a torn file.  A crash mid-write leaves only an
        orphaned ``.tmp-*`` file for :meth:`iter_orphans` to sweep.
        """
        directory = os.path.dirname(path)
        self.makedirs(directory)
        self._pre_op("atomic_write", path)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            try:
                self._write(fd, text.encode("utf-8"))
                if self.fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            self._pre_op("replace", path)
            os.replace(tmp, path)
        except BaseException:
            # cleanup goes through self.unlink so a fault shim that is
            # simulating a dead process can veto it (a real SIGKILL
            # would never run this line; the orphan sweep handles it)
            try:
                self.unlink(tmp)
            except OSError:
                pass
            raise
        self.fsync_dir(directory)

    def append_line(self, path: str, line: str) -> None:
        """Durably append one record line (WAL discipline: the record is
        on stable storage before the caller proceeds)."""
        self.makedirs(os.path.dirname(path))
        self._pre_op("append", path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self._write(fd, (line + "\n").encode("utf-8"))
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    def read_text(self, path: str) -> Optional[str]:
        self._pre_op("read", path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return None

    def unlink(self, path: str) -> None:
        self._pre_op("unlink", path)
        try:
            os.unlink(path)
        except OSError:
            pass

    def replace(self, src: str, dst: str) -> None:
        self._pre_op("replace", dst)
        self.makedirs(os.path.dirname(dst))
        os.replace(src, dst)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def iter_orphans(self, root: str) -> Iterator[str]:
        """Every ``.tmp-*`` temp file under ``root`` — the debris of
        writes that died between ``mkstemp`` and ``os.replace``."""
        for directory, _subdirs, files in os.walk(root):
            for name in files:
                if name.startswith(".tmp-"):
                    yield os.path.join(directory, name)

    def iter_files(self, root: str) -> Iterator[Tuple[str, str]]:
        """Every regular (non-temp) file under ``root`` as
        ``(directory, name)``."""
        for directory, _subdirs, files in os.walk(root):
            for name in files:
                if not name.startswith(".tmp-"):
                    yield directory, name


def atomic_write_text(path: str, text: str, *, fsync: bool = True) -> None:
    """Module-level convenience for one-off durable writes (used by the
    batch runner's certificate emission and checkpoint journal)."""
    StoreIO(fsync=fsync).atomic_write_text(path, text)
