"""Scoped pauses of CPython's cyclic garbage collector.

The generational collector re-walks every tracked container each time
enough of them have been allocated.  Certification and checking build
millions of containers (ASTs, CFGs, fact spaces, parsed certificates)
that either live on or die together when the call returns, so the
walks made during a call reclaim almost nothing and cost up to a third
of it.  :func:`collector_paused` suspends the collector for one unit of
work; the public entry points (``CertifySession.certify``,
``CertifySession.certify_program`` and ``CertificateChecker.check``)
wrap themselves in it, so every caller gets it without a knob.

* **Nesting and threads.** Pauses nest and overlap across threads: a
  depth counter under a lock counts the open ones, the outermost entry
  disables the collector and the outermost exit re-enables it, also
  when the body raises.  A caller that had disabled the collector
  itself finds it still disabled.
* **Exit policy.** The outermost exit re-enables the collector, after
  one young (generation-0) collection if the pause allocated past
  :data:`YOUNG_CAP`; otherwise the collector's own next young
  collection follows.  A pause never forces a full collection.
* **Bounded heap.** While paused, once the young generation holds more
  than :data:`YOUNG_CAP` containers, the next entry or exit of any
  pause runs one young collection, so a daemon whose pauses always
  overlap still reclaims the cycles it makes.
* **Fork.** A child forked while other threads held pauses keeps only
  the forking thread's own pauses; with none open, the collector is
  re-enabled in the child.
"""

from __future__ import annotations

import gc
import os
import threading

#: young-generation count (``gc.get_count()[0]``) past which the next
#: pause entry or exit runs one young collection; one 1k-statement
#: certify or check nets about 25,000
YOUNG_CAP = 100_000

_lock = threading.RLock()
#: open pauses in the process
_depth = 0
#: whether the outermost open pause found the collector on and turned
#: it off, so that its exit turns it back on
_resume = False
#: open pauses of the calling thread (only a fork reads it)
_local = threading.local()


class _CollectorPause:
    """The context manager :func:`collector_paused` returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _depth, _resume
        with _lock:
            if _depth == 0:
                _resume = gc.isenabled()
                gc.disable()
            elif _resume and gc.get_count()[0] > YOUNG_CAP:
                gc.collect(0)
            _depth += 1
            _local.depth = getattr(_local, "depth", 0) + 1

    def __exit__(self, *exc) -> None:
        global _depth, _resume
        with _lock:
            _depth -= 1
            _local.depth -= 1
            resume = _resume
            if _depth == 0:
                _resume = False
            if resume and gc.get_count()[0] > YOUNG_CAP:
                gc.collect(0)
            if resume and _depth == 0:
                gc.enable()


_PAUSE = _CollectorPause()


def collector_paused() -> _CollectorPause:
    """A context manager that suspends the cyclic collector for its body
    (see the module docstring for nesting, exit policy and the cap)."""
    return _PAUSE


def _after_fork_in_child() -> None:
    global _lock, _depth, _resume
    _lock = threading.RLock()
    _depth = getattr(_local, "depth", 0)
    if _depth == 0 and _resume:
        _resume = False
        gc.enable()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
