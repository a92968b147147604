"""The one supervised process pool.

Batch runs and ``repro serve --worker-mode process``
fan certification out through :class:`WorkerSupervisor`.  It owns every
decision about worker processes, so each lives in one place:

* **start method** — fork where the platform has it: workers inherit the
  parent's warm caches and imported modules for free.  Elsewhere the
  pool initializer carries the warm-cache blob
  (:data:`WARM_ABSTRACTIONS`, pickled) into each spawned worker;
* **crash recovery** — a worker that disappears mid-call (SIGKILLed by
  the OOM killer, segfaulted, or simply gone) breaks the whole
  ``ProcessPoolExecutor``.  The supervisor drops the broken pool,
  rebuilds it on the next call after a capped exponential backoff, and
  resubmits the victim call;
* **quarantine** — crashes are counted per caller-chosen key.  A key
  that reaches the caller's crash limit is poisoned: the call raises
  :class:`PoisonedRequest`, and so does every later call with that key,
  instead of a crash-retry loop that would grind the pool to dust;
* **heartbeat** — an optional per-call wall-clock bound catches workers
  that hang rather than die: the stuck pool is SIGKILLed outright and
  the call is treated exactly like a crash.

:meth:`WorkerSupervisor.submit` blocks until its call finishes and is
safe to use from many threads at once; callers that want N calls in
flight run N threads (serve's executor threads, batch's job threads).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, TypeVar

from repro.runtime.cache import DEFAULT_CACHE_SIZE, LRUCache

T = TypeVar("T")

#: process-wide abstraction cache: a parent derives into it before its
#: pool starts, so forked workers inherit it warm; spawned workers
#: receive it pickled through the pool initializer
WARM_ABSTRACTIONS = LRUCache(DEFAULT_CACHE_SIZE, name="abstractions")


class PoisonedRequest(RuntimeError):
    """This key killed its caller's crash limit of workers; it will not
    be retried (serve maps it to a clean HTTP 500, batch to an error
    result)."""


def _init_worker(warm_blob: Optional[bytes]) -> None:
    """Pool initializer: install the parent's warm abstractions.

    Forked workers already inherit the parent's cache and receive
    ``None``.
    """
    if not warm_blob:
        return
    for key, abstraction in pickle.loads(warm_blob):
        WARM_ABSTRACTIONS.put(key, abstraction)


def _warm_blob() -> Optional[bytes]:
    """Pickled warm-cache entries for spawned workers."""
    try:
        return pickle.dumps(WARM_ABSTRACTIONS.items())
    except Exception:
        return None  # workers will re-derive; correct, just slower


class WorkerSupervisor:
    """A self-healing process pool of ``workers`` processes.

    ``crash_limit`` is the number of worker deaths after which a key is
    quarantined (serve allows 2, batch ``retries + 1``).  ``heartbeat``
    bounds one call's wall clock; a pool that exceeds it is SIGKILLed
    (stuck worker ≡ dead worker).  After the n-th pool loss the next
    rebuild waits ``min(backoff_max, backoff_base * 2**(n-1))`` seconds.
    """

    def __init__(
        self,
        workers: int,
        *,
        crash_limit: int,
        heartbeat: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        self.workers = max(1, int(workers))
        self.crash_limit = max(1, int(crash_limit))
        self.heartbeat = heartbeat
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        #: backoff owed before the next pool build
        self._delay = 0.0
        #: guards the fields below and ``stats``
        self._lock = threading.Lock()
        #: serializes pool builds (and their backoff) without blocking
        #: readers of ``stats``
        self._build_lock = threading.Lock()
        #: key -> workers it has killed
        self._crashes: Dict[str, int] = {}
        self._poisoned: set = set()
        self.stats = {
            "worker_crashes": 0,
            "pool_restarts": 0,
            "heartbeat_kills": 0,
            "poisoned": 0,
            "retried": 0,
        }

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._build_lock:
            with self._lock:
                if self._pool is not None:
                    return self._pool
                delay = self._delay
            if delay > 0:
                time.sleep(delay)
            forked = self._context.get_start_method() == "fork"
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context,
                initializer=_init_worker,
                initargs=(None if forked else _warm_blob(),),
            )
            with self._lock:
                self._pool = pool
                self._delay = 0.0
            return pool

    def _drop_pool(self, dead: ProcessPoolExecutor) -> None:
        """Forget a broken pool (idempotent under racing threads)."""
        with self._lock:
            if self._pool is not dead:
                return  # another thread already dropped it
            restarts = self.stats["pool_restarts"]
            self.stats["pool_restarts"] = restarts + 1
            self._pool = None
            self._delay = min(self.backoff_max, self.backoff_base * (2**restarts))
        dead.shutdown(wait=False)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """SIGKILL every worker of a stuck pool (heartbeat breach)."""
        for pid in list(getattr(pool, "_processes", {}) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- submission -----------------------------------------------------------

    def poisoned(self, key: str) -> bool:
        with self._lock:
            return key in self._poisoned

    def crashes(self, key: str) -> int:
        """Workers ``key`` has killed so far."""
        with self._lock:
            return self._crashes.get(key, 0)

    def submit(
        self,
        fn: Callable[..., T],
        *args,
        key: str,
    ) -> T:
        """Run ``fn(*args)`` on the supervised pool and return its result.

        Raises :class:`PoisonedRequest` when ``key`` has killed
        ``crash_limit`` workers (whether before this call or during it).
        Exceptions *raised by* ``fn`` in a healthy worker propagate
        unchanged — those are the caller's business, not a supervision
        event.
        """
        if self.poisoned(key):
            raise PoisonedRequest(
                f"{key[:12]} is quarantined: it killed "
                f"{self.crash_limit} worker(s)"
            )
        while True:
            pool = self._ensure_pool()
            try:
                future = pool.submit(fn, *args)
            except BrokenProcessPool:
                # broken by another caller's crash before this call ran
                self._drop_pool(pool)
                continue
            try:
                return future.result(self.heartbeat)
            except FutureTimeout:
                with self._lock:
                    self.stats["heartbeat_kills"] += 1
                self._kill_pool(pool)
                # the kill breaks the pool; let the future surface it,
                # but do not wait long for that
                try:
                    future.result(5.0)
                except Exception:
                    pass
                cause: BaseException = BrokenProcessPool("heartbeat kill")
            except BrokenProcessPool as error:
                cause = error
            if self._record_crash(key, pool):
                raise PoisonedRequest(
                    f"{key[:12]} killed {self.crash_limit} worker(s); "
                    "not retrying"
                ) from cause
            with self._lock:
                self.stats["retried"] += 1

    def _record_crash(self, key: str, pool: ProcessPoolExecutor) -> bool:
        """Count one worker death against ``key``; True = now poisoned."""
        with self._lock:
            self.stats["worker_crashes"] += 1
            count = self._crashes.get(key, 0) + 1
            self._crashes[key] = count
            poisoned = count >= self.crash_limit
            if poisoned:
                self._poisoned.add(key)
                self.stats["poisoned"] += 1
        self._drop_pool(pool)
        return poisoned

    def to_json(self) -> Dict[str, object]:
        with self._lock:
            return {**self.stats, "quarantined_keys": len(self._poisoned)}
