"""Failure isolation for the serve layer.

Two mechanisms keep the daemon answering when things die underneath it:

* worker crashes — ``--worker-mode process`` runs certify-on-miss on the
  shared :class:`~repro.runtime.executor.WorkerSupervisor`.  The daemon
  retries a request whose worker died **once**: a request that kills
  :data:`POISON_THRESHOLD` workers is quarantined and answered with a
  clean error immediately (and on every later submission of the same
  key).  A per-request heartbeat additionally catches workers that hang
  rather than die.

* :class:`StoreCircuitBreaker` — wraps certificate-store I/O.  A few
  consecutive ``OSError``\\ s (disk yanked, ENOSPC, EIO) open the
  breaker: for the cooldown window every store operation is skipped and
  the service degrades to *certify-without-store* — requests still get
  correct verdicts, they just stop being cached/served-from-cache.
  After the cooldown one probe operation is allowed through
  (half-open); success closes the breaker.

The breaker is synchronous and thread-safe — it runs on the service's
executor threads, not the event loop.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, TypeVar

T = TypeVar("T")

#: worker crashes after which a request key is quarantined
POISON_THRESHOLD = 2


class StoreCircuitBreaker:
    """Trip after consecutive store I/O failures; cool down; probe.

    ``call`` runs a store operation and returns its value, or
    ``fallback`` when the breaker is open or the operation raises
    ``OSError``.  The service keeps answering either way — an open
    breaker only disables the cache layer.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.stats = {"trips": 0, "skipped": 0, "io_errors": 0}

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def call(
        self,
        operation: Callable[[], T],
        *,
        fallback: Optional[T] = None,
    ) -> Optional[T]:
        with self._lock:
            state = self._state_locked()
            if state == "open" or (state == "half-open" and self._probing):
                self.stats["skipped"] += 1
                return fallback
            if state == "half-open":
                self._probing = True  # exactly one probe through
        try:
            result = operation()
        except OSError:
            with self._lock:
                self._probing = False
                self.stats["io_errors"] += 1
                self._failures += 1
                if (
                    self._opened_at is not None
                    or self._failures >= self.failure_threshold
                ):
                    if self._opened_at is None:
                        self.stats["trips"] += 1
                    self._opened_at = self._clock()  # (re)start cooldown
            return fallback
        with self._lock:
            self._probing = False
            self._failures = 0
            self._opened_at = None
        return result

    def to_json(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._state_locked(),
                "failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "cooldown": self.cooldown,
                **self.stats,
            }
