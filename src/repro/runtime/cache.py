"""Bounded, stats-reporting memoization for staged-certification results.

The staging argument (Section 1.3) is that derivation cost is paid once
per *specification* and amortized over every client certified against
it.  The facade used to keep that amortization in an unbounded
module-global dict; a long-running service certifying against many specs
(or many derivation-parameter combinations) would grow it forever, and
nothing reported whether the cache was earning its keep.  This module
provides the replacement:

* :class:`LRUCache` — a small thread-safe LRU with hit / miss / eviction
  counters, snapshot-able as :class:`CacheStats` (surfaced by the batch
  summary and the ``repro batch`` CLI);
* :func:`stable_key` — defensive normalization of arbitrary keyword
  arguments into a hashable, deterministic key.  The previous cache key,
  ``tuple(sorted(kwargs.items()))``, raised ``TypeError`` as soon as a
  kwarg value was unhashable (a list budget, a dict of options); the
  normalized form keeps equal values equal and never refuses a key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Mapping


#: default bound for per-session caches and the batch runtime's
#: process-wide abstraction cache
DEFAULT_CACHE_SIZE = 64


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    name: str
    size: int
    maxsize: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "size": self.size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.size}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.evictions} evictions"
        )


class LRUCache:
    """Thread-safe least-recently-used cache with usage counters."""

    def __init__(self, maxsize: int = 64, name: str = "cache") -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get_or_create(
        self, key: Hashable, factory: Callable[[], Any]
    ) -> Any:
        """Return the cached value, creating (and counting) on miss.

        The factory runs outside the lock — derivation can take seconds
        and must not serialize unrelated lookups.  Concurrent misses on
        the same key may both run the factory; the first store wins.
        """
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
        value = factory()
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
        return value

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            return self._data.pop(key, default)

    def items(self):
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                size=len(self._data),
                maxsize=self.maxsize,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )


def stable_key(value: Any) -> Hashable:
    """Normalize ``value`` into a hashable, deterministic cache key.

    Mappings and sets are order-normalized, sequences recurse, and a
    value that is neither a known container nor hashable degrades to its
    ``repr`` (tagged with its type) rather than raising ``TypeError``.
    Equal containers therefore produce equal keys regardless of
    insertion order, and *no* input is rejected.
    """
    if isinstance(value, Mapping):
        return (
            "map",
            tuple(
                sorted(
                    ((stable_key(k), stable_key(v)) for k, v in value.items()),
                    key=repr,
                )
            ),
        )
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((stable_key(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(stable_key(v) for v in value))
    try:
        hash(value)
    except TypeError:
        return ("repr", type(value).__name__, repr(value))
    return value
