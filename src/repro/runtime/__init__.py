"""Execution services: concrete semantics, observability, batch runtime.

Concrete execution — the ground truth for precision measurements.  The
paper evaluates its certifiers by counting *false alarms* — reported
violations that cannot actually occur.  This package provides the
reference semantics against which alarms are judged:

* :mod:`repro.runtime.jcf` — a concrete component model obtained by
  *executing the Easl specification itself*: component objects are
  records, operations run the specification bodies, and a failing
  ``requires`` clause raises the conformance exception (for CMP, this is
  precisely the versioned ``ConcurrentModificationException`` check the
  real JCF performs).
* :mod:`repro.runtime.interp` — an exhaustive interpreter for Jlite CFGs
  under the *nondeterministic client semantics*: branch conditions written
  ``?`` take both outcomes, loops are explored up to a budget.  This is
  exactly the semantics the certifiers over-approximate, so "false alarm"
  and "missed error" are well-defined: an alarm is false iff no explored
  execution fails at that site, and soundness requires every failing site
  to be alarmed.

Production services for running certification at scale:

* :mod:`repro.runtime.trace` — per-phase trace events (parse / derive /
  inline / transform / fixpoint) behind a no-op-by-default tracer;
* :mod:`repro.runtime.cache` — bounded, stats-reporting LRU memoization
  plus defensive cache-key normalization;
* :mod:`repro.runtime.gcpause` — :func:`collector_paused`, the scoped,
  nestable pause of the cyclic garbage collector that certify and check
  run under;
* :mod:`repro.runtime.batch` — the batch-certification runtime: a
  manifest of (client, spec, engine) jobs executed on the supervised
  process pool of :mod:`repro.runtime.executor` with per-job timeouts,
  engine fallback, and crash retry.  (Imported lazily: it depends on
  :mod:`repro.api`, which itself uses this package's tracing.)
"""

from repro.runtime.cache import CacheStats, LRUCache, stable_key
from repro.runtime.gcpause import collector_paused
from repro.runtime.guard import (
    DegradationLadder,
    PartialResult,
    ResourceExhausted,
    ResourceGovernor,
    SiteLedger,
)
from repro.runtime.interp import ExplorationBudget, GroundTruth, explore
from repro.runtime.jcf import ComponentHeap, ConformanceViolation
from repro.runtime.trace import (
    NULL_TRACER,
    CollectingTracer,
    JsonlTracer,
    TraceEvent,
    Tracer,
    current_tracer,
    phase,
    use_tracer,
)

_BATCH_EXPORTS = (
    "BatchResult",
    "BatchRunner",
    "JobResult",
    "JobSpec",
    "JobTimedOut",
    "load_manifest",
)

_COORDINATOR_EXPORTS = (
    "load_shard_plan",
    "merge_shards",
    "run_shard",
    "write_shard_plan",
)

__all__ = [
    "CacheStats",
    "CollectingTracer",
    "ComponentHeap",
    "ConformanceViolation",
    "DegradationLadder",
    "ExplorationBudget",
    "GroundTruth",
    "JsonlTracer",
    "LRUCache",
    "NULL_TRACER",
    "PartialResult",
    "ResourceExhausted",
    "ResourceGovernor",
    "SiteLedger",
    "TraceEvent",
    "Tracer",
    "collector_paused",
    "current_tracer",
    "explore",
    "phase",
    "stable_key",
    "use_tracer",
    *_BATCH_EXPORTS,
    *_COORDINATOR_EXPORTS,
]


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from repro.runtime import batch

        return getattr(batch, name)
    if name in _COORDINATOR_EXPORTS:
        from repro.runtime import coordinator

        return getattr(coordinator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
