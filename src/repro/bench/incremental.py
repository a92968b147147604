"""Incremental-recertification bench: equality corpus + speedup curve.

Two halves, matching the two claims the CI ``incremental-gate`` job
enforces:

* **equality** — over fuzzed edit chains (:mod:`repro.fuzz.edits`), the
  incremental path must produce certificates *byte-identical* to
  from-scratch certification, with equal alarm sets, across every engine
  family.  Fallbacks (edits that change the variable universe, e.g.
  renames) are counted but are not failures — the fallback *is* a full
  run, so identity holds trivially; the gate cares that it holds on the
  warm-started runs too.
* **speedup** — on a loop-heavy heap client (the E13 workload), a small
  edit near the end leaves the loops in the clean region; the seeded
  fixpoint re-iterates only the tail.  The row reports median
  steady-state time (fresh engine state per rep, so the fixpoint fully
  re-executes on both paths) at increasing edit distance.

Scratch and incremental runs live in *separate sessions* so neither
path's front-half caches (parse, inline, specialize) warm the other's
cold rep.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import make_heap_client
from repro.easl.library import cmp_spec
from repro.easl.spec import ComponentSpec
from repro.fuzz.edits import edit_sequence
from repro.fuzz.generator import generate_client

def _alarm_signature(report) -> List[Tuple]:
    return sorted(
        (a.site_id, a.op_key, a.instance, a.definite)
        for a in report.alarms
    )


#: engine rotation for the equality corpus — every family that supports
#: warm starts ("interproc" always falls back, so it would test nothing)
EQUALITY_ENGINES = (
    "fds",
    "relational",
    "tvla-relational",
    "tvla-independent",
    "allocsite",
)


@dataclass
class EditPairRow:
    """One (scratch, incremental) certification pair along an edit chain."""

    seed: int
    engine: str
    edit_index: int
    edit_kind: str
    identical: bool
    alarms_equal: bool
    incremental: bool  #: False = the warm start fell back to a full run
    clean_nodes: int
    total_nodes: int

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "engine": self.engine,
            "edit_index": self.edit_index,
            "edit_kind": self.edit_kind,
            "identical": self.identical,
            "alarms_equal": self.alarms_equal,
            "incremental": self.incremental,
            "clean_nodes": self.clean_nodes,
            "total_nodes": self.total_nodes,
        }


@dataclass
class SpeedupRow:
    """Median steady-state times at one edit distance."""

    distance: int
    scratch_seconds: float
    incremental_seconds: float
    identical: bool
    clean_nodes: int
    total_nodes: int
    fell_back: bool

    @property
    def speedup(self) -> float:
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.scratch_seconds / self.incremental_seconds

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "scratch_seconds": self.scratch_seconds,
            "incremental_seconds": self.incremental_seconds,
            "speedup": self.speedup,
            "identical": self.identical,
            "clean_nodes": self.clean_nodes,
            "total_nodes": self.total_nodes,
            "fell_back": self.fell_back,
        }


@dataclass
class IncrementalBenchResult:
    pairs: List[EditPairRow] = field(default_factory=list)
    speedups: List[SpeedupRow] = field(default_factory=list)
    reps: int = 0

    @property
    def mismatches(self) -> int:
        return sum(
            1 for row in self.pairs if not (row.identical and row.alarms_equal)
        )

    @property
    def fallbacks(self) -> int:
        return sum(1 for row in self.pairs if not row.incremental)

    @property
    def median_speedup(self) -> float:
        usable = [r.speedup for r in self.speedups if not r.fell_back]
        if not usable:
            return 0.0
        return statistics.median(usable)

    @property
    def single_edit_speedup(self) -> float:
        """Speedup at edit distance 1 — the number the gate floors."""
        for row in self.speedups:
            if row.distance == 1 and not row.fell_back:
                return row.speedup
        return 0.0

    def ok(self, min_speedup: float = 0.0) -> bool:
        if self.mismatches:
            return False
        if any(not row.identical for row in self.speedups):
            return False
        if any(row.fell_back for row in self.speedups):
            return False
        if min_speedup and self.single_edit_speedup < min_speedup:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "kind": "incremental-comparison",
            "pairs": [row.to_json() for row in self.pairs],
            "speedups": [row.to_json() for row in self.speedups],
            "reps": self.reps,
            "pair_count": len(self.pairs),
            "mismatches": self.mismatches,
            "fallbacks": self.fallbacks,
            "median_speedup": self.median_speedup,
            "single_edit_speedup": self.single_edit_speedup,
        }

    def format(self, min_speedup: float = 0.0) -> str:
        lines = [
            "incremental recertification bench",
            "=" * 70,
            f"equality corpus: {len(self.pairs)} edit pairs, "
            f"{self.mismatches} mismatches, "
            f"{self.fallbacks} fallbacks (full-run fallback, still identical)",
        ]
        if self.speedups:
            lines.append("")
            lines.append(
                f"{'distance':>8}  {'scratch':>10}  {'incremental':>11}  "
                f"{'speedup':>8}  {'clean/total':>11}"
            )
            for row in self.speedups:
                marker = "  [fallback]" if row.fell_back else ""
                lines.append(
                    f"{row.distance:>8}  {row.scratch_seconds:>9.4f}s  "
                    f"{row.incremental_seconds:>10.4f}s  "
                    f"{row.speedup:>7.2f}x  "
                    f"{row.clean_nodes:>5}/{row.total_nodes:<5}{marker}"
                )
            lines.append("")
            lines.append(
                f"median speedup {self.median_speedup:.2f}x, "
                f"single-edit speedup {self.single_edit_speedup:.2f}x"
            )
        verdict = "OK" if self.ok(min_speedup) else "FAIL"
        floor = f" (floor {min_speedup:.2f}x)" if min_speedup else ""
        lines.append(f"gate: {verdict}{floor}")
        return "\n".join(lines)


def _pair_sessions(
    spec: ComponentSpec, emit: bool = True
) -> Tuple[CertifySession, CertifySession]:
    options = CertifyOptions(emit_certificate=emit)
    return (
        CertifySession(spec, options=options),
        CertifySession(spec, options=options),
    )


def run_edit_equality(
    spec: Optional[ComponentSpec] = None,
    *,
    seeds: int = 8,
    edits: int = 5,
    edit_seed: int = 0,
    engines: Sequence[str] = EQUALITY_ENGINES,
) -> List[EditPairRow]:
    """Certify ``seeds`` fuzzed clients through ``edits``-long edit
    chains, scratch and incrementally (parent = previous incremental
    certificate), and compare certificates byte-for-byte."""
    spec = spec or cmp_spec()
    rows: List[EditPairRow] = []
    for seed in range(seeds):
        base = generate_client(seed)
        engine = engines[seed % len(engines)]
        scratch_session, incr_session = _pair_sessions(spec)
        parent = scratch_session.certify(base, engine).certificate
        chain = edit_sequence(base, edits, edit_seed + seed * 7919 + 1)
        for index, (source, edit) in enumerate(chain):
            scratch = scratch_session.certify(source, engine)
            incremental = incr_session.certify(
                source, engine, incremental_from=parent
            )
            info = incremental.stats.get("incremental")
            rows.append(
                EditPairRow(
                    seed=seed,
                    engine=engine,
                    edit_index=index,
                    edit_kind=edit.kind,
                    identical=(
                        scratch.certificate.text()
                        == incremental.certificate.text()
                    ),
                    alarms_equal=(
                        _alarm_signature(scratch)
                        == _alarm_signature(incremental)
                    ),
                    incremental=info is not None,
                    clean_nodes=info["clean_nodes"] if info else 0,
                    total_nodes=info["total_nodes"] if info else 0,
                )
            )
            parent = incremental.certificate
    return rows


def _edited_heap_client(base: str, distance: int) -> str:
    """``base`` with ``distance`` fresh statements spliced in just above
    the closing brace of ``main`` — a tail edit that keeps the loops
    (where the fixpoint cost lives) inside the clean region."""
    lines = base.split("\n")
    insert_at = len(lines) - 2  # before "  }" / "}"
    added = [f'    v0.add("x{k}");' for k in range(distance)]
    return "\n".join(lines[:insert_at] + added + lines[insert_at:])


def _median_time(session, run, reps: int) -> Tuple[float, object]:
    samples = []
    report = None
    for _ in range(max(1, reps)):
        # drop cached engine state so each rep re-executes the fixpoint
        # (the front-half caches stay warm on both paths — steady state
        # isolates the engine, as in the packed-kernel bench)
        session._engine_by_obj.clear()
        started = time.perf_counter()
        report = run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), report


def run_incremental_speedup(
    spec: Optional[ComponentSpec] = None,
    *,
    distances: Sequence[int] = (1, 2, 4, 8),
    reps: int = 5,
    engine: str = "tvla-relational",
    num_loops: int = 2,
) -> List[SpeedupRow]:
    """Time scratch vs. warm-started certification of tail-edited
    loop-heavy heap clients at increasing edit distance.

    Timed runs certify with emission off — serializing the certificate
    is byte-identical work on both paths (the annotation is the same
    fixpoint), so including it would only dilute the analysis speedup
    the warm start buys.  Byte-identity of the emitted certificates is
    still checked per distance, through a separate (untimed) emitting
    session pair.
    """
    spec = spec or cmp_spec()
    base = make_heap_client(num_loops=num_loops)
    emit_scratch, emit_incr = _pair_sessions(spec, emit=True)
    scratch_session, incr_session = _pair_sessions(spec, emit=False)
    parent = emit_incr.certify(base, engine).certificate
    rows: List[SpeedupRow] = []
    for distance in distances:
        child = _edited_heap_client(base, distance)
        scratch_seconds, _ = _median_time(
            scratch_session,
            lambda: scratch_session.certify(child, engine),
            reps,
        )
        incr_seconds, timed = _median_time(
            incr_session,
            lambda: incr_session.certify(
                child, engine, incremental_from=parent
            ),
            reps,
        )
        info = timed.stats.get("incremental")
        scratch = emit_scratch.certify(child, engine)
        incremental = emit_incr.certify(
            child, engine, incremental_from=parent
        )
        rows.append(
            SpeedupRow(
                distance=distance,
                scratch_seconds=scratch_seconds,
                incremental_seconds=incr_seconds,
                identical=(
                    scratch.certificate.text()
                    == incremental.certificate.text()
                ),
                clean_nodes=info["clean_nodes"] if info else 0,
                total_nodes=info["total_nodes"] if info else 0,
                fell_back=info is None,
            )
        )
    return rows


def run_incremental_bench(
    spec: Optional[ComponentSpec] = None,
    *,
    seeds: int = 8,
    edits: int = 5,
    edit_seed: int = 0,
    distances: Sequence[int] = (1, 2, 4, 8),
    reps: int = 5,
) -> IncrementalBenchResult:
    spec = spec or cmp_spec()
    return IncrementalBenchResult(
        pairs=run_edit_equality(
            spec, seeds=seeds, edits=edits, edit_seed=edit_seed
        ),
        speedups=run_incremental_speedup(
            spec, distances=distances, reps=reps
        ),
        reps=reps,
    )
