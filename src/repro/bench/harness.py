"""Harness producing the Section 7 evaluation tables.

For every suite program and every applicable engine it reports:

* the ground truth (exhaustive-interpreter failing sites),
* the engine's alarms,
* soundness (no missed error) and false-alarm count,
* wall-clock time.

The headline rows reproduce the paper's findings: the staged certifiers
(fds / relational / interproc / both TVLA modes) are sound with minimal
false alarms, the generic baselines are sound but noisier, and the
relational engines buy no precision over the independent-attribute ones
on this suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import CertifyOptions, CertifySession
from repro.easl.library import cmp_spec
from repro.easl.spec import ComponentSpec
from repro.lang.types import Program, parse_program
from repro.runtime import (
    CollectingTracer,
    ExplorationBudget,
    GroundTruth,
    explore,
    use_tracer,
)
from repro.suite import BenchmarkProgram, all_programs

#: engines applicable to shallow (SCMP) clients
SHALLOW_ENGINES = (
    "fds",
    "relational",
    "interproc",
    "tvla-relational",
    "tvla-independent",
    "allocsite",
    "allocsite-recency",
    "shapegraph",
)
#: engines applicable to heap clients
HEAP_ENGINES = (
    "tvla-relational",
    "tvla-independent",
    "allocsite",
    "allocsite-recency",
    "shapegraph",
)


@dataclass
class EngineRun:
    engine: str
    alarms: int
    false_alarms: int
    missed: int
    seconds: float
    alarm_lines: List[int] = field(default_factory=list)
    error: Optional[str] = None
    #: per-phase durations (derive / inline / transform / fixpoint)
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def sound(self) -> bool:
        return self.missed == 0 and self.error is None


@dataclass
class ProgramResult:
    program: BenchmarkProgram
    real_error_lines: List[int]
    truth_truncated: bool
    runs: Dict[str, EngineRun] = field(default_factory=dict)


def ground_truth(
    program: Program, budget: Optional[ExplorationBudget] = None
) -> GroundTruth:
    return explore(
        program,
        budget
        or ExplorationBudget(max_paths=15_000, max_steps_per_path=400),
    )


def run_engine(
    program: Program,
    truth: GroundTruth,
    engine: str,
    session: Optional[CertifySession] = None,
) -> EngineRun:
    """Certify ``program`` with ``engine`` and judge it against ``truth``.

    Runs through the instrumented :class:`CertifySession` path, so each
    row of the precision table also carries per-phase durations.  Pass a
    ``session`` to amortize derivation across rows (as
    :func:`run_precision_table` does).
    """
    session = session or CertifySession(program.spec)
    tracer = CollectingTracer()
    started = time.perf_counter()
    try:
        with use_tracer(tracer):
            report = session.certify_program(program, engine=engine)
    except Exception as error:  # budget blowups etc. count as failures
        return EngineRun(
            engine, 0, 0, 0, time.perf_counter() - started,
            error=f"{type(error).__name__}: {error}",
            phases=tracer.totals(),
        )
    elapsed = time.perf_counter() - started
    summary = truth.compare(report.alarm_sites())
    return EngineRun(
        engine,
        alarms=summary.alarms,
        false_alarms=summary.false_alarms,
        missed=summary.missed_errors,
        seconds=elapsed,
        alarm_lines=sorted(report.alarm_lines()),
        phases=tracer.totals(),
    )


def run_precision_table(
    spec: Optional[ComponentSpec] = None,
    engines: Optional[Sequence[str]] = None,
    programs: Optional[Sequence[BenchmarkProgram]] = None,
    budget: Optional[ExplorationBudget] = None,
    options: Optional[CertifyOptions] = None,
) -> List[ProgramResult]:
    """Run the full E1/E2 experiment (or a filtered slice of it).

    One :class:`CertifySession` serves the whole table, so the derived
    abstraction is computed once and every engine row reuses it — the
    same amortization the batch runtime applies across worker jobs.
    ``options`` may carry a resource-governor budget (deadline / step /
    structure limits, degradation ladder) to benchmark salvage quality.
    """
    spec = spec or cmp_spec()
    session = CertifySession(spec, options=options)
    results: List[ProgramResult] = []
    for bench in programs if programs is not None else all_programs():
        program = parse_program(bench.source, spec)
        truth = ground_truth(program, budget)
        result = ProgramResult(
            bench,
            sorted(truth.failing_lines()),
            truth.truncated,
        )
        applicable = engines or (
            SHALLOW_ENGINES if bench.shallow else HEAP_ENGINES
        )
        for engine in applicable:
            if not bench.shallow and engine not in HEAP_ENGINES:
                continue
            result.runs[engine] = run_engine(
                program, truth, engine, session=session
            )
        results.append(result)
    return results


def results_to_json(results: List[ProgramResult]) -> dict:
    """Serialize a precision table for ``repro bench --json``."""
    programs = []
    for result in results:
        engines = {}
        for engine, run in result.runs.items():
            engines[engine] = {
                "alarms": run.alarms,
                "false_alarms": run.false_alarms,
                "missed": run.missed,
                "seconds": round(run.seconds, 6),
                "sound": run.sound,
                "error": run.error,
                "alarm_lines": run.alarm_lines,
                "phases": {
                    name: round(seconds, 6)
                    for name, seconds in run.phases.items()
                },
            }
        programs.append(
            {
                "program": result.program.name,
                "category": result.program.category,
                "real_error_lines": result.real_error_lines,
                "truth_truncated": result.truth_truncated,
                "engines": engines,
            }
        )
    return {"kind": "precision", "programs": programs}


def format_phase_table(results: List[ProgramResult]) -> str:
    """Render summed per-phase seconds per engine (the E2 time view).

    The rows come from the trace events collected by :func:`run_engine`,
    so this is the same data the batch runtime exports as JSONL.
    """
    engines: List[str] = []
    for result in results:
        for engine in result.runs:
            if engine not in engines:
                engines.append(engine)
    phases: List[str] = []
    totals: Dict[str, Dict[str, float]] = {e: {} for e in engines}
    for result in results:
        for engine, run in result.runs.items():
            for phase_name, seconds in run.phases.items():
                if phase_name not in phases:
                    phases.append(phase_name)
                bucket = totals[engine]
                bucket[phase_name] = bucket.get(phase_name, 0.0) + seconds
    header = f"{'engine':>20s}"
    for phase_name in phases:
        header += f" | {phase_name:>10s}"
    lines = [header, "-" * len(header)]
    for engine in engines:
        row = f"{engine:>20s}"
        for phase_name in phases:
            seconds = totals[engine].get(phase_name)
            cell = f"{seconds:.3f}s" if seconds is not None else "—"
            row += f" | {cell:>10s}"
        lines.append(row)
    return "\n".join(lines)


def format_table(results: List[ProgramResult]) -> str:
    """Render the precision table as aligned text."""
    engines: List[str] = []
    for result in results:
        for engine in result.runs:
            if engine not in engines:
                engines.append(engine)
    lines = []
    header = f"{'program':26s} {'errors':>6s}"
    for engine in engines:
        header += f" | {engine:>18s}"
    lines.append(header)
    lines.append("-" * len(header))
    totals: Dict[str, List[int]] = {e: [0, 0, 0] for e in engines}
    for result in results:
        row = (
            f"{result.program.name:26s} "
            f"{len(result.real_error_lines):>6d}"
        )
        for engine in engines:
            run = result.runs.get(engine)
            if run is None:
                row += f" | {'—':>18s}"
                continue
            if run.error is not None:
                row += f" | {'ERR':>18s}"
                continue
            mark = "" if run.sound else " UNSOUND"
            cell = f"a={run.alarms} fa={run.false_alarms}{mark}"
            row += f" | {cell:>18s}"
            totals[engine][0] += run.alarms
            totals[engine][1] += run.false_alarms
            totals[engine][2] += run.missed
        lines.append(row)
    lines.append("-" * len(header))
    total_row = f"{'TOTAL':26s} {sum(len(r.real_error_lines) for r in results):>6d}"
    for engine in engines:
        alarms, false_alarms, missed = totals[engine]
        cell = f"a={alarms} fa={false_alarms}"
        if missed:
            cell += f" MISS={missed}"
        total_row += f" | {cell:>18s}"
    lines.append(total_row)
    return "\n".join(lines)
