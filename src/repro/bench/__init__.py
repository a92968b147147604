"""Experiment drivers shared by ``benchmarks/`` and ``examples/``."""

from repro.bench.harness import (
    EngineRun,
    ProgramResult,
    format_phase_table,
    format_table,
    results_to_json,
    run_engine,
    run_precision_table,
)

__all__ = [
    "EngineRun",
    "ProgramResult",
    "format_phase_table",
    "format_table",
    "results_to_json",
    "run_engine",
    "run_precision_table",
]
