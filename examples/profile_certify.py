"""Profile TVLA-relational certification of the heaviest suite client.

Run with ``PYTHONPATH=src python examples/profile_certify.py``.

Certifies ``holders_loop`` (the worst-case client of the suite) under
cProfile on the one engine configuration — reverse-postorder worklist,
bit-plane structures with compiled formulas, per-(action,
canonical-key) transfer memoization — and prints the top functions plus
the wall-clock.  Repeats run on one held session, after a warm-up
certification has derived, inlined and specialized.

Flags::

    --program NAME   a different suite client
    --reps N         certifications per profile
    --top N          rows of the profile to print
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time

from repro.api import CertifySession
from repro.easl.library import cmp_spec
from repro.lang.types import parse_program
from repro.suite import all_programs


def profile_certify(program, spec, reps: int, top: int) -> float:
    """Profile ``reps`` certifications; returns the wall-clock seconds."""
    session = CertifySession(spec, engine="tvla-relational")
    session.certify_program(program)  # warm derive/inline/specialize
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    for _ in range(reps):
        session.certify_program(program)
    profiler.disable()
    elapsed = time.perf_counter() - started
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    print(f"=== {reps} certification(s) in {elapsed:.3f}s ===")
    # skip the pstats preamble; keep the table
    lines = buffer.getvalue().splitlines()
    table_from = next(
        i for i, line in enumerate(lines) if "ncalls" in line
    )
    print("\n".join(lines[table_from : table_from + top + 1]))
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--program", default="holders_loop")
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args()

    spec = cmp_spec()
    bench = next(
        (b for b in all_programs() if b.name == args.program), None
    )
    if bench is None:
        parser.error(
            f"unknown suite program {args.program!r}; see repro.suite"
        )
    program = parse_program(bench.source, spec)
    elapsed = profile_certify(program, spec, args.reps, args.top)
    print(f"{args.program}: {elapsed / max(args.reps, 1):.4f}s per certification")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
