"""A2 — the requires-assumption ablation.

The component *throws* on a violated ``requires``, so execution continues
past a check only when it passed.  This knowledge enters the pipeline at
two levels:

1. **Derivation** (``minimize=True``): weakest preconditions are
   simplified under the operation's ``requires`` assumptions.  This is
   what collapses ``remove``'s exact WP to the paper's ``stale ∨ mutx``
   *and* what lets the CMP fixpoint terminate at all — with the
   assumption disabled the raw WP disjuncts (``i≠j ∧ i.set≠j.set ∧ …``)
   never fold back onto already-derived families and the derivation
   diverges.  The paper's Step 3 "it can be verified that …" is exactly
   this reasoning.
2. **Solver** (``prune_requires``): assume a checked predicate is 0 after
   a passing check.  With level 1 active this is *subsumed* — the derived
   update for ``next()`` already sets the receiver's ``stale`` to 0 — so
   toggling it cannot change suite alarms; it only matters for
   abstractions produced without assumption reasoning.
"""

import pytest

from repro.derivation import DerivationDiverged, derive
from repro.lang import parse_program
from repro.runtime import ExplorationBudget, explore
from repro.suite import shallow_programs

_BUDGET = ExplorationBudget(max_paths=6000, max_steps_per_path=300)


def test_derivation_diverges_without_assumptions(benchmark, spec):
    """Precondition assumptions are a termination lever for CMP."""
    def attempt():
        try:
            derive(spec, minimize=False, max_families=48)
        except DerivationDiverged as error:
            return error
        return None

    error = benchmark.pedantic(attempt, rounds=1)
    assert error is not None


@pytest.fixture(scope="module")
def rows(spec, certify):
    table = []
    for bench in shallow_programs():
        program = parse_program(bench.source, spec)
        truth = explore(program, _BUDGET)
        pruned = certify(program, "fds", prune_requires=True)
        unpruned = certify(program, "fds", prune_requires=False)
        table.append((bench, truth, pruned, unpruned))
    return table


def test_print_pruning_table(rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(f"{'program':26s} {'real':>4s} {'pruned':>7s} {'unpruned':>9s}")
    for bench, truth, pruned, unpruned in rows:
        print(
            f"{bench.name:26s} {len(truth.failing_sites()):>4d} "
            f"{len(pruned.alarms):>7d} {len(unpruned.alarms):>9d}"
        )


def test_both_variants_sound(rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    for bench, truth, pruned, unpruned in rows:
        assert truth.compare(pruned.alarm_sites()).sound, bench.name
        assert truth.compare(unpruned.alarm_sites()).sound, bench.name


def test_solver_pruning_never_adds_alarms(rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    for bench, _truth, pruned, unpruned in rows:
        assert pruned.alarm_sites() <= unpruned.alarm_sites(), bench.name


def test_solver_pruning_subsumed_by_derivation_assumptions(
    rows, benchmark
):
    """With assumption-minimized updates, the solver-level knob is a
    no-op on the whole suite — the check's effect is already in the
    abstraction."""
    benchmark.pedantic(lambda: None, rounds=1)
    for bench, _truth, pruned, unpruned in rows:
        assert pruned.alarm_sites() == unpruned.alarm_sites(), bench.name
