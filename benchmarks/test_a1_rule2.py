"""A1 — the Rule 2 ablation (Section 4.1).

Rule 2 splits candidate instrumentation formulas into their disjuncts.
Two consequences are measured:

1. **Termination** — with splitting disabled, whole disjunctions are
   tracked as single predicates and the CMP derivation blows through any
   reasonable family budget (it no longer reaches a fixpoint of reusable
   building blocks).
2. **Independent-attribute = relational** — with splitting enabled, the
   cheap FDS solver matches the exponential relational solver alarm-for-
   alarm on the whole shallow suite (Section 4.6's precision argument).
"""

import pytest

from repro.derivation import DerivationDiverged, derive
from repro.lang import parse_program
from repro.suite import shallow_programs


def test_derivation_diverges_without_rule2(benchmark, spec):
    def attempt():
        try:
            derive(spec, split_disjuncts=False, max_families=24)
        except DerivationDiverged as error:
            return error
        return None

    error = benchmark.pedantic(attempt, rounds=1)
    assert error is not None
    assert len(error.partial) >= 24


def test_rule2_budget_growth(benchmark, spec):
    """Family count at divergence scales with the allowed budget —
    there is no fixpoint to converge to."""
    benchmark.pedantic(lambda: None, rounds=1)
    sizes = []
    for budget in (8, 16, 32):
        try:
            derive(spec, split_disjuncts=False, max_families=budget)
            pytest.fail("unexpected convergence")
        except DerivationDiverged as error:
            sizes.append(len(error.partial))
    assert sizes == sorted(sizes)
    assert sizes[-1] >= 32


def test_fds_equals_relational_with_rule2(benchmark, spec, certify):
    benchmark.pedantic(lambda: None, rounds=1)
    for bench in shallow_programs():
        program = parse_program(bench.source, spec)
        fds = certify(program, "fds")
        relational = certify(program, "relational")
        assert fds.alarm_sites() == relational.alarm_sites(), bench.name
