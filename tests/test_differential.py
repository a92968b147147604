"""Differential testing on random synthetic clients.

For randomly generated SCMP clients (hypothesis-driven seeds over the
:mod:`repro.bench.synthetic` generator):

* every certifier is **sound** against the exhaustive interpreter,
* the staged SCMP certifiers agree with each other exactly,
* the staged certifiers are exact (zero false alarms) whenever the
  interpreter explored the program completely.

This is the strongest whole-pipeline check in the repo: it exercises
derivation instantiation, transformation patterns, the solvers, and the
concrete component semantics against each other on programs nobody
hand-picked.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import CertifySession
from repro.bench.synthetic import make_client
from repro.lang import parse_program
from repro.runtime import ExplorationBudget, explore

_BUDGET = ExplorationBudget(max_paths=4000, max_steps_per_path=200)

STAGED = ("fds", "relational", "interproc")
GENERIC = ("allocsite", "shapegraph")


@pytest.fixture(scope="module")
def session(cmp_specification):
    return CertifySession(cmp_specification)


def _generate(seed, num_sets, num_iters, num_ops, loop_every, spec):
    source = make_client(
        num_sets=num_sets,
        num_iters=num_iters,
        num_ops=num_ops,
        seed=seed,
        loop_every=loop_every,
    )
    return parse_program(source, spec)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_sets=st.integers(1, 3),
    num_iters=st.integers(1, 4),
    num_ops=st.integers(5, 25),
    loop_every=st.sampled_from([0, 8]),
)
def test_staged_engines_sound_and_ordered(
    seed, num_sets, num_iters, num_ops, loop_every, cmp_specification, session
):
    program = _generate(
        seed, num_sets, num_iters, num_ops, loop_every, cmp_specification
    )
    truth = explore(program, _BUDGET)
    reports = {
        engine: session.certify_program(program, engine) for engine in STAGED
    }
    baseline = reports["fds"].alarm_sites()
    for engine, report in reports.items():
        summary = truth.compare(report.alarm_sites())
        assert summary.sound, f"{engine} missed {summary.missed_sites}"
    # the designed precision order, not blanket equality: relational
    # tracks valuation correlations the independent-attribute solver
    # cannot (e.g. "this remove only succeeds on valuations where the
    # later next's iterator is not shared"), so relational may drop
    # alarms fds keeps — never the reverse.  interproc solves the same
    # independent-attribute equations as fds and must agree exactly on
    # these single-procedure clients.
    assert reports["relational"].alarm_sites() <= baseline, (
        "relational alarmed where fds did not"
    )
    assert reports["interproc"].alarm_sites() == baseline, (
        "interproc disagrees with fds"
    )
    if not truth.truncated:
        for engine in ("fds", "relational"):
            summary = truth.compare(reports[engine].alarm_sites())
            assert summary.false_alarms == 0, (
                f"{engine} false alarms at {summary.false_alarm_sites} "
                f"(seed={seed})"
            )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_ops=st.integers(5, 20),
)
def test_generic_engines_sound_on_random_clients(
    seed, num_ops, cmp_specification, session
):
    program = _generate(seed, 2, 3, num_ops, 0, cmp_specification)
    truth = explore(program, _BUDGET)
    for engine in GENERIC:
        report = session.certify_program(program, engine)
        summary = truth.compare(report.alarm_sites())
        assert summary.sound, (
            f"{engine} missed {summary.missed_sites} (seed={seed})"
        )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), num_ops=st.integers(5, 18))
def test_tvla_sound_on_random_shallow_clients(
    seed, num_ops, cmp_specification, session
):
    """The first-order pipeline must subsume the nullary one on shallow
    clients (field-slot machinery degenerates to nullary instances)."""
    program = _generate(seed, 2, 3, num_ops, 0, cmp_specification)
    truth = explore(program, _BUDGET)
    report = session.certify_program(program, "tvla-independent")
    summary = truth.compare(report.alarm_sites())
    assert summary.sound, f"missed {summary.missed_sites} (seed={seed})"
