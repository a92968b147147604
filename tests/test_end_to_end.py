"""End-to-end certification: every engine × every applicable program.

The soundness requirement (no missed error) holds for *all* engines; the
staged certifiers are additionally exact (zero false alarms) on the whole
suite — the paper's headline result.
"""

import pytest

from repro.api import CertifySession
from repro.lang import parse_program
from repro.runtime import ExplorationBudget, explore
from repro.suite import all_programs, shallow_programs, heap_programs

STAGED_SHALLOW = ("fds", "relational", "interproc", "tvla-relational")
STAGED_HEAP = ("tvla-relational", "tvla-independent")
GENERIC = ("allocsite", "allocsite-recency", "shapegraph")

_BUDGET = ExplorationBudget(max_paths=8000, max_steps_per_path=300)


@pytest.fixture(scope="module")
def session(cmp_specification):
    return CertifySession(cmp_specification)


def _truth(bench, spec):
    program = parse_program(bench.source, spec)
    return program, explore(program, _BUDGET)


@pytest.mark.parametrize("engine", STAGED_SHALLOW)
@pytest.mark.parametrize(
    "bench", shallow_programs(), ids=lambda b: b.name
)
def test_staged_engines_exact_on_shallow_suite(
    engine, bench, cmp_specification, session
):
    program, truth = _truth(bench, cmp_specification)
    report = session.certify_program(program, engine)
    summary = truth.compare(report.alarm_sites())
    assert summary.sound, f"{bench.name}/{engine}: missed errors"
    assert summary.false_alarms == 0, (
        f"{bench.name}/{engine}: false alarms at "
        f"{summary.false_alarm_sites}"
    )


@pytest.mark.parametrize("engine", STAGED_HEAP)
@pytest.mark.parametrize("bench", heap_programs(), ids=lambda b: b.name)
def test_staged_engines_exact_on_heap_suite(
    engine, bench, cmp_specification, session
):
    program, truth = _truth(bench, cmp_specification)
    report = session.certify_program(program, engine)
    summary = truth.compare(report.alarm_sites())
    assert summary.sound and summary.false_alarms == 0


@pytest.mark.parametrize("engine", GENERIC)
@pytest.mark.parametrize("bench", all_programs(), ids=lambda b: b.name)
def test_generic_engines_sound_on_everything(
    engine, bench, cmp_specification, session
):
    program, truth = _truth(bench, cmp_specification)
    report = session.certify_program(program, engine)
    summary = truth.compare(report.alarm_sites())
    assert summary.sound, f"{bench.name}/{engine}: missed errors"


def test_auto_engine_picks_by_shape(cmp_specification, session):
    shallow = parse_program(
        "class Main { static void main() { Set s = new Set(); } }",
        cmp_specification,
    )
    report = session.certify_program(shallow, "auto")
    assert report.engine == "interproc"
    heap = parse_program(
        """
        class H { Set s; H() { } }
        class Main { static void main() { } }
        """,
        cmp_specification,
    )
    report = session.certify_program(heap, "auto")
    assert report.engine.startswith("tvla")


def test_unknown_engine_rejected(cmp_specification):
    with pytest.raises(ValueError):
        CertifySession(cmp_specification).certify(
            "class Main { static void main() { } }", engine="magic"
        )
