"""Tests for the Section 8 interprocedural certifier.

The headline validation compares the summary-based solver against the
exhaustive-inlining reference (provably precise for recursion-free
clients) on every shallow suite program, and against ground truth.
"""

import pytest

from repro.certifier.fds import certify_fds
from repro.certifier.interproc import InterproceduralCertifier
from repro.certifier.spaces import FactSpaces, classify_shapes
from repro.certifier.transform import ClientTransformer, TransformError
from repro.lang import parse_program
from repro.lang.inline import inline_program
from repro.runtime import ExplorationBudget, explore
from repro.suite import shallow_programs


class TestShapes:
    def test_cmp_shape_classification(self, cmp_abstraction_id):
        shapes = classify_shapes(cmp_abstraction_id)
        assert "Iterator" in shapes.mutable_unary
        assert shapes.collection_of == {"Iterator": "Set"}
        assert ("Iterator", "Set") in shapes.relation
        assert "Iterator" in shapes.mutex
        assert set(shapes.identity) == {"Set", "Iterator", "Version"}


class TestGuards:
    def test_heap_client_rejected(self, cmp_specification, cmp_abstraction_id):
        program = parse_program(
            """
            class H { Set s; H() { } }
            class Main { static void main() { } }
            """,
            cmp_specification,
        )
        with pytest.raises(TransformError):
            InterproceduralCertifier(program, cmp_abstraction_id)


class TestGhostsAndPhantoms:
    def test_space_contains_ghosts_for_formals_and_statics(
        self, cmp_specification, cmp_abstraction_id
    ):
        program = parse_program(
            """
            class Main {
              static Set g;
              static void main() { helper(g); }
              static void helper(Set s) { }
            }
            """,
            cmp_specification,
        )
        space = FactSpaces(program, cmp_abstraction_id).space("Main.helper")
        assert "s##in" in space.ghosts
        assert "Main.g##in" in space.ghosts
        assert any(p.endswith("##ph") for p in space.phantoms)

    def test_return_pseudo_variable(
        self, cmp_specification, cmp_abstraction_id
    ):
        program = parse_program(
            """
            class Main {
              static void main() { Iterator i = make(); }
              static Iterator make() {
                Set s = new Set();
                Iterator t = s.iterator();
                return t;
              }
            }
            """,
            cmp_specification,
        )
        space = FactSpaces(program, cmp_abstraction_id).space("Main.make")
        assert "##ret" in space.variables


@pytest.mark.parametrize(
    "bench", shallow_programs(), ids=lambda b: b.name
)
def test_matches_inlining_reference(
    bench, cmp_specification, cmp_abstraction_id
):
    """Summary-based == exhaustive inlining on the whole shallow suite."""
    program = parse_program(bench.source, cmp_specification)
    inlined = inline_program(program, max_depth=8)
    reference = certify_fds(
        ClientTransformer(
            program, cmp_abstraction_id
        ).transform_inlined(inlined)
    )
    summary_based = InterproceduralCertifier(
        program, cmp_abstraction_id
    ).certify()
    assert summary_based.alarm_sites() == reference.alarm_sites(), (
        f"{bench.name}: interproc {sorted(summary_based.alarm_lines())} "
        f"vs inlining {sorted(reference.alarm_lines())}"
    )


@pytest.mark.parametrize(
    "bench", shallow_programs(), ids=lambda b: b.name
)
def test_sound_and_exact_on_suite(
    bench, cmp_specification, cmp_abstraction_id
):
    program = parse_program(bench.source, cmp_specification)
    truth = explore(
        program, ExplorationBudget(max_paths=8000, max_steps_per_path=300)
    )
    report = InterproceduralCertifier(
        program, cmp_abstraction_id
    ).certify()
    summary = truth.compare(report.alarm_sites())
    assert summary.sound, f"{bench.name}: missed {summary.missed_sites}"
    assert summary.false_alarms == 0, (
        f"{bench.name}: false alarms at {summary.false_alarm_sites}"
    )


class TestContextSensitivity:
    def test_same_callee_different_contexts(
        self, cmp_specification, cmp_abstraction_id
    ):
        # mutate() is called on the iterated set in one context and on an
        # unrelated set in another: only the first next() may fail
        program = parse_program(
            """
            class Main {
              static void main() {
                Set a = new Set();
                Set b = new Set();
                Iterator i = a.iterator();
                Iterator j = b.iterator();
                mutate(a);
                i.next();
                j.next();
              }
              static void mutate(Set s) { s.add("x"); }
            }
            """,
            cmp_specification,
        )
        report = InterproceduralCertifier(
            program, cmp_abstraction_id
        ).certify()
        assert sorted(report.alarm_lines()) == [9]

    def test_contexts_tabulated(self, cmp_specification, cmp_abstraction_id):
        program = parse_program(
            """
            class Main {
              static void main() {
                Set a = new Set();
                Iterator i = a.iterator();
                mutate(a);
                mutate(a);
                i.next();
              }
              static void mutate(Set s) { s.add("x"); }
            }
            """,
            cmp_specification,
        )
        certifier = InterproceduralCertifier(program, cmp_abstraction_id)
        report = certifier.certify()
        assert sorted(report.alarm_lines()) == [8]
        assert certifier.stats["contexts"] >= 2
