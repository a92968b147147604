"""Tests for 3-valued structures, canonical abstraction, and the TVLA
engine (Section 5)."""

import pytest

from repro.lang import parse_program
from repro.lang.inline import inline_program
from repro.logic.formula import Exists, PredAtom, conj, eq, neg
from repro.logic.kleene import FALSE3, HALF, TRUE3
from repro.logic.terms import Base
from repro.runtime import explore
from repro.suite import by_name, heap_programs
from repro.tvla import PackedStructure, TvlaEngine
from repro.tvp import specialized_translation
from repro.tvp.program import Action, Check, PredicateDecl, TvpProgram, Update


class TestThreeValuedEval:
    def make(self):
        s = PackedStructure()
        u1 = s.new_node()
        u2 = s.new_node(summary=True)
        s.set("p", (u1,), TRUE3)
        s.set("p", (u2,), HALF)
        s.set("r", (u1, u2), TRUE3)
        return s, u1, u2

    def test_atom_lookup(self):
        s, u1, u2 = self.make()
        assert s.eval(PredAtom("p", ("x",)), {"x": u1}) is TRUE3
        assert s.eval(PredAtom("p", ("x",)), {"x": u2}) is HALF

    def test_absent_tuples_are_false(self):
        s, u1, _ = self.make()
        assert s.eval(PredAtom("q", ("x",)), {"x": u1}) is FALSE3

    def test_equality_on_summary_is_half(self):
        s, u1, u2 = self.make()
        x, y = Base("x"), Base("y")
        assert s.eval(eq(x, y), {"x": u2, "y": u2}) is HALF
        assert s.eval(eq(x, y), {"x": u1, "y": u1}) is TRUE3
        assert s.eval(eq(x, y), {"x": u1, "y": u2}) is FALSE3

    def test_exists_over_half(self):
        s, _, _ = self.make()
        assert s.eval(Exists("x", PredAtom("p", ("x",)))) is TRUE3
        assert s.eval(Exists("x", PredAtom("q", ("x",)))) is FALSE3

    def test_kleene_connectives(self):
        s, u1, u2 = self.make()
        formula = conj(
            PredAtom("p", ("x",)), neg(PredAtom("p", ("y",)))
        )
        assert s.eval(formula, {"x": u1, "y": u2}) is HALF


class TestCanonicalAbstraction:
    def test_merges_equal_vectors_into_summary(self):
        s = PackedStructure()
        u1, u2, u3 = s.new_node(), s.new_node(), s.new_node()
        s.set("a", (u1,), TRUE3)
        # u2 and u3 agree on the abstraction predicate "a" (both false)
        result = s.canonicalize(["a"])
        assert len(result.nodes) == 2
        merged = [n for n in result.nodes if result.summary[n]]
        assert len(merged) == 1

    def test_predicate_values_join_on_merge(self):
        s = PackedStructure()
        u1, u2 = s.new_node(), s.new_node()
        s.set("b", (u1,), TRUE3)  # "b" is NOT an abstraction predicate
        result = s.canonicalize(["a"])
        (node,) = result.nodes
        assert result.get("b", (node,)) is HALF

    def test_bounded_by_vector_count(self):
        s = PackedStructure()
        for _ in range(10):
            s.new_node()
        result = s.canonicalize(["a"])
        assert len(result.nodes) == 1

    def test_canonical_key_stable_under_renaming(self):
        def build(order):
            s = PackedStructure()
            nodes = [s.new_node() for _ in range(2)]
            s.set("a", (nodes[order[0]],), TRUE3)
            return s.canonicalize(["a"])

        k1 = build([0, 1]).canonical_key(["a"])
        k2 = build([1, 0]).canonical_key(["a"])
        assert k1 == k2

    def test_join_disagreement_becomes_half(self):
        a = PackedStructure()
        ua = a.new_node()
        a.set("a", (ua,), TRUE3)
        a.nullary["flag"] = TRUE3
        b = PackedStructure()
        ub = b.new_node()
        b.set("a", (ub,), TRUE3)
        b.nullary["flag"] = FALSE3
        joined = PackedStructure.join(a, b, ["a"])
        assert joined.nullary["flag"] is HALF
        assert len(joined.nodes) == 1


class TestEngineMechanics:
    def _tiny_program(self):
        tvp = TvpProgram("tiny", 0, 2)
        tvp.declare(PredicateDecl("flag", 0))
        tvp.add_edge(
            0, 1, Action(updates=(Update("flag", (), PredAtom("true_")),))
        )
        return tvp

    def test_check_definitely_false_alarm_definite(self):
        tvp = TvpProgram("t", 0, 1)
        tvp.declare(PredicateDecl("bad", 0))
        tvp.initially_true_nullary = ["bad"]  # type: ignore[attr-defined]
        tvp.add_edge(
            0, 1,
            Action(checks=(Check(1, 10, "op", neg(PredAtom("bad"))),)),
        )
        result = TvlaEngine(tvp, mode="relational").run()
        assert len(result.report.alarms) == 1
        assert result.report.alarms[0].definite

    def test_pruning_assumes_check_passed(self):
        tvp = TvpProgram("t", 0, 2)
        tvp.declare(PredicateDecl("bad", 0))
        # bad starts 1/2 via an update from an unknown
        tvp.declare(PredicateDecl("unknown", 0))
        tvp.initially_true_nullary = []  # type: ignore[attr-defined]
        tvp.add_edge(
            0, 1,
            Action(checks=(Check(1, 10, "op", neg(PredAtom("bad"))),)),
        )
        tvp.add_edge(
            1, 2,
            Action(checks=(Check(2, 11, "op", neg(PredAtom("bad"))),)),
        )
        result = TvlaEngine(tvp, mode="relational").run()
        assert not result.report.alarms  # bad is definitely 0 throughout

    def test_new_node_materializes(self):
        tvp = TvpProgram("t", 0, 1)
        tvp.declare(PredicateDecl("pt", 1, abstraction=True))
        tvp.add_edge(
            0, 1,
            Action(
                new_var="n",
                updates=(
                    Update("pt", ("v",), eq(Base("v"), Base("n"))),
                ),
            ),
        )
        engine = TvlaEngine(tvp, mode="relational")
        result = engine.run()
        assert result.report.certified


@pytest.mark.parametrize("bench", heap_programs(), ids=lambda b: b.name)
@pytest.mark.parametrize("mode", ["relational", "independent"])
def test_hcmp_sound_and_exact_on_heap_suite(
    bench, mode, cmp_specification, cmp_abstraction
):
    program = parse_program(bench.source, cmp_specification)
    truth = explore(program)
    inlined = inline_program(program)
    tvp = specialized_translation(inlined, cmp_abstraction)
    result = TvlaEngine(tvp, mode=mode).run()
    summary = truth.compare(result.report.alarm_sites())
    assert summary.sound, f"{bench.name}: missed {summary.missed_sites}"
    assert summary.false_alarms == 0, (
        f"{bench.name}: false alarms {summary.false_alarm_sites}"
    )


def test_modes_agree_on_heap_suite(cmp_specification, cmp_abstraction):
    """Section 7's finding: relational buys no precision here."""
    for bench in heap_programs():
        program = parse_program(bench.source, cmp_specification)
        inlined = inline_program(program)
        tvp = specialized_translation(inlined, cmp_abstraction)
        relational = TvlaEngine(tvp, mode="relational").run()
        independent = TvlaEngine(tvp, mode="independent").run()
        assert (
            relational.report.alarm_sites()
            == independent.report.alarm_sites()
        ), bench.name


def test_specialized_translation_predicates(
    cmp_specification, cmp_abstraction
):
    bench = by_name("holder_invalidate")
    program = parse_program(bench.source, cmp_specification)
    inlined = inline_program(program)
    tvp = specialized_translation(inlined, cmp_abstraction)
    names = set(tvp.predicates)
    # client-heap core predicates (Fig. 9 style)
    assert any(n.startswith("pt[") for n in names)
    assert any(n.startswith("cls[") for n in names)
    # field-slot instrumentation predicates (Fig. 10 style): unary stale
    # over the Holder.it slot
    field_preds = [n for n in names if ".Holder.it" in n]
    assert field_preds
    arities = {tvp.predicates[n].arity for n in field_preds}
    assert 1 in arities
