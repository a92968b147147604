"""Tests for the client → boolean-program transformation (Fig. 6)."""

import pytest

from repro.certifier.boolprog import Instance
from repro.certifier.transform import (
    ClientTransformer,
    TransformError,
    family_mentions_mutable_field,
)
from repro.derivation.predicates import reflexively_true
from repro.lang import parse_program

FIG3 = """
class Main {
  static void main() {
    Set v = new Set();
    Iterator i1 = v.iterator();
    Iterator i2 = v.iterator();
    Iterator i3 = i1;
    i1.next();
    i1.remove();
    if (?) { i2.next(); }
    if (?) { i3.next(); }
    v.add("x");
    if (?) { i1.next(); }
  }
}
"""


@pytest.fixture
def boolprog(cmp_specification, cmp_abstraction):
    program = parse_program(FIG3, cmp_specification)
    return ClientTransformer(program, cmp_abstraction).transform_method(
        "Main.main"
    )


def alias(abstraction, name):
    names = abstraction.pretty_names()
    return next(k for k, v in names.items() if v == name)


class TestInstanceUniverse:
    def test_variable_count_matches_families(
        self, boolprog, cmp_abstraction
    ):
        # 3 iterators + 1 set: stale:3, iterof:3, mutx:9, same:1 = 16
        assert boolprog.num_vars == 16

    def test_reflexive_same_initially_true(self, boolprog, cmp_abstraction):
        same = alias(cmp_abstraction, "same")
        index = boolprog.lookup(Instance(same, ("v", "v")))
        assert index in boolprog.initially_true

    def test_stale_initially_false(self, boolprog, cmp_abstraction):
        stale = alias(cmp_abstraction, "stale")
        index = boolprog.lookup(Instance(stale, ("i1",)))
        assert index is not None and index not in boolprog.initially_true


class TestEdges:
    def test_remove_emits_check_and_updates(
        self, boolprog, cmp_abstraction
    ):
        stale = alias(cmp_abstraction, "stale")
        mutx = alias(cmp_abstraction, "mutx")
        remove_edges = [
            e
            for e in boolprog.edges
            if any(c.op_key == "Iterator.remove" for c in e.checks)
        ]
        assert len(remove_edges) == 1
        edge = remove_edges[0]
        check_instance = boolprog.instance(edge.checks[0].var)
        assert check_instance == Instance(stale, ("i1",))
        # stale[i2] := stale[i2] | mutx[...i1...]
        target = boolprog.lookup(Instance(stale, ("i2",)))
        assign = next(a for a in edge.assigns if a.target == target)
        source_instances = {
            boolprog.instance(s) for s in assign.sources
        }
        assert Instance(stale, ("i2",)) in source_instances
        assert any(
            i.family == mutx and set(i.args) == {"i1", "i2"}
            for i in source_instances
        )

    def test_copy_assignment_transfers_instances(
        self, boolprog, cmp_abstraction
    ):
        stale = alias(cmp_abstraction, "stale")
        copy_edges = [
            e
            for e in boolprog.edges
            if any(
                boolprog.instance(a.target) == Instance(stale, ("i3",))
                and a.sources
                == (boolprog.lookup(Instance(stale, ("i1",))),)
                for a in e.assigns
            )
        ]
        assert copy_edges  # the i3 = i1 edge

    def test_identity_updates_skipped(self, boolprog):
        # next() leaves iterof/same untouched: its edge carries only the
        # pruning-relevant updates
        next_edges = [
            e
            for e in boolprog.edges
            if any(c.op_key == "Iterator.next" for c in e.checks)
        ]
        assert next_edges
        for edge in next_edges:
            assert len(edge.assigns) < boolprog.num_vars


class TestGuards:
    def test_heap_client_rejected(self, cmp_specification, cmp_abstraction):
        program = parse_program(
            """
            class H { Iterator it; H() { } }
            class Main {
              static void main() {
                Set v = new Set();
                H h = new H();
                h.it = v.iterator();
              }
            }
            """,
            cmp_specification,
        )
        transformer = ClientTransformer(program, cmp_abstraction)
        with pytest.raises(TransformError, match="SCMP"):
            transformer.transform_method("Main.main")

    def test_client_call_policy_error(self, cmp_specification, cmp_abstraction):
        program = parse_program(
            """
            class Main {
              static void main() { helper(); }
              static void helper() { }
            }
            """,
            cmp_specification,
        )
        transformer = ClientTransformer(program, cmp_abstraction)
        with pytest.raises(TransformError, match="interprocedural"):
            transformer.transform_method("Main.main")

    def test_bad_policy_rejected(self, cmp_specification, cmp_abstraction):
        program = parse_program(FIG3, cmp_specification)
        with pytest.raises(ValueError):
            ClientTransformer(
                program, cmp_abstraction, on_client_call="wat"
            )


class TestHelpers:
    def test_reflexively_true_families(self, cmp_abstraction):
        names = cmp_abstraction.pretty_names()
        for family in cmp_abstraction.families:
            expected = names[family.name] == "same"
            assert reflexively_true(family) == expected
            assert cmp_abstraction.is_reflexive(family.name) == expected
            assert cmp_abstraction.family(family.name) is family

    def test_family_mutability_classification(
        self, cmp_abstraction, cmp_specification
    ):
        names = cmp_abstraction.pretty_names()
        for family in cmp_abstraction.families:
            mutable = family_mentions_mutable_field(
                family, cmp_specification
            )
            assert mutable == (names[family.name] == "stale")
