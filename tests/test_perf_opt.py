"""Tests for the performance layer: compiled formula evaluation,
structure/transfer memoization, and the reverse-postorder worklist.

The load-bearing property: compiled evaluation on the bit-plane kernel
is *observationally identical* to the recursive Kleene interpreter of
the dict-of-tuples oracle (``tests/structure_oracle.py``) on random
formulas over random 3-valued structures.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CertifySession
from repro.certifier.fds import FdsResult
from repro.certifier.relational import RelationalSolver, StateExplosion
from repro.certifier.transform import ClientTransformer
from repro.lang import parse_program
from repro.lang.inline import inline_program
from repro.logic.compile import CompileError
from repro.logic.formula import (
    And,
    EqAtom,
    Exists,
    Forall,
    Not,
    Or,
    PredAtom,
    Truth,
)
from repro.logic.kleene import FALSE3, HALF, TRUE3
from repro.logic.packed import (
    PackedStructure,
    compile_packed_formula,
    compile_update_plane,
)
from repro.logic.terms import Base, Field
from repro.suite import all_programs
from repro.tvla.engine import TvlaEngine
from repro.tvp.program import Action, Check, TvpProgram, Update
from repro.util.worklist import PriorityWorklist, reverse_postorder
from tests.structure_oracle import ThreeValuedStructure, to_packed

# -- compiled ≡ interpreted on random formulas × structures -------------------

_KLEENE = st.sampled_from([FALSE3, HALF, TRUE3])

_LEAVES = st.sampled_from(
    [
        Truth(True),
        Truth(False),
        PredAtom("n0"),
        PredAtom("n1"),
        PredAtom("u0", ("x",)),
        PredAtom("u0", ("y",)),
        PredAtom("u1", ("x",)),
        PredAtom("b0", ("x", "y")),
        PredAtom("b0", ("y", "x")),
        EqAtom(Base("x"), Base("y")),
        EqAtom(Base("x"), Base("x")),
    ]
)


def _formulas():
    return st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(
                lambda v, b: Exists(v, b),
                st.sampled_from(["x", "y", "z"]),
                children,
            ),
            st.builds(
                lambda v, b: Forall(v, b),
                st.sampled_from(["x", "y", "z"]),
                children,
            ),
        ),
        max_leaves=10,
    )


@st.composite
def _structures(draw):
    s = ThreeValuedStructure()
    count = draw(st.integers(min_value=1, max_value=3))
    nodes = [
        s.new_node(summary=draw(st.booleans())) for _ in range(count)
    ]
    for pred in ("n0", "n1"):
        value = draw(_KLEENE)
        if value is not FALSE3:
            s.nullary[pred] = value
    for pred in ("u0", "u1"):
        for node in nodes:
            value = draw(_KLEENE)
            if value is not FALSE3:
                s.unary.setdefault(pred, {})[node] = value
    for left in nodes:
        for right in nodes:
            value = draw(_KLEENE)
            if value is not FALSE3:
                s.binary.setdefault("b0", {})[(left, right)] = value
    return s


class TestCompiledEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        formula=_formulas(),
        structure=_structures(),
        xi=st.integers(min_value=0, max_value=2),
        yi=st.integers(min_value=0, max_value=2),
    )
    def test_compiled_matches_interpreter(
        self, formula, structure, xi, yi
    ):
        nodes = structure.nodes
        env = {
            "x": nodes[xi % len(nodes)],
            "y": nodes[yi % len(nodes)],
        }
        interpreted = structure._eval(formula, dict(env))
        packed = to_packed(structure)  # nodes are 0..n-1: ids carry over
        assert packed.eval(formula, env) is interpreted

    def test_intern_shares_compiled_evaluator(self):
        f1 = Exists("x", PredAtom("u0", ("x",)))
        f2 = Exists("x", PredAtom("u0", ("x",)))
        assert f1 is not f2
        assert compile_packed_formula(f1) is compile_packed_formula(f2)

    @pytest.mark.parametrize(
        "bad",
        [
            EqAtom(Field(Base("x"), "f"), Base("y")),
            PredAtom("q", ("x", "y", "z")),
        ],
        ids=["field-equality", "ternary-atom"],
    )
    def test_uncompilable_formula_raises_compile_error(self, bad):
        # both are outside the TVP logic: each compiler rejects them
        # when they are compiled, and evaluation has no other path
        structure = PackedStructure()
        structure.new_node()
        with pytest.raises(CompileError):
            compile_packed_formula(bad)
        with pytest.raises(CompileError):
            compile_update_plane(bad, ("x", "y"))
        with pytest.raises(CompileError):
            structure.eval(bad, {"x": 0, "y": 0, "z": 0})

    @pytest.mark.parametrize("variables", [(), ("v", "v"), ("u", "v", "w")])
    def test_plane_compiler_rejects_bad_update_variables(self, variables):
        with pytest.raises(CompileError):
            compile_update_plane(PredAtom("u0", ("v",)), variables)


class TestEngineConstruction:
    """``TvlaEngine`` resolves the evaluators of every action it will
    run when it is built, so a bad check or update fails before any
    fixpoint; focus formulas are only read for their atom's name and
    are not compiled."""

    @staticmethod
    def _tvp(action):
        tvp = TvpProgram("bad", 0, 1)
        tvp.add_edge(0, 1, action)
        return tvp

    @pytest.mark.parametrize(
        "action",
        [
            Action(checks=(Check(1, 1, "op", PredAtom("q", ("x", "y", "z"))),)),
            Action(updates=(Update("p", (), PredAtom("q", ("x", "y", "z"))),)),
            Action(
                updates=(
                    Update(
                        "r",
                        ("v", "w"),
                        EqAtom(Field(Base("v"), "f"), Base("w")),
                    ),
                )
            ),
        ],
        ids=["check", "nullary-update", "binary-update"],
    )
    def test_bad_formula_fails_at_engine_construction(self, action):
        with pytest.raises(CompileError):
            TvlaEngine(self._tvp(action))

    def test_focus_formulas_are_not_compiled(self):
        action = Action(
            focus=(PredAtom("q", ("x", "y", "z")),),
            updates=(Update("u0", ("v",), Not(PredAtom("u0", ("v",)))),),
        )
        checks, updates = TvlaEngine(self._tvp(action))._evaluators[
            id(action)
        ]
        assert checks == () and len(updates) == 1


# -- canonical-key memoization ------------------------------------------------


class TestCanonicalKeyCache:
    def _structure(self):
        s = PackedStructure()
        node = s.new_node()
        s.set("a", (node,), TRUE3)
        return s, node

    def test_key_is_cached_and_invalidated_by_set(self):
        s, node = self._structure()
        key = s.canonical_key(["a"])
        assert s.canonical_key(["a"]) == key
        assert s._ckey_cache  # memoized
        s.set("a", (node,), HALF)
        assert not s._ckey_cache  # dirtied
        assert s.canonical_key(["a"]) != key

    def test_new_node_invalidates(self):
        s, _ = self._structure()
        before = s.canonical_key(["a"])
        s.new_node()
        assert s.canonical_key(["a"]) != before

    def test_copy_does_not_share_cache(self):
        s, node = self._structure()
        s.canonical_key(["a"])
        clone = s.copy()
        # mutating the copy-on-write clone must leave the original's
        # memoized key (and tables) untouched
        clone.set("a", (node,), HALF)
        assert clone.canonical_key(["a"]) != s.canonical_key(["a"])
        assert s.get("a", (node,)) is TRUE3


# -- worklist primitives ------------------------------------------------------


class TestWorklists:
    def test_reverse_postorder_linear_chain(self):
        succ = {0: [1], 1: [2], 2: []}
        rpo = reverse_postorder(0, lambda n: succ[n])
        assert rpo == {0: 0, 1: 1, 2: 2}

    def test_priority_pops_in_rpo_order(self):
        succ = {0: [1, 2], 1: [3], 2: [3], 3: []}
        rpo = reverse_postorder(0, lambda n: succ[n])
        wl = PriorityWorklist(rpo)
        for node in (3, 2, 0, 1):
            wl.push(node)
        popped = [wl.pop() for _ in range(len(wl))]
        assert popped == sorted(popped, key=lambda n: rpo[n])

    def test_dedup(self):
        wl = PriorityWorklist({1: 0})
        wl.push(1)
        wl.push(1)
        assert len(wl) == 1
        assert wl.pop() == 1
        assert not wl


# -- transfer memoization -----------------------------------------------------


class TestTransferMemoization:
    def test_second_run_replays_transfers(self, cmp_specification):
        session = CertifySession(
            cmp_specification, engine="tvla-relational"
        )
        bench = next(
            b for b in all_programs() if b.name == "holders_loop"
        )
        program = parse_program(bench.source, cmp_specification)
        first = session.certify_program(program)
        second = session.certify_program(program)
        assert second.stats["transfer_misses"] == 0
        assert second.stats["transfer_hits"] > 0
        assert [
            (a.site_id, a.op_key, a.instance, a.definite)
            for a in second.alarms
        ] == [
            (a.site_id, a.op_key, a.instance, a.definite)
            for a in first.alarms
        ]


# -- satellite regressions ----------------------------------------------------


class TestSatellites:
    def test_fds_result_provenance_defaults_to_fresh_dict(self):
        a = FdsResult(None, {}, {}, [], 0)
        b = FdsResult(None, {}, {}, [], 0)
        assert a.provenance == {}
        a.provenance[(0, 0)] = ("x",)
        assert b.provenance == {}  # no shared mutable default

    def test_state_explosion_reports_pre_overflow_count(
        self, cmp_specification, cmp_abstraction
    ):
        bench = next(
            b for b in all_programs() if b.name == "diamond_join"
        )
        program = parse_program(bench.source, cmp_specification)
        boolprog = ClientTransformer(
            program, cmp_abstraction
        ).transform_inlined(inline_program(program))
        solver = RelationalSolver(state_budget=1)
        with pytest.raises(StateExplosion) as excinfo:
            solver.solve(boolprog)
        message = str(excinfo.value)
        assert "pre-overflow count" in message
        assert "in-degree" in message
        assert "> budget 1" in message


# -- bench comparison mode ----------------------------------------------------


class TestBenchComparison:
    def test_cli_bench_precision_json(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "table.json"
        code = main(
            [
                "bench",
                "--programs",
                "fig3",
                "--engines",
                "fds",
                "--json",
                str(out),
                "--check",
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "precision"
        assert payload["programs"][0]["engines"]["fds"]["sound"]
