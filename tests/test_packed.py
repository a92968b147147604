"""The bit-plane state kernel against its dict-of-tuples oracle.

Differential property tests: a :class:`PackedStructure` built from any
oracle :class:`~tests.structure_oracle.ThreeValuedStructure` must be
observationally identical — same ``get`` tables, same formula
valuations, same join, and the same canonical-abstraction partition.
Suite-wide certificate bytes are pinned separately by
``tests/test_golden_certs.py``.
"""

import itertools
import pickle
import random

import pytest

from repro.cert.model import structure_to_json
from repro.logic.formula import (
    And,
    Exists,
    Forall,
    Not,
    Or,
    PredAtom,
)
from repro.logic.kleene import FALSE3, HALF, TRUE3
from repro.logic.packed import (
    PackedKey,
    PackedStructure,
    compile_update_plane,
    evaluate_update_plane,
)
from tests.structure_oracle import ThreeValuedStructure, to_packed
from tests.structure_oracle import to_json as oracle_json

VALUES = (FALSE3, HALF, TRUE3)
UNARY_PREDS = ("a", "b", "c")
BINARY_PREDS = ("r", "s")
NULLARY_PREDS = ("p", "q")


def random_dense(rng, max_nodes=6):
    """A random dense structure with mixed arities and summary nodes."""
    structure = ThreeValuedStructure()
    nodes = [
        structure.new_node(summary=rng.random() < 0.3)
        for _ in range(rng.randrange(0, max_nodes + 1))
    ]
    for pred in NULLARY_PREDS:
        structure.set(pred, (), rng.choice(VALUES))
    for pred in UNARY_PREDS:
        for node in nodes:
            structure.set(pred, (node,), rng.choice(VALUES))
    for pred in BINARY_PREDS:
        for left in nodes:
            for right in nodes:
                if rng.random() < 0.4:
                    structure.set(
                        pred, (left, right), rng.choice(VALUES)
                    )
    return structure


def renumbered_packed(dense, rng):
    """``dense`` packed with its nodes numbered in a random order."""
    order = list(dense.nodes)
    rng.shuffle(order)
    packed = PackedStructure()
    mapping = {node: packed.new_node(dense.summary[node]) for node in order}
    for pred, value in dense.nullary.items():
        packed.set(pred, (), value)
    for pred, table in dense.unary.items():
        for node, value in table.items():
            packed.set(pred, (mapping[node],), value)
    for pred, table in dense.binary.items():
        for (left, right), value in table.items():
            packed.set(pred, (mapping[left], mapping[right]), value)
    return packed


def random_formula(rng, depth=3, names="vw"):
    """A random formula over variables ``names`` (free or bound)."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return PredAtom(rng.choice(NULLARY_PREDS), ())
        if kind == 1:
            return PredAtom(rng.choice(UNARY_PREDS), (rng.choice(names),))
        return PredAtom(
            rng.choice(BINARY_PREDS), (rng.choice(names), rng.choice(names))
        )
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, names))
    if kind == 1:
        return And(
            (
                random_formula(rng, depth - 1, names),
                random_formula(rng, depth - 1, names),
            )
        )
    if kind == 2:
        return Or(
            (
                random_formula(rng, depth - 1, names),
                random_formula(rng, depth - 1, names),
            )
        )
    if kind == 3:
        return Exists(rng.choice(names), random_formula(rng, depth - 1, names))
    return Forall(rng.choice(names), random_formula(rng, depth - 1, names))


def assert_same_tables(dense, packed):
    assert list(packed.nodes) == list(dense.nodes)
    assert {n: bool(packed.summary[n]) for n in packed.nodes} == {
        n: bool(dense.summary[n]) for n in dense.nodes
    }
    for pred in NULLARY_PREDS:
        assert packed.get(pred, ()) is dense.get(pred, ())
    for pred in UNARY_PREDS:
        for node in dense.nodes:
            assert packed.get(pred, (node,)) is dense.get(pred, (node,))
    for pred in BINARY_PREDS:
        for left in dense.nodes:
            for right in dense.nodes:
                assert packed.get(pred, (left, right)) is dense.get(
                    pred, (left, right)
                )


class TestPackedDifferential:
    def test_to_packed_preserves_every_valuation(self):
        rng = random.Random(7)
        for _ in range(40):
            dense = random_dense(rng)
            assert_same_tables(dense, to_packed(dense))

    def test_set_matches_dense_set(self):
        rng = random.Random(11)
        for _ in range(25):
            dense = random_dense(rng)
            packed = to_packed(dense)
            for _ in range(30):
                value = rng.choice(VALUES)
                arity = rng.randrange(3)
                if arity == 0 or not dense.nodes:
                    pred, args = rng.choice(NULLARY_PREDS), ()
                elif arity == 1:
                    pred = rng.choice(UNARY_PREDS)
                    args = (rng.choice(dense.nodes),)
                else:
                    pred = rng.choice(BINARY_PREDS)
                    args = (
                        rng.choice(dense.nodes),
                        rng.choice(dense.nodes),
                    )
                dense.set(pred, args, value)
                packed.set(pred, args, value)
            assert_same_tables(dense, packed)

    def test_eval_agrees_on_random_formulas(self):
        rng = random.Random(13)
        for _ in range(30):
            dense = random_dense(rng, max_nodes=4)
            if not dense.nodes:
                continue  # free variables need a nonempty universe
            packed = to_packed(dense)
            for _ in range(15):
                formula = random_formula(rng)
                env = {
                    "v": rng.choice(dense.nodes),
                    "w": rng.choice(dense.nodes),
                }
                assert packed.eval(formula, dict(env)) is dense.eval(
                    formula, dict(env)
                ), f"disagree on {formula}"

    def test_join_agrees(self):
        rng = random.Random(17)
        preds = list(UNARY_PREDS)
        for _ in range(20):
            dense_a = random_dense(rng, max_nodes=4)
            dense_b = dense_a.copy()
            for _ in range(10):  # perturb b so the join is nontrivial
                if dense_b.nodes:
                    dense_b.set(
                        rng.choice(UNARY_PREDS),
                        (rng.choice(dense_b.nodes),),
                        rng.choice(VALUES),
                    )
            packed_a = to_packed(dense_a)
            packed_b = to_packed(dense_b)
            dense_join = ThreeValuedStructure.join(dense_a, dense_b, preds)
            packed_join = PackedStructure.join(packed_a, packed_b, preds)
            for pred in NULLARY_PREDS:
                assert packed_join.get(pred, ()) is dense_join.get(pred, ())
            for pred in UNARY_PREDS:
                for node in dense_join.nodes:
                    assert packed_join.get(pred, (node,)) is dense_join.get(
                        pred, (node,)
                    )

    def test_canonical_key_partitions_identically(self):
        """Two structures share a dict canonical key iff they share a
        packed canonical key — the memo/state-set partition is the
        representation-independent contract the engine relies on."""
        rng = random.Random(19)
        preds = list(UNARY_PREDS)
        denses = [random_dense(rng, max_nodes=4) for _ in range(30)]
        dict_keys = [
            d.canonicalize(preds).canonical_key(preds) for d in denses
        ]
        packed_keys = [
            to_packed(d)
            .canonicalize(preds)
            .canonical_key(preds)
            for d in denses
        ]
        for i in range(len(denses)):
            for j in range(len(denses)):
                assert (dict_keys[i] == dict_keys[j]) == (
                    packed_keys[i] == packed_keys[j]
                ), f"partition differs on pair ({i}, {j})"

    def test_canonicalize_preserves_valuations(self):
        rng = random.Random(23)
        preds = list(UNARY_PREDS)
        for _ in range(20):
            dense = random_dense(rng, max_nodes=5)
            canonical_dense = dense.canonicalize(preds)
            canonical_packed = to_packed(
                dense
            ).canonicalize(preds)
            assert len(canonical_packed.nodes) == len(canonical_dense.nodes)
            assert canonical_packed.canonical_key(
                preds
            ) == to_packed(
                canonical_dense
            ).canonical_key(preds)


class TestCanonicalKeyFastPath:
    def test_fast_path_equals_recomputed_key(self):
        """The ``_vec_ordered`` fast path must produce the same key as a
        from-scratch blocks walk (the invariant the renumbering
        canonicalize maintains)."""
        rng = random.Random(29)
        preds = list(UNARY_PREDS)
        for _ in range(25):
            packed = to_packed(
                random_dense(rng, max_nodes=5)
            ).canonicalize(preds)
            fast = packed.canonical_key(preds)
            packed._vec_ordered = None
            packed._ckey_cache = {}
            slow = packed.canonical_key(preds)
            assert fast == slow

    def test_copy_propagates_ordering(self):
        rng = random.Random(31)
        preds = list(UNARY_PREDS)
        packed = to_packed(
            random_dense(rng, max_nodes=5)
        ).canonicalize(preds)
        clone = packed.copy()
        assert clone._vec_ordered == packed._vec_ordered
        clone.dirty()
        assert clone._vec_ordered is None
        assert packed._vec_ordered is not None


class TestPackedKey:
    def test_equal_keys_hash_equal(self):
        key_a = PackedKey((1, (2, 3), 4))
        key_b = PackedKey((1, (2, 3), 4))
        assert key_a == key_b
        assert hash(key_a) == hash(key_b)
        assert len({key_a, key_b}) == 1

    def test_distinct_keys_differ(self):
        assert PackedKey((1,)) != PackedKey((2,))

    def test_pickle_roundtrip(self):
        key = PackedKey((1, (2, 3), 4))
        assert pickle.loads(pickle.dumps(key)) == key


def assert_plane_matches(formula, variables, dense, env):
    """Bulk plane evaluation of an update rhs over ``variables`` must
    agree with the oracle's per-tuple evaluation at every argument
    tuple, outer variables bound by ``env``; returns the tuple count."""
    packed = to_packed(dense)
    plane = compile_update_plane(formula, variables)
    t_plane, h_plane = evaluate_update_plane(packed, plane, env)
    shift = packed._shift
    checked = 0
    for args in itertools.product(dense.nodes, repeat=len(variables)):
        expected = dense.eval(formula, {**env, **dict(zip(variables, args))})
        if len(args) == 1:
            bit = 1 << args[0]
        else:
            bit = 1 << ((args[0] << shift) | args[1])
        if expected is TRUE3:
            assert t_plane & bit and not h_plane & bit, formula
        elif expected is HALF:
            assert h_plane & bit and not t_plane & bit, formula
        else:
            assert not (t_plane | h_plane) & bit, formula
        checked += 1
    return checked


class TestUpdatePlane:
    def test_plane_evaluation_matches_per_tuple(self):
        """Every random formula compiles, over one or two update
        variables, with the remaining free variables bound outside —
        including quantifiers that make three variables live under a
        two-variable update and binders that shadow an update
        variable."""
        rng = random.Random(37)
        checked = 0
        for _ in range(200):
            variables = ("v",) if rng.random() < 0.5 else ("v", "w")
            formula = random_formula(rng, depth=3, names="vwx")
            if rng.random() < 0.5:  # a quantifier over the whole rhs
                quantifier = rng.choice((Exists, Forall))
                formula = quantifier(rng.choice("vwx"), formula)
            dense = random_dense(rng, max_nodes=4)
            if not dense.nodes:
                continue  # outer variables need a nonempty universe
            env = {
                name: rng.choice(dense.nodes)
                for name in ("v", "w", "x")
                if name not in variables
            }
            checked += assert_plane_matches(formula, variables, dense, env)
        assert checked > 500

    @pytest.mark.parametrize(
        "formula",
        [
            Exists(
                "x",
                And((PredAtom("r", ("v", "x")), PredAtom("s", ("x", "w")))),
            ),
            Forall(
                "x", Or((PredAtom("r", ("v", "x")), PredAtom("a", ("w",))))
            ),
            And(
                (
                    PredAtom("b", ("w",)),
                    Exists("w", PredAtom("r", ("v", "w"))),
                )
            ),
        ],
        ids=["exists-composition", "forall-third-variable", "shadowing"],
    )
    def test_three_live_variables_under_a_binary_update(self, formula):
        """Quantifiers that make a third variable live under a
        two-variable update: a binder beside both update variables, and
        a binder shadowing one of them."""
        rng = random.Random(41)
        for _ in range(20):
            dense = random_dense(rng, max_nodes=5)
            assert_plane_matches(formula, ("v", "w"), dense, {})
            assert_plane_matches(formula, ("w", "v"), dense, {})


class TestStructureJson:
    @pytest.mark.parametrize(
        "preds", [[], ["a"], ["a", "b"], list(UNARY_PREDS)], ids=len
    )
    def test_serialization_matches_the_oracle_order(self, preds):
        """``structure_to_json`` reads the planes in block order; on
        uncanonicalized structures it must still equal the oracle's
        stable sort on (canonical vector, summary bit) — several nodes
        per vector, ties on the summary bit included."""
        rng = random.Random(43 + len(preds))
        shared = summary_ties = 0
        for _ in range(60):
            dense = random_dense(rng, max_nodes=8)
            assert structure_to_json(to_packed(dense), preds) == (
                oracle_json(dense, preds)
            )
            keys = [
                (dense.canonical_vector(n, preds), dense.summary[n])
                for n in dense.nodes
            ]
            shared += len({k[0] for k in keys}) < len(keys)
            summary_ties += len(set(keys)) < len(keys)
        assert shared >= 5 and summary_ties >= 5, (shared, summary_ties)

    def test_equal_canonical_keys_serialize_equally(self):
        """Certificate emission serializes one structure per canonical
        key, in both TVLA modes: structures with equal keys must
        serialize equally, whatever their node numbering and whether or
        not they were canonicalized."""
        rng = random.Random(53)
        preds = ["a", "b"]
        by_key = {}
        for _ in range(400):
            dense = random_dense(rng, max_nodes=3)
            plain = to_packed(dense)
            for structure in (
                plain,
                renumbered_packed(dense, rng),
                plain.canonicalize(preds),
            ):
                by_key.setdefault(structure.canonical_key(preds), []).append(
                    (structure_to_json(structure, preds), structure)
                )
        renamed = 0
        for members in by_key.values():
            first_json, first = members[0]
            assert all(json_ == first_json for json_, _ in members)
            renamed += any(
                (other.u_t, other.u_h, other.b_t, other.b_h)
                != (first.u_t, first.u_h, first.b_t, first.b_h)
                for _, other in members
            )
        # the keys really do equate differently numbered structures
        assert renamed >= 50, renamed

    def test_canonicalized_structures_keep_their_numbering(self):
        """After ``canonicalize`` the canonical order is the identity,
        which the canonical key's fast path relies on."""
        rng = random.Random(47)
        preds = list(UNARY_PREDS)
        for _ in range(40):
            packed = to_packed(random_dense(rng, max_nodes=7))
            canonical = packed.canonicalize(preds)
            assert canonical.canonical_order(preds) == list(
                range(len(canonical.nodes))
            )


class TestArity:
    def test_ternary_tuples_are_refused_not_aliased(self):
        """The planes hold arities 0-2; a ternary tuple used to be read
        and written as its first two nodes."""
        structure = PackedStructure()
        a, b, c = (structure.new_node() for _ in range(3))
        with pytest.raises(ValueError):
            structure.set("q", (a, b, c), TRUE3)
        with pytest.raises(ValueError):
            structure.get("q", (a, b, c))
        assert structure.get("q", (a, b)) is FALSE3
        structure.set("q", (a, b), TRUE3)
        with pytest.raises(ValueError):
            structure.get("q", (a, b, c))
        assert structure.get("q", (a, b)) is TRUE3
