"""The bit-plane state kernel against its dict-of-tuples oracle.

Differential property tests: a :class:`PackedStructure` built from any
oracle :class:`~tests.structure_oracle.ThreeValuedStructure` must be
observationally identical — same ``get`` tables, same formula
valuations, same join, and the same canonical-abstraction partition.
Suite-wide certificate bytes are pinned separately by
``tests/test_golden_certs.py``.
"""

import pickle
import random

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


def random_formula(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return PredAtom(rng.choice(NULLARY_PREDS), ())
        if kind == 1:
            return PredAtom(rng.choice(UNARY_PREDS), (rng.choice("vw"),))
        return PredAtom(
            rng.choice(BINARY_PREDS), (rng.choice("vw"), rng.choice("vw"))
        )
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    if kind == 1:
        return And(
            (random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        )
    if kind == 2:
        return Or(
            (random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        )
    if kind == 3:
        return Exists(rng.choice("vw"), random_formula(rng, depth - 1))
    return Forall(rng.choice("vw"), random_formula(rng, depth - 1))


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


class TestUpdatePlane:
    def test_plane_evaluation_matches_per_tuple(self):
        """Bulk plane evaluation of an update rhs must agree with
        per-tuple formula evaluation at every argument tuple."""
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            arity = rng.choice((1, 2))
            variables = ("v",) if arity == 1 else ("v", "w")
            formula = random_formula(rng, depth=2)
            plane = compile_update_plane(formula, variables)
            if plane is None:
                continue
            if any(name not in variables for name in plane.free_vars):
                continue  # outer bindings are covered by engine tests
            dense = random_dense(rng, max_nodes=4)
            packed = to_packed(dense)
            slots = [0] * plane.num_slots
            t_plane, h_plane = evaluate_update_plane(packed, plane, slots)
            shift = packed._shift
            for v_node in dense.nodes:
                tuples = (
                    [(v_node,)]
                    if arity == 1
                    else [(v_node, w_node) for w_node in dense.nodes]
                )
                for args in tuples:
                    env = dict(zip(variables, args))
                    expected = dense.eval(formula, env)
                    bit = (
                        1 << args[0]
                        if arity == 1
                        else 1 << ((args[0] << shift) | args[1])
                    )
                    if expected is TRUE3:
                        assert t_plane & bit and not h_plane & bit
                    elif expected is HALF:
                        assert h_plane & bit and not t_plane & bit
                    else:
                        assert not (t_plane | h_plane) & bit
                    checked += 1
        assert checked > 100  # the compiler accepted enough formulas
