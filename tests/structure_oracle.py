"""Dict-of-tuples 3-valued structures: the differential oracle for the
bit-plane kernel (:class:`repro.logic.packed.PackedStructure`).

Every predicate is a plain ``Dict[tuple, Kleene]`` and every operation is
the direct textbook algorithm — formula evaluation is the recursive
Kleene interpreter, canonical abstraction folds tables entry by entry,
and the canonical key is a tuple of frozensets.  The TVLA engine used
this representation before the packed kernel replaced it; the property
tests compare the two on random structures and formulas
(``tests/test_packed.py``).  :func:`to_packed` converts an oracle
structure into the kernel's representation, and :func:`to_json` is the
reference for the certificate serialization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.formula import (
    And,
    EqAtom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    PredAtom,
    Truth,
)
from repro.logic.kleene import FALSE3, HALF, Kleene, TRUE3, kleene_join
from repro.logic.packed import PackedStructure
from repro.logic.terms import Base

_EMPTY_TABLE: Dict = {}


class ThreeValuedStructure:
    """A mutable 3-valued structure; sparse (absent tuples are 0)."""

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.summary: Dict[int, bool] = {}
        self.nullary: Dict[str, Kleene] = {}
        self.unary: Dict[str, Dict[int, Kleene]] = {}
        self.binary: Dict[str, Dict[Tuple[int, int], Kleene]] = {}
        self._next = 0
        #: memoized canonical_key per abstraction-pred tuple; cleared by
        #: every mutation that goes through :meth:`set` / :meth:`new_node`
        #: (callers mutating tables directly must call :meth:`dirty`)
        self._ckey_cache: Dict[Tuple[str, ...], tuple] = {}

    # -- universe ----------------------------------------------------------------

    def dirty(self) -> None:
        """Invalidate memoized canonical keys after a direct mutation."""
        if self._ckey_cache:
            self._ckey_cache = {}

    def new_node(self, summary: bool = False) -> int:
        node = self._next
        self._next += 1
        self.nodes.append(node)
        self.summary[node] = summary
        self.dirty()
        return node

    def copy(self) -> "ThreeValuedStructure":
        clone = ThreeValuedStructure()
        clone.nodes = list(self.nodes)
        clone.summary = dict(self.summary)
        clone.nullary = dict(self.nullary)
        clone.unary = {p: dict(m) for p, m in self.unary.items()}
        clone.binary = {p: dict(m) for p, m in self.binary.items()}
        clone._next = self._next
        return clone

    # -- values ------------------------------------------------------------------

    def get(self, pred: str, args: Tuple[int, ...]) -> Kleene:
        if len(args) == 0:
            return self.nullary.get(pred, FALSE3)
        if len(args) == 1:
            return self.unary.get(pred, {}).get(args[0], FALSE3)
        return self.binary.get(pred, {}).get(args, FALSE3)  # type: ignore[arg-type]

    def set(self, pred: str, args: Tuple[int, ...], value: Kleene) -> None:
        self.dirty()
        if len(args) == 0:
            self.nullary[pred] = value
            return
        if len(args) == 1:
            table = self.unary.setdefault(pred, {})
            if value is FALSE3:
                table.pop(args[0], None)
            else:
                table[args[0]] = value
            return
        table2 = self.binary.setdefault(pred, {})
        if value is FALSE3:
            table2.pop(args, None)  # type: ignore[arg-type]
        else:
            table2[args] = value  # type: ignore[index]

    # -- evaluation -----------------------------------------------------------------

    def eval(self, formula: Formula, env: Optional[Dict[str, int]] = None) -> Kleene:
        return self._eval(formula, env or {})

    def _eval(self, formula: Formula, env: Dict[str, int]) -> Kleene:
        if isinstance(formula, Truth):
            return TRUE3 if formula.value else FALSE3
        if isinstance(formula, PredAtom):
            args = tuple(env[a] for a in formula.args)
            return self.get(formula.name, args)
        if isinstance(formula, EqAtom):
            lhs = self._term_node(formula.lhs, env)
            rhs = self._term_node(formula.rhs, env)
            if lhs != rhs:
                return FALSE3
            return HALF if self.summary.get(lhs, False) else TRUE3
        if isinstance(formula, Not):
            return self._eval(formula.body, env).logical_not()
        if isinstance(formula, And):
            result = TRUE3
            for arg in formula.args:
                result = result.logical_and(self._eval(arg, env))
                if result is FALSE3:
                    return result
            return result
        if isinstance(formula, Or):
            result = FALSE3
            for arg in formula.args:
                result = result.logical_or(self._eval(arg, env))
                if result is TRUE3:
                    return result
            return result
        if isinstance(formula, Exists):
            result = FALSE3
            for node in self.nodes:
                value = self._eval(
                    formula.body, {**env, formula.var: node}
                )
                result = result.logical_or(value)
                if result is TRUE3:
                    return result
            return result
        if isinstance(formula, Forall):
            result = TRUE3
            for node in self.nodes:
                value = self._eval(
                    formula.body, {**env, formula.var: node}
                )
                result = result.logical_and(value)
                if result is FALSE3:
                    return result
            return result
        raise TypeError(f"unknown formula node {formula!r}")

    def _term_node(self, term, env: Dict[str, int]) -> int:
        if isinstance(term, Base):
            return env[term.name]
        raise TypeError(
            "3-valued equality supports logical variables only; got "
            f"{term!r}"
        )

    # -- node bifurcation (focus) -------------------------------------------------------

    def duplicate_node(self, node: int) -> int:
        """Bifurcate a summary node: the clone inherits every predicate
        value (including pairs with the original and itself)."""
        clone = self.new_node(summary=True)
        self.dirty()  # tables are mutated directly below
        for table in self.unary.values():
            if node in table:
                table[clone] = table[node]
        for table2 in self.binary.values():
            for (n1, n2), value in list(table2.items()):
                if n1 == node and n2 == node:
                    table2[(clone, clone)] = value
                    table2[(clone, node)] = value
                    table2[(node, clone)] = value
                elif n1 == node:
                    table2[(clone, n2)] = value
                elif n2 == node:
                    table2[(n1, clone)] = value
        return clone

    # -- canonical abstraction ----------------------------------------------------------

    def canonical_vector(
        self, node: int, abstraction_preds: List[str]
    ) -> Tuple[Kleene, ...]:
        unary = self.unary
        return tuple(
            unary.get(p, _EMPTY_TABLE).get(node, FALSE3)
            for p in abstraction_preds
        )

    def canonicalize(
        self, abstraction_preds: List[str]
    ) -> "ThreeValuedStructure":
        """Merge individuals with identical abstraction vectors.

        Sparse: predicate tables are folded entry-by-entry; absent
        tuples contribute an implicit 0, accounted for by comparing the
        number of folded entries against the size of each merged block.
        """
        groups: Dict[Tuple[Kleene, ...], List[int]] = {}
        for node in self.nodes:
            groups.setdefault(
                self.canonical_vector(node, abstraction_preds), []
            ).append(node)
        if len(groups) == len(self.nodes):
            return self  # every vector distinct: already canonical
        result = ThreeValuedStructure()
        mapping: Dict[int, int] = {}
        group_size: Dict[int, int] = {}
        for vector in sorted(
            groups, key=lambda vec: tuple(v._value_ for v in vec)
        ):
            members = groups[vector]
            merged_summary = len(members) > 1 or any(
                self.summary[m] for m in members
            )
            new = result.new_node(merged_summary)
            group_size[new] = len(members)
            for member in members:
                mapping[member] = new
        for pred, value in self.nullary.items():
            result.nullary[pred] = value
        for pred, table in self.unary.items():
            folded: Dict[int, Kleene] = {}
            counts: Dict[int, int] = {}
            for node, value in table.items():
                new = mapping[node]
                prior = folded.get(new)
                folded[new] = value if prior is None else prior.join(value)
                counts[new] = counts.get(new, 0) + 1
            out = {}
            for new, value in folded.items():
                if counts[new] < group_size[new]:
                    value = value.join(FALSE3)  # an implicit-0 member
                if value is not FALSE3:
                    out[new] = value
            if out:
                result.unary[pred] = out
        for pred, table in self.binary.items():
            folded2: Dict[Tuple[int, int], Kleene] = {}
            counts2: Dict[Tuple[int, int], int] = {}
            for (n1, n2), value in table.items():
                key = (mapping[n1], mapping[n2])
                prior = folded2.get(key)
                folded2[key] = (
                    value if prior is None else prior.join(value)
                )
                counts2[key] = counts2.get(key, 0) + 1
            out2 = {}
            for key, value in folded2.items():
                if counts2[key] < group_size[key[0]] * group_size[key[1]]:
                    value = value.join(FALSE3)
                if value is not FALSE3:
                    out2[key] = value
            if out2:
                result.binary[pred] = out2
        return result

    # -- canonical naming / comparison ------------------------------------------------------

    def canonical_key(self, abstraction_preds: List[str]):
        """A hashable key identifying the structure up to renaming of
        individuals with distinct abstraction vectors.  Structures must be
        canonicalized first (one individual per vector).

        Memoized per abstraction-pred tuple; mutations through
        :meth:`set` / :meth:`new_node` invalidate the cache."""
        cache_key = tuple(abstraction_preds)
        cached = self._ckey_cache.get(cache_key)
        if cached is not None:
            return cached
        key = self._canonical_key(abstraction_preds)
        self._ckey_cache[cache_key] = key
        return key

    def _canonical_key(self, abstraction_preds: List[str]):
        order = sorted(
            self.nodes,
            key=lambda n: (
                tuple(
                    v._value_
                    for v in self.canonical_vector(n, abstraction_preds)
                ),
                self.summary[n],
            ),
        )
        index = {node: i for i, node in enumerate(order)}
        unary_part = frozenset(
            (pred, index[node], value._value_)
            for pred, table in self.unary.items()
            for node, value in table.items()
            if value is not FALSE3
        )
        binary_part = frozenset(
            (pred, index[n1], index[n2], value._value_)
            for pred, table in self.binary.items()
            for (n1, n2), value in table.items()
            if value is not FALSE3
        )
        nullary_part = frozenset(
            (pred, value._value_)
            for pred, value in self.nullary.items()
            if value is not FALSE3
        )
        summary_part = frozenset(
            (index[n], s) for n, s in self.summary.items()
        )
        return (nullary_part, unary_part, binary_part, summary_part)

    # -- join (independent-attribute mode) ------------------------------------------------------

    @staticmethod
    def join(
        a: "ThreeValuedStructure",
        b: "ThreeValuedStructure",
        abstraction_preds: List[str],
    ) -> "ThreeValuedStructure":
        """Information-order join of two canonicalized structures: nodes
        with equal abstraction vectors merge; unmatched nodes are kept.

        The result over-approximates both inputs for the may-queries the
        certifier asks (existentials and nullary reads); this is the
        single-structure "independent attribute" mode of Section 5.5."""
        result = ThreeValuedStructure()
        mapping_a: Dict[int, int] = {}
        mapping_b: Dict[int, int] = {}
        vectors_a = {
            n: a.canonical_vector(n, abstraction_preds) for n in a.nodes
        }
        vectors_b = {
            n: b.canonical_vector(n, abstraction_preds) for n in b.nodes
        }
        by_vector_b: Dict[Tuple[Kleene, ...], int] = {}
        for n, vector in vectors_b.items():
            by_vector_b.setdefault(vector, n)
        matched_b = set()
        for n, vector in sorted(
            vectors_a.items(),
            key=lambda kv: tuple(v._value_ for v in kv[1]),
        ):
            partner = by_vector_b.get(vector)
            if partner is not None and partner not in matched_b:
                matched_b.add(partner)
                new = result.new_node(
                    a.summary[n] or b.summary[partner]
                )
                mapping_a[n] = new
                mapping_b[partner] = new
            else:
                new = result.new_node(a.summary[n])
                mapping_a[n] = new
        for n in b.nodes:
            if n not in mapping_b:
                mapping_b[n] = result.new_node(b.summary[n])
        inverse_a = {new: old for old, new in mapping_a.items()}
        inverse_b = {new: old for old, new in mapping_b.items()}
        for pred in set(a.nullary) | set(b.nullary):
            result.nullary[pred] = a.nullary.get(pred, FALSE3).join(
                b.nullary.get(pred, FALSE3)
            )
        for pred in set(a.unary) | set(b.unary):
            table = result.unary.setdefault(pred, {})
            for node in result.nodes:
                values = []
                if node in inverse_a:
                    values.append(a.get(pred, (inverse_a[node],)))
                if node in inverse_b:
                    values.append(b.get(pred, (inverse_b[node],)))
                value = kleene_join(values)
                if value is not FALSE3:
                    table[node] = value
        for pred in set(a.binary) | set(b.binary):
            table2 = result.binary.setdefault(pred, {})
            for n1 in result.nodes:
                for n2 in result.nodes:
                    values = []
                    if n1 in inverse_a and n2 in inverse_a:
                        values.append(
                            a.get(pred, (inverse_a[n1], inverse_a[n2]))
                        )
                    if n1 in inverse_b and n2 in inverse_b:
                        values.append(
                            b.get(pred, (inverse_b[n1], inverse_b[n2]))
                        )
                    if values:
                        value = kleene_join(values)
                        if value is not FALSE3:
                            table2[(n1, n2)] = value
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"U={[(n, 'sm' if self.summary[n] else '') for n in self.nodes]}"]
        for pred, value in sorted(self.nullary.items()):
            if value is not FALSE3:
                parts.append(f"{pred}={value}")
        for pred, table in sorted(self.unary.items()):
            if table:
                parts.append(f"{pred}={dict(table)}")
        for pred, table in sorted(self.binary.items()):
            if table:
                parts.append(f"{pred}={dict(table)}")
        return "TVS(" + "; ".join(parts) + ")"


def to_packed(structure: ThreeValuedStructure) -> PackedStructure:
    """Pack an oracle structure (node ids renumbered densely)."""
    packed = PackedStructure()
    mapping: Dict[int, int] = {}
    for node in structure.nodes:
        mapping[node] = packed.new_node(structure.summary[node])
    for pred, value in structure.nullary.items():
        packed.set(pred, (), value)
    for pred, table in structure.unary.items():
        for node, value in table.items():
            packed.set(pred, (mapping[node],), value)
    for pred, table2 in structure.binary.items():
        for (n1, n2), value in table2.items():
            packed.set(pred, (mapping[n1], mapping[n2]), value)
    return packed


def to_json(structure: ThreeValuedStructure, preds: List[str]) -> Dict:
    """The certificate serialization of a structure, computed from the
    dict tables: nodes renumbered by a stable sort on (canonical vector,
    summary bit), explicit FALSE entries skipped — what
    :func:`repro.cert.model.structure_to_json` must produce from the
    planes."""
    order = sorted(
        structure.nodes,
        key=lambda n: (
            tuple(v._value_ for v in structure.canonical_vector(n, preds)),
            structure.summary[n],
        ),
    )
    index = {node: i for i, node in enumerate(order)}
    return {
        "nodes": len(order),
        "summary": [1 if structure.summary[n] else 0 for n in order],
        "nullary": sorted(
            [pred, value._value_]
            for pred, value in structure.nullary.items()
            if value is not FALSE3
        ),
        "unary": sorted(
            [pred, index[node], value._value_]
            for pred, table in structure.unary.items()
            for node, value in table.items()
            if value is not FALSE3
        ),
        "binary": sorted(
            [pred, index[n1], index[n2], value._value_]
            for pred, table in structure.binary.items()
            for (n1, n2), value in table.items()
            if value is not FALSE3
        ),
    }
