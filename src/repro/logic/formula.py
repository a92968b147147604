"""Formula AST with smart constructors.

Two atom flavours share the same connective layer:

* :class:`EqAtom` — equality of two access-path :mod:`~repro.logic.terms`.
  These are the atoms of the derivation stage (Section 4.1): candidate
  instrumentation predicates such as ``i.set == v`` are boolean
  combinations of ``EqAtom`` literals.
* :class:`PredAtom` — application of a named first-order predicate to
  logical variables, the atoms of TVP formulae (Section 5.1).

The smart constructors :func:`conj`, :func:`disj`, :func:`neg` flatten
nested connectives, fold constants, and deduplicate operands, which keeps
the weakest-precondition computation from blowing up syntactically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

from repro.logic.terms import Base, Term


class Formula:
    """Base class for all formula nodes."""

    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)


@dataclass(frozen=True)
class Truth(Formula):
    """A propositional constant."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Truth(True)
FALSE = Truth(False)


@dataclass(frozen=True)
class EqAtom(Formula):
    """Equality between two access-path terms.

    Constructed via :func:`eq`, which orders the operands canonically so
    that syntactically-identical atoms compare equal.
    """

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} == {self.rhs}"


@dataclass(frozen=True)
class PredAtom(Formula):
    """Application ``name(args)`` of a first-order predicate.

    ``args`` are logical-variable names (strings).  Nullary predicates
    (the boolean variables of the SCMP abstraction) have ``args == ()``.
    """

    name: str
    args: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(self.args)})"


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def __str__(self) -> str:
        return f"!({self.body})"


@dataclass(frozen=True)
class And(Formula):
    args: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " && ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Or(Formula):
    args: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " || ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def __str__(self) -> str:
        return f"(exists {self.var}: {self.body})"


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula

    def __str__(self) -> str:
        return f"(forall {self.var}: {self.body})"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def _term_key(term: Term) -> str:
    return str(term)


def eq(lhs: Term, rhs: Term) -> Formula:
    """Equality atom with canonical operand order; folds ``t == t``."""
    if lhs == rhs:
        return TRUE
    if _term_key(rhs) < _term_key(lhs):
        lhs, rhs = rhs, lhs
    return EqAtom(lhs, rhs)


def neq(lhs: Term, rhs: Term) -> Formula:
    """Disequality: negated equality atom."""
    return neg(eq(lhs, rhs))


def neg(formula: Formula) -> Formula:
    if formula is TRUE:
        return FALSE
    if formula is FALSE:
        return TRUE
    if isinstance(formula, Not):
        return formula.body
    return Not(formula)


def conj(*formulas: Formula) -> Formula:
    """N-ary conjunction: flattens, folds constants, deduplicates."""
    flat = []
    seen = set()
    for formula in formulas:
        if formula is TRUE:
            continue
        if formula is FALSE:
            return FALSE
        operands = formula.args if isinstance(formula, And) else (formula,)
        for operand in operands:
            if operand is FALSE:
                return FALSE
            if operand is not TRUE and operand not in seen:
                seen.add(operand)
                flat.append(operand)
    for operand in flat:
        if neg(operand) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*formulas: Formula) -> Formula:
    """N-ary disjunction: flattens, folds constants, deduplicates."""
    flat = []
    seen = set()
    for formula in formulas:
        if formula is FALSE:
            continue
        if formula is TRUE:
            return TRUE
        operands = formula.args if isinstance(formula, Or) else (formula,)
        for operand in operands:
            if operand is TRUE:
                return TRUE
            if operand is not FALSE and operand not in seen:
                seen.add(operand)
                flat.append(operand)
    for operand in flat:
        if neg(operand) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return disj(neg(antecedent), consequent)


def ite(cond: Formula, then: Formula, otherwise: Formula) -> Formula:
    """If-then-else as a formula: ``(cond && then) || (!cond && otherwise)``."""
    return disj(conj(cond, then), conj(neg(cond), otherwise))


# ---------------------------------------------------------------------------
# Traversal utilities
# ---------------------------------------------------------------------------


def atoms(formula: Formula) -> Iterator[Formula]:
    """Yield every atom (``EqAtom`` or ``PredAtom``) in ``formula``."""
    stack = [formula]
    seen = set()
    while stack:
        node = stack.pop()
        if isinstance(node, (EqAtom, PredAtom)):
            if node not in seen:
                seen.add(node)
                yield node
        elif isinstance(node, Not):
            stack.append(node.body)
        elif isinstance(node, (And, Or)):
            stack.extend(node.args)
        elif isinstance(node, (Exists, Forall)):
            stack.append(node.body)


def map_atoms(formula: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild ``formula`` with every atom replaced by ``fn(atom)``.

    The replacement may be an arbitrary formula; connectives are rebuilt
    with the smart constructors, so constant folding happens on the way up.
    """
    if isinstance(formula, (EqAtom, PredAtom)):
        return fn(formula)
    if isinstance(formula, Truth):
        return formula
    if isinstance(formula, Not):
        return neg(map_atoms(formula.body, fn))
    if isinstance(formula, And):
        return conj(*(map_atoms(a, fn) for a in formula.args))
    if isinstance(formula, Or):
        return disj(*(map_atoms(a, fn) for a in formula.args))
    if isinstance(formula, Exists):
        return Exists(formula.var, map_atoms(formula.body, fn))
    if isinstance(formula, Forall):
        return Forall(formula.var, map_atoms(formula.body, fn))
    raise TypeError(f"unknown formula node: {formula!r}")


def substitute_atom(formula: Formula, atom: Formula, value: bool) -> Formula:
    """Replace one atom by a truth constant and fold."""
    replacement = TRUE if value else FALSE
    return map_atoms(formula, lambda a: replacement if a == atom else a)


def is_literal(formula: Formula) -> bool:
    """True for atoms and negated atoms."""
    if isinstance(formula, (EqAtom, PredAtom)):
        return True
    return isinstance(formula, Not) and isinstance(
        formula.body, (EqAtom, PredAtom)
    )


def literal_parts(literal: Formula) -> Tuple[Formula, bool]:
    """Decompose a literal into ``(atom, polarity)``."""
    if isinstance(literal, Not):
        return literal.body, False
    return literal, True


def free_logic_vars(formula: Formula) -> frozenset:
    """Free logical variables of a ``PredAtom`` formula.

    Equality atoms contribute the names of their :class:`Base` roots
    when the terms are bare variables.
    """
    bound: list = []

    def walk(node: Formula) -> frozenset:
        if isinstance(node, PredAtom):
            return frozenset(a for a in node.args if a not in bound)
        if isinstance(node, EqAtom):
            names = set()
            for term in (node.lhs, node.rhs):
                if isinstance(term, Base) and term.name not in bound:
                    names.add(term.name)
            return frozenset(names)
        if isinstance(node, Truth):
            return frozenset()
        if isinstance(node, Not):
            return walk(node.body)
        if isinstance(node, (And, Or)):
            result: frozenset = frozenset()
            for arg in node.args:
                result |= walk(arg)
            return result
        if isinstance(node, (Exists, Forall)):
            bound.append(node.var)
            result = walk(node.body)
            bound.pop()
            return result - {node.var}
        raise TypeError(f"unknown formula node: {node!r}")

    return walk(formula)


def rename_pred_args(formula: Formula, mapping: dict) -> Formula:
    """Rename the argument variables of every ``PredAtom``."""

    def rename(atom: Formula) -> Formula:
        if isinstance(atom, PredAtom):
            return PredAtom(
                atom.name, tuple(mapping.get(a, a) for a in atom.args)
            )
        return atom

    return map_atoms(formula, rename)


def formula_size(formula: Formula) -> int:
    """Node count, used in tests and derivation statistics."""
    if isinstance(formula, (Truth, EqAtom, PredAtom)):
        return 1
    if isinstance(formula, Not):
        return 1 + formula_size(formula.body)
    if isinstance(formula, (And, Or)):
        return 1 + sum(formula_size(a) for a in formula.args)
    if isinstance(formula, (Exists, Forall)):
        return 1 + formula_size(formula.body)
    raise TypeError(f"unknown formula node: {formula!r}")
