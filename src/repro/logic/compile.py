"""Formula hash-consing and the shared compiled-formula protocol.

The TVLA engine evaluates the same handful of formulas — the action
updates and ``requires`` conditions of the specialized TVP program —
millions of times across focus/update/coerce.  The bit-plane compiler
in :mod:`repro.logic.packed` turns each formula into flat closures once;
this module holds what it builds on, plus the heap-domain variant:

* :func:`intern` hash-conses :class:`~repro.logic.formula.Formula`
  nodes, so structurally-equal formulas become reference-equal and share
  one compiled evaluator;
* :class:`CompiledFormula` is the slot protocol every compiled formula
  follows: free and quantified variables become positional slots in a
  single reusable list, so quantifiers are plain loops that write their
  slot in place (no ``{**env, var: node}`` dict per binding);
* :func:`compile_condition` gives the generic-analysis certifiers the
  same treatment for their 3-valued (``True``/``False``/``None``)
  condition evaluation over heap domains, with atom evaluation (which
  threads abstract state) left to a callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.logic.kleene import Kleene
from repro.logic.terms import Base

# -- hash-consing ----------------------------------------------------------------

_INTERN: Dict[Formula, Formula] = {}


def intern(formula: Formula) -> Formula:
    """Return the canonical instance of a structurally-equal formula.

    Children are interned first, so two formulas that compare equal
    always intern to the *same* object graph — which in turn means they
    share one compiled evaluator and compare by identity thereafter.
    """
    if isinstance(formula, Truth):
        return formula  # TRUE / FALSE are already singletons by use
    if isinstance(formula, (EqAtom, PredAtom)):
        return _INTERN.setdefault(formula, formula)
    if isinstance(formula, Not):
        body = intern(formula.body)
        rebuilt = formula if body is formula.body else Not(body)
        return _INTERN.setdefault(rebuilt, rebuilt)
    if isinstance(formula, (And, Or)):
        args = tuple(intern(a) for a in formula.args)
        if all(a is b for a, b in zip(args, formula.args)):
            rebuilt = formula
        else:
            rebuilt = type(formula)(args)
        return _INTERN.setdefault(rebuilt, rebuilt)
    if isinstance(formula, (Exists, Forall)):
        body = intern(formula.body)
        rebuilt = (
            formula
            if body is formula.body
            else type(formula)(formula.var, body)
        )
        return _INTERN.setdefault(rebuilt, rebuilt)
    raise TypeError(f"unknown formula node {formula!r}")


# -- the compiled-formula protocol -----------------------------------------------

#: a compiled node: ``(structure, slots) -> Kleene``
EvalFn = Callable[[object, List[int]], Kleene]


@dataclass(frozen=True)
class CompiledFormula:
    """A formula compiled to a slot-based closure evaluator."""

    formula: Formula
    free_vars: Tuple[str, ...]
    num_slots: int
    fn: EvalFn

    def __call__(
        self, structure, env: Optional[Dict[str, int]] = None
    ) -> Kleene:
        slots = [0] * self.num_slots
        if self.free_vars:
            if env is None:
                raise KeyError(self.free_vars[0])
            for index, name in enumerate(self.free_vars):
                slots[index] = env[name]
        return self.fn(structure, slots)


class CompileError(TypeError):
    """The formula contains constructs the closure compilers reject
    (e.g. equality over non-variable terms, a ternary atom); there is no
    other evaluator, so the formula cannot be evaluated at all."""


def _free_vars_ordered(formula: Formula) -> Tuple[str, ...]:
    """Free variables in first-occurrence order (deterministic slots)."""
    seen: List[str] = []
    bound: List[str] = []

    def walk(node: Formula) -> None:
        if isinstance(node, PredAtom):
            for arg in node.args:
                if arg not in bound and arg not in seen:
                    seen.append(arg)
        elif isinstance(node, EqAtom):
            for term in (node.lhs, node.rhs):
                if (
                    isinstance(term, Base)
                    and term.name not in bound
                    and term.name not in seen
                ):
                    seen.append(term.name)
        elif isinstance(node, Not):
            walk(node.body)
        elif isinstance(node, (And, Or)):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, (Exists, Forall)):
            bound.append(node.var)
            walk(node.body)
            bound.pop()

    walk(formula)
    return tuple(seen)


# -- generic-analysis conditions -------------------------------------------------

#: compiled 3-valued condition: ``(state, atom_fn) -> (tri, state)`` where
#: ``tri`` is True / False / None and ``atom_fn(atom, state)`` evaluates
#: one atom, threading the (possibly refined) abstract state through.
CondFn = Callable[
    [object, Callable[[Formula, object], Tuple[Optional[bool], object]]],
    Tuple[Optional[bool], object],
]

_COND_BY_ID: Dict[int, Tuple[Formula, CondFn]] = {}


def _compile_cond(cond: Formula) -> CondFn:
    if isinstance(cond, Truth):
        value = cond.value

        def cond_truth(state, atom_fn, value=value):
            return value, state

        return cond_truth
    if isinstance(cond, (EqAtom, PredAtom)):

        def cond_atom(state, atom_fn, atom=cond):
            return atom_fn(atom, state)

        return cond_atom
    if isinstance(cond, Not):
        body = _compile_cond(cond.body)

        def cond_not(state, atom_fn, body=body):
            value, state = body(state, atom_fn)
            return (None if value is None else not value), state

        return cond_not
    if isinstance(cond, And):
        parts = tuple(_compile_cond(a) for a in cond.args)

        def cond_and(state, atom_fn, parts=parts):
            result: Optional[bool] = True
            for part in parts:
                value, state = part(state, atom_fn)
                if value is False:
                    return False, state
                if value is None:
                    result = None
            return result, state

        return cond_and
    if isinstance(cond, Or):
        parts = tuple(_compile_cond(a) for a in cond.args)

        def cond_or(state, atom_fn, parts=parts):
            result: Optional[bool] = False
            for part in parts:
                value, state = part(state, atom_fn)
                if value is True:
                    return True, state
                if value is None:
                    result = None
            return result, state

        return cond_or
    raise TypeError(f"unsupported condition {cond!r}")


def compile_condition(cond: Formula) -> CondFn:
    """Compile (and cache, by identity) a heap-domain condition formula."""
    entry = _COND_BY_ID.get(id(cond))
    if entry is not None and entry[0] is cond:
        return entry[1]
    fn = _compile_cond(cond)
    _COND_BY_ID[id(cond)] = (cond, fn)
    return fn
