"""The shared compiled-formula protocol.

The TVLA engine evaluates the same handful of formulas — the action
updates and ``requires`` conditions of the specialized TVP program —
millions of times across focus/update/coerce.  The bit-plane compiler
in :mod:`repro.logic.packed` turns each formula into flat closures once;
this module holds what it builds on, plus the heap-domain variant:

* :class:`CompiledFormula` is the slot protocol every compiled formula
  follows: free and quantified variables become positional slots in a
  single reusable list, so quantifiers are plain loops that write their
  slot in place (no ``{**env, var: node}`` dict per binding);
* :func:`compile_condition` gives the generic-analysis certifiers the
  same treatment for their 3-valued (``True``/``False``/``None``)
  condition evaluation over heap domains, with atom evaluation (which
  threads abstract state) left to a callback.

Nothing here caches: whoever compiles a formula holds the closure for
as long as it needs it (the TVLA engine per action, a heap-domain spec
runner per flattened operation), so compiled code dies with its owner.
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


def compile_condition(cond: Formula) -> CondFn:
    """Compile a heap-domain condition formula; the caller owns (and
    keeps) the closure."""
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
        body = compile_condition(cond.body)

        def cond_not(state, atom_fn, body=body):
            value, state = body(state, atom_fn)
            return (None if value is None else not value), state

        return cond_not
    if isinstance(cond, And):
        parts = tuple(compile_condition(a) for a in cond.args)

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
        parts = tuple(compile_condition(a) for a in cond.args)

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

