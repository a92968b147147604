"""Compiled call-site bit maps for the interprocedural certifier.

At a call the Section 8 tabulation maps the caller's may-1 mask to the
callee's entry vector, and at the return it maps the caller's mask and
the callee's exit summary back to the caller's mask.  Every bit of
either map is a monotone boolean function of caller and callee-exit
bits: an OR of ANDs of bit tests, with no negation.  The certifier
derives that function once per call-site shape as a :data:`Dnf` per
output bit, and :class:`BitPlan` compiles the functions into three
parts, applied with a handful of integer operations per call:

* the bits that are always set;
* single-bit copies, grouped by source and by distance, each group one
  ``(mask & M) << d`` (or ``>> d``);
* the remaining conjunctions, one test per distinct conjunction.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: one conjunction: (caller bits, exit bits) that must all be set
Term = Tuple[int, int]
#: a disjunction of conjunctions; ``()`` is false, :data:`TRUE` is true
Dnf = Tuple[Term, ...]

FALSE: Dnf = ()
TRUE: Dnf = ((0, 0),)


def constant(value: bool) -> Dnf:
    return TRUE if value else FALSE


def caller_bit(index) -> Dnf:
    """The caller-mask bit ``index`` (``None``: no such instance)."""
    return FALSE if index is None else ((1 << index, 0),)


def exit_bit(index) -> Dnf:
    """The callee-exit-mask bit ``index`` (``None``: no such instance)."""
    return FALSE if index is None else ((0, 1 << index),)


def either(*parts: Dnf) -> Dnf:
    terms: List[Term] = []
    for part in parts:
        if part == TRUE:
            return TRUE
        terms.extend(part)
    return tuple(terms)


def both(left: Dnf, right: Dnf) -> Dnf:
    return tuple(
        (c1 | c2, e1 | e2) for c1, e1 in left for c2, e2 in right
    )


class BitPlan:
    """One compiled map from (caller mask, exit mask) to an output mask."""

    __slots__ = ("const", "shifts", "terms")

    def __init__(self, outputs: Sequence[Dnf]) -> None:
        const = 0
        # (source, distance) -> source bits copied that far; source 0
        # is the caller mask, 1 the exit mask
        groups: Dict[Tuple[int, int], int] = {}
        # conjunction -> the output bits it sets
        conjunctions: Dict[Term, int] = {}
        for position, dnf in enumerate(outputs):
            bit = 1 << position
            if TRUE[0] in dnf:
                const |= bit
                continue
            for term in dnf:
                caller, exit_ = term
                single = caller | exit_
                if not (caller and exit_) and single & (single - 1) == 0:
                    source = 0 if caller else 1
                    key = (source, position - single.bit_length() + 1)
                    groups[key] = groups.get(key, 0) | single
                else:
                    conjunctions[term] = conjunctions.get(term, 0) | bit
        self.const = const
        #: (source, mask, left shift, right shift), in a fixed order
        self.shifts: Tuple[Tuple[int, int, int, int], ...] = tuple(
            (source, mask, max(distance, 0), max(-distance, 0))
            for (source, distance), mask in sorted(groups.items())
        )
        self.terms: Tuple[Tuple[int, int, int], ...] = tuple(
            (caller, exit_, bits)
            for (caller, exit_), bits in sorted(conjunctions.items())
        )

    @property
    def cells(self) -> int:
        """The plan's size in transform-memo cells."""
        return 1 + len(self.shifts) + len(self.terms)

    def apply(self, caller: int, exit_: int = 0) -> int:
        out = self.const
        masks = (caller, exit_)
        for source, mask, left, right in self.shifts:
            out |= (masks[source] & mask) << left >> right
        for need_caller, need_exit, bits in self.terms:
            if (
                caller & need_caller == need_caller
                and exit_ & need_exit == need_exit
            ):
                out |= bits
        return out


class CallPlan:
    """The entry and return maps of one call-site shape."""

    __slots__ = ("entry_plan", "return_plan")

    def __init__(
        self, entry_outputs: Sequence[Dnf], return_outputs: Sequence[Dnf]
    ) -> None:
        self.entry_plan = BitPlan(entry_outputs)
        self.return_plan = BitPlan(return_outputs)

    @property
    def cells(self) -> int:
        return self.entry_plan.cells + self.return_plan.cells

    def entry(self, caller_mask: int) -> int:
        """The callee entry vector for the caller's mask at the call."""
        return self.entry_plan.apply(caller_mask)

    def ret(self, caller_mask: int, exit_mask: int) -> int:
        """The caller's mask after the call, from its mask at the call
        and the callee's exit summary."""
        return self.return_plan.apply(caller_mask, exit_mask)
