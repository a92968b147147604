"""Kleene's 3-valued truth domain.

TVLA (Section 5.5 of the paper) evaluates formulae over 3-valued logical
structures, where the third value ``1/2`` denotes "may be 0 or 1".  The
*information order* places ``0`` and ``1`` below ``1/2`` (``1/2`` conveys
less information); the join used when merging individuals during canonical
abstraction is the information-order join.

Values are represented as an :class:`enum.Enum` with the usual logical
operations defined so that they restrict to ordinary boolean logic on
definite values.
"""

from __future__ import annotations

import enum
from typing import Iterable


class Kleene(enum.Enum):
    """A 3-valued truth value."""

    FALSE = 0
    TRUE = 1
    HALF = 2  # the indefinite value 1/2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return {Kleene.FALSE: "0", Kleene.TRUE: "1", Kleene.HALF: "1/2"}[self]

    __str__ = __repr__

    @property
    def may_be_true(self) -> bool:
        return self is not Kleene.FALSE

    @property
    def may_be_false(self) -> bool:
        return self is not Kleene.TRUE

    def logical_and(self, other: "Kleene") -> "Kleene":
        if self is Kleene.FALSE or other is Kleene.FALSE:
            return Kleene.FALSE
        if self is Kleene.TRUE and other is Kleene.TRUE:
            return Kleene.TRUE
        return Kleene.HALF

    def logical_or(self, other: "Kleene") -> "Kleene":
        if self is Kleene.TRUE or other is Kleene.TRUE:
            return Kleene.TRUE
        if self is Kleene.FALSE and other is Kleene.FALSE:
            return Kleene.FALSE
        return Kleene.HALF

    def logical_not(self) -> "Kleene":
        if self is Kleene.TRUE:
            return Kleene.FALSE
        if self is Kleene.FALSE:
            return Kleene.TRUE
        return Kleene.HALF

    def join(self, other: "Kleene") -> "Kleene":
        """Information-order join: ``0 ⊔ 1 = 1/2``."""
        if self is other:
            return self
        return Kleene.HALF

    def leq_info(self, other: "Kleene") -> bool:
        """Information order: definite values are below ``1/2``."""
        return self is other or other is Kleene.HALF

    @staticmethod
    def from_bool(value: bool) -> "Kleene":
        return Kleene.TRUE if value else Kleene.FALSE


TRUE3 = Kleene.TRUE
FALSE3 = Kleene.FALSE
HALF = Kleene.HALF


def kleene_and(values: Iterable[Kleene]) -> Kleene:
    """3-valued conjunction of an iterable (empty conjunction is TRUE)."""
    result = Kleene.TRUE
    for value in values:
        result = result.logical_and(value)
        if result is Kleene.FALSE:
            return result
    return result


def kleene_or(values: Iterable[Kleene]) -> Kleene:
    """3-valued disjunction of an iterable (empty disjunction is FALSE)."""
    result = Kleene.FALSE
    for value in values:
        result = result.logical_or(value)
        if result is Kleene.TRUE:
            return result
    return result


def kleene_join(values: Iterable[Kleene]) -> Kleene:
    """Information-order join of an iterable.

    The join of an empty iterable is undefined and raises ``ValueError``;
    callers join at least one value (the value of a predicate on at least
    one merged individual).
    """
    iterator = iter(values)
    try:
        result = next(iterator)
    except StopIteration:
        raise ValueError("join of empty iterable") from None
    for value in iterator:
        result = result.join(value)
        if result is Kleene.HALF:
            return result
    return result
