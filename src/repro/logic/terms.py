"""Ground terms of the access-path logic.

The abstraction-derivation stage of the paper (Section 4.1) manipulates
formulae such as ``i.defVer != i.set.ver`` whose atoms compare *access
paths*: a root variable followed by a sequence of field selections.  During
the backward weakest-precondition computation, ``new`` expressions introduce
*fresh allocation tokens*, which are known to be distinct from every
pre-state value.

Terms are immutable and hashable, so they can be used as dictionary keys by
the congruence-closure engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union


@dataclass(frozen=True, order=True)
class Base:
    """A named constant: a specification free variable (``i``, ``v``), a
    client variable, a method parameter, or the distinguished ``null``.

    ``sort`` optionally records the declared type of the variable (e.g.
    ``"Iterator"``); it is used when enumerating variable renamings during
    predicate-family matching.
    """

    name: str
    sort: Optional[str] = None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Fresh:
    """A fresh allocation token introduced by a ``new`` expression.

    A fresh token denotes an object allocated during the operation whose
    weakest precondition is being computed.  It is therefore distinct from
    every pre-state value (any :class:`Base`-rooted path) and from every
    *other* fresh token.

    ``label`` uniquely identifies the allocation occurrence; ``sort`` is the
    allocated class name.
    """

    label: str
    sort: Optional[str] = None

    def __str__(self) -> str:
        return f"ν<{self.label}>"


@dataclass(frozen=True, order=True)
class Field:
    """A field selection ``base.field``."""

    base: "Term"
    field: str

    def __str__(self) -> str:
        return f"{self.base}.{self.field}"


Term = Union[Base, Fresh, Field]

NULL = Base("null")


def root(term: Term) -> Union[Base, Fresh]:
    """Return the root constant of an access path."""
    while isinstance(term, Field):
        term = term.base
    return term


def fields_of(term: Term) -> Tuple[str, ...]:
    """Return the field sequence of ``term``, outermost last.

    >>> fields_of(Field(Field(Base("i"), "set"), "ver"))
    ('set', 'ver')
    """
    fields = []
    while isinstance(term, Field):
        fields.append(term.field)
        term = term.base
    return tuple(reversed(fields))


def depth(term: Term) -> int:
    """Number of field selections in ``term``."""
    count = 0
    while isinstance(term, Field):
        count += 1
        term = term.base
    return count


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its prefixes, innermost first."""
    prefixes = []
    while True:
        prefixes.append(term)
        if not isinstance(term, Field):
            break
        term = term.base
    yield from reversed(prefixes)


def rename_roots(term: Term, mapping: dict) -> Term:
    """Replace root :class:`Base` constants of ``term`` per ``mapping``.

    ``mapping`` maps :class:`Base` instances to arbitrary terms, so this
    doubles as the substitution used for parameter binding during method
    inlining.
    """
    if isinstance(term, Field):
        return Field(rename_roots(term.base, mapping), term.field)
    if isinstance(term, Base) and term in mapping:
        return mapping[term]
    return term
