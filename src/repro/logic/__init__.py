"""First-order logic substrate.

This package provides the logical machinery shared by the whole pipeline:

* :mod:`repro.logic.terms` — ground terms of the *access-path logic* used by
  the abstraction-derivation stage (Section 4 of the paper): named base
  constants (specification free variables, client variables), fresh
  allocation tokens, and field selections.
* :mod:`repro.logic.formula` — a formula AST with smart constructors.
  Atoms come in two flavours: :class:`~repro.logic.formula.EqAtom`
  (equality of access-path terms, used during derivation) and
  :class:`~repro.logic.formula.PredAtom` (first-order predicate
  application, used by the TVP/TVLA layer).
* :mod:`repro.logic.kleene` — Kleene's 3-valued truth domain
  ``{0, 1/2, 1}`` with join/meet, used by the TVLA engine (Section 5.5).
* :mod:`repro.logic.normal` — negation/disjunctive normal forms and the
  Rule 2 disjunct splitting of Section 4.1.
* :mod:`repro.logic.congruence` — congruence closure for ground equality
  logic with unary (field) functions and fresh-token distinctness axioms.
* :mod:`repro.logic.decision` — satisfiability / entailment / equivalence
  decision procedures over the access-path logic, built on DPLL-style atom
  enumeration plus congruence closure. These are the
  "computationally-intensive symbolic techniques" the paper confines to
  certifier-generation time (Section 1.3).
"""

from repro.logic.formula import (
    FALSE,
    TRUE,
    And,
    EqAtom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    PredAtom,
    conj,
    disj,
    eq,
    neg,
    neq,
)
from repro.logic.kleene import FALSE3, HALF, TRUE3, Kleene
from repro.logic.terms import Base, Field, Fresh, Term

__all__ = [
    "And",
    "Base",
    "EqAtom",
    "Exists",
    "FALSE",
    "FALSE3",
    "Field",
    "Forall",
    "Formula",
    "Fresh",
    "HALF",
    "Kleene",
    "Not",
    "Or",
    "PredAtom",
    "Term",
    "TRUE",
    "TRUE3",
    "conj",
    "disj",
    "eq",
    "neg",
    "neq",
]
