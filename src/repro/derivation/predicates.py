"""Data model of derived abstractions.

An abstraction consists of:

* **Predicate families** (Section 4.1, "Predicate Families"): a family is
  a formula over typed free variables, e.g. ``stale(i) ≡ i.defVer !=
  i.set.ver`` with ``i : Iterator``.  For a given client, each family is
  instantiated once per tuple of client variables (or, in the first-order
  setting of Section 5, per tuple of client *fields*).
* **Operation abstractions** (Section 4.2): for every component operation
  and every *coincidence pattern* — which family positions name the
  operation's own operands — an update formula of the special form
  ``p0 := p1 ∨ … ∨ pk`` (possibly with the constants 0/1), plus the
  operation's ``requires`` checks expressed as family instances.

Coincidence patterns are how the repo represents Fig. 5's side conditions
such as ``∀k ∈ I − {i}``: the update for ``mutx`` after ``i = v.iterator()``
has one case for the pattern where both arguments are the result operand
(``mutx_{i,i} := 0``) and another for the pattern where only the first is
(``mutx_{i,k} := iterof_{k,v}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.easl.spec import ComponentSpec, Operation
from repro.logic.formula import Formula
from repro.logic.terms import Base


@dataclass(frozen=True)
class Family:
    """An instrumentation predicate family."""

    name: str
    vars: Tuple[Base, ...]  # canonical typed free variables
    formula: Formula  # defining formula over the vars' access paths

    @property
    def arity(self) -> int:
        return len(self.vars)

    @property
    def sorts(self) -> Tuple[str, ...]:
        return tuple(v.sort or "?" for v in self.vars)

    def describe(self) -> str:
        args = ", ".join(f"{v.name}:{v.sort}" for v in self.vars)
        return f"{self.name}({args}) := {self.formula}"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class OpArg:
    """A family argument bound to one of the operation's operands."""

    name: str  # operand placeholder name ("this", "ret", a param, "dst"...)

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class GenArg:
    """A family argument left generic: at client-instantiation time it
    ranges over client variables distinct (by name) from every operand."""

    slot: int

    def __str__(self) -> str:
        return f"z{self.slot}"


ArgRef = Union[OpArg, GenArg]


@dataclass(frozen=True)
class InstanceRef:
    """A reference to one family instance inside an update formula."""

    family: str
    args: Tuple[ArgRef, ...]

    def __str__(self) -> str:
        if not self.args:
            return self.family
        return f"{self.family}[{', '.join(map(str, self.args))}]"


@dataclass(frozen=True)
class UpdateCase:
    """``target := rhs_instances[0] ∨ … ∨ rhs_instances[k]`` (∨ 1 if
    ``rhs_true``).  An empty rhs with ``rhs_true=False`` is the constant 0.
    ``identity`` marks updates of the form ``p := p`` which clients may
    skip entirely (the Fig. 5 optimization)."""

    target: InstanceRef
    rhs_instances: Tuple[InstanceRef, ...]
    rhs_true: bool = False

    @property
    def identity(self) -> bool:
        return (
            not self.rhs_true
            and len(self.rhs_instances) == 1
            and self.rhs_instances[0] == self.target
        )

    @property
    def is_constant_false(self) -> bool:
        return not self.rhs_true and not self.rhs_instances

    def __str__(self) -> str:
        parts = [str(r) for r in self.rhs_instances]
        if self.rhs_true:
            parts.append("1")
        rhs = " | ".join(parts) if parts else "0"
        return f"{self.target} := {rhs}"


@dataclass
class OperationAbstraction:
    """The derived abstraction of a single component operation."""

    op: Operation
    #: family name -> { target argument pattern -> update case }
    updates: Dict[str, Dict[Tuple[ArgRef, ...], UpdateCase]] = field(
        default_factory=dict
    )
    #: violation witnesses: the operation's precondition fails iff some
    #: instance listed here is true (union semantics across the list)
    checks: List[InstanceRef] = field(default_factory=list)

    def case_for(
        self, family: str, pattern: Tuple[ArgRef, ...]
    ) -> Optional[UpdateCase]:
        return self.updates.get(family, {}).get(pattern)

    def add_case(self, case: UpdateCase) -> None:
        per_family = self.updates.setdefault(case.target.family, {})
        per_family[case.target.args] = case

    def all_cases(self) -> List[UpdateCase]:
        return [
            case
            for per_family in self.updates.values()
            for case in per_family.values()
        ]

    def __str__(self) -> str:
        lines = [f"operation {self.op}"]
        for check in self.checks:
            lines.append(f"  requires !{check}")
        for case in self.all_cases():
            if not case.identity:
                lines.append(f"  {case}")
        return "\n".join(lines)


@dataclass
class DerivedAbstraction:
    """The complete output of the derivation stage for one specification."""

    spec: ComponentSpec
    families: List[Family]
    operations: Dict[str, OperationAbstraction]  # keyed by Operation.key
    stats: "object" = None  # DerivationStats; typed loosely to avoid cycle
    #: client-transformation results over this abstraction, created and
    #: filled by :class:`repro.certifier.transform.ClientTransformer` so
    #: they are paid once per abstraction, not once per client; derived
    #: data, so never compared and never pickled
    transform_memo: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # the family list is complete once the object exists (the
        # deriver appends only while deriving, before constructing it),
        # so the per-name tables are built once
        self._by_name: Dict[str, Family] = {
            fam.name: fam for fam in self.families
        }
        self._reflexive: Dict[str, bool] = {
            fam.name: reflexively_true(fam) for fam in self.families
        }

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["transform_memo"] = None
        return state

    def family(self, name: str) -> Family:
        return self._by_name[name]

    def is_reflexive(self, name: str) -> bool:
        """:func:`reflexively_true` of the family called ``name``."""
        return self._reflexive[name]

    def pretty_names(self) -> Dict[str, str]:
        """Human-readable aliases for CMP-shaped families, for display.

        Matches each family's defining formula against the four shapes of
        Fig. 4 (stale / iterof / mutx / same); unmatched families keep
        their generated names.
        """
        from repro.derivation.naming import propose_names

        return propose_names(self.families)

    def describe(self) -> str:
        names = self.pretty_names()
        lines = [f"abstraction for {self.spec.name}"]
        lines.append("families:")
        for fam in self.families:
            alias = names.get(fam.name)
            suffix = f"  (aka {alias})" if alias and alias != fam.name else ""
            lines.append(f"  {fam.describe()}{suffix}")
        for op_abs in self.operations.values():
            if op_abs.checks or any(
                not c.identity for c in op_abs.all_cases()
            ):
                lines.append(str(op_abs))
        return "\n".join(lines)


def reflexively_true(family: Family) -> bool:
    """True when the family's formula folds to TRUE once all of its
    variables are unified — the ``same(v, v) = 1`` simplification of
    Fig. 8, also the correct value for an all-null instance."""
    if family.arity == 0:
        return False
    from repro.derivation.derive import rename_bases
    from repro.logic.formula import TRUE

    unified = Base("$u", family.vars[0].sort)
    mapping = {var: unified for var in family.vars}
    return rename_bases(family.formula, mapping) is TRUE


def instance_pattern(
    op: Operation,
    spec: ComponentSpec,
    binding: Dict[str, str],
    instance_args: Sequence[str],
) -> Tuple[Tuple[ArgRef, ...], Dict[int, str]]:
    """Classify a client-side family instance against an operation.

    ``binding`` maps operand placeholder names to client variable names;
    ``instance_args`` are the client variables of the family instance.
    Returns the coincidence pattern (to select the update case) and the
    generic-slot assignment (slot -> client variable).
    """
    operand_order = [
        operand.name
        for operand in op.component_operands(spec)
        if operand.name in binding
    ]
    pattern: List[ArgRef] = []
    slots: Dict[str, int] = {}
    slot_vars: Dict[int, str] = {}
    for client_var in instance_args:
        matched: Optional[ArgRef] = None
        for operand_name in operand_order:
            if binding[operand_name] == client_var:
                matched = OpArg(operand_name)
                break
        if matched is None:
            if client_var not in slots:
                slots[client_var] = len(slots)
                slot_vars[slots[client_var]] = client_var
            matched = GenArg(slots[client_var])
        pattern.append(matched)
    return tuple(pattern), slot_vars
