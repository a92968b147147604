"""Specialized translation of heap clients (Sections 5.3–5.4).

The derived instrumentation-predicate families are instantiated over
*slots*: a slot is either a component-typed client **variable** (including
statics and compiler temporaries) or a component-typed **instance field**
of a client class.  An instance whose slots are all variables is a nullary
predicate — exactly the SCMP abstraction; each field slot adds one
first-order argument ranging over client-heap objects (Fig. 10's
``stale_f(e)``).  Because every fact about a component reference is
carried by these predicates, component objects never need to be
individuals: the universe of the resulting TVP program is the *client*
object heap only, modelled by the standard translation (Fig. 9's ``pt``
and ``rv`` predicates).

Edge-by-edge:

* component operations and reference copies instantiate the derived
  method abstractions (Fig. 11), selecting update cases by the
  coincidence pattern of each instance's variable slots against the
  operation's operands — field slots are always "generic" positions;
* ``x = y.f`` (component-typed load) rebinds every instance mentioning
  ``x`` from the corresponding field-slot instance at ``y``'s object:
  ``stale_x := ∃o. pt_y(o) ∧ stale_f(o)``;
* ``y.f = x`` (component-typed store) updates every instance mentioning
  the field slot ``f`` with a case split on whether each tuple component
  is ``y``'s object;
* client-typed statements get the standard translation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.derivation.predicates import (
    DerivedAbstraction,
    GenArg,
    OpArg,
    instance_pattern,
)
from repro.lang.cfg import (
    SAssume,
    SCallComp,
    SCopy,
    SLoad,
    SNewClient,
    SNop,
    SNull,
    SReturn,
    SStore,
)
from repro.lang.inline import InlinedProgram
from repro.logic.formula import (
    FALSE,
    TRUE,
    Exists,
    Formula,
    PredAtom,
    conj,
    disj,
    eq,
    neg,
)
from repro.logic.terms import Base
from repro.runtime.trace import phase as trace_phase
from repro.tvp.program import (
    Action,
    Check,
    PredicateDecl,
    TvpProgram,
    Update,
)


class SpecializeError(Exception):
    pass


# -- slots ------------------------------------------------------------------------


@dataclass(frozen=True)
class VarSlot:
    """A component-typed client variable (local, temp, or static)."""

    var: str
    sort: str

    @property
    def key(self) -> str:
        return self.var

    def __str__(self) -> str:
        return self.var


@dataclass(frozen=True)
class FieldSlot:
    """A component-typed instance field of a client class."""

    owner: str
    field: str
    sort: str

    @property
    def key(self) -> str:
        return f".{self.owner}.{self.field}"

    def __str__(self) -> str:
        return self.key


Slot = Union[VarSlot, FieldSlot]


@dataclass(frozen=True)
class SlotInstance:
    """A family instantiated at a tuple of slots."""

    family: str
    slots: Tuple[Slot, ...]

    @property
    def arity(self) -> int:
        return sum(1 for s in self.slots if isinstance(s, FieldSlot))

    @property
    def pred_name(self) -> str:
        inner = ",".join(s.key for s in self.slots)
        return f"{self.family}[{inner}]"

    def atom(self, var_for_position: Dict[int, str]) -> Formula:
        args = tuple(
            var_for_position[i]
            for i, s in enumerate(self.slots)
            if isinstance(s, FieldSlot)
        )
        return PredAtom(self.pred_name, args)


def pt(var: str) -> str:
    return f"pt[{var}]"


def rv(owner: str, field: str) -> str:
    return f"rv[{owner}.{field}]"


def cls(class_name: str) -> str:
    return f"cls[{class_name}]"


# -- the translator ---------------------------------------------------------------------


class _Specializer:
    def __init__(
        self, inlined: InlinedProgram, abstraction: DerivedAbstraction
    ) -> None:
        self.inlined = inlined
        self.abstraction = abstraction
        self.spec = abstraction.spec
        self.program = inlined.program
        self.cfg = inlined.cfg
        self.tvp = TvpProgram(
            f"{self.cfg.method}<hcmp>", self.cfg.entry, self.cfg.exit
        )
        self.var_slots: Dict[str, VarSlot] = {}
        self.field_slots: List[FieldSlot] = []
        self.client_vars: Dict[str, str] = {}  # client-object-typed vars
        self.instances: List[SlotInstance] = []
        self._collect_slots()
        self._declare_predicates()

    # -- slot/predicate discovery -----------------------------------------------------

    def _collect_slots(self) -> None:
        for name, type_ in self.inlined.component_vars().items():
            self.var_slots[name] = VarSlot(name, type_)
        for name, type_ in {
            **self.inlined.variables,
            **self.program.statics,
        }.items():
            if type_ in self.program.classes:
                self.client_vars[name] = type_
        for cinfo in self.program.classes.values():
            for finfo in cinfo.fields.values():
                if finfo.is_static:
                    continue
                if self.spec.is_component_type(finfo.type):
                    self.field_slots.append(
                        FieldSlot(cinfo.name, finfo.name, finfo.type)
                    )
        all_slots: List[Slot] = list(self.var_slots.values()) + list(
            self.field_slots
        )
        for family in self.abstraction.families:
            pools = [
                [s for s in all_slots if s.sort == sort]
                for sort in family.sorts
            ]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                instance = SlotInstance(family.name, tuple(combo))
                if instance.arity <= 2:
                    self.instances.append(instance)

    def _declare_predicates(self) -> None:
        for name in self.client_vars:
            self.tvp.declare(PredicateDecl(pt(name), 1, abstraction=True))
        for cinfo in self.program.classes.values():
            self.tvp.declare(
                PredicateDecl(cls(cinfo.name), 1, abstraction=True)
            )
            for finfo in cinfo.fields.values():
                if finfo.is_static or finfo.type not in self.program.classes:
                    continue
                self.tvp.declare(
                    PredicateDecl(rv(cinfo.name, finfo.name), 2)
                )
        for instance in self.instances:
            self.tvp.declare(
                PredicateDecl(
                    instance.pred_name,
                    instance.arity,
                    abstraction=instance.arity == 1,
                )
            )

    # -- helpers --------------------------------------------------------------------------

    def _slot_by_pseudo(self, pseudo: str) -> Slot:
        if pseudo in self.var_slots:
            return self.var_slots[pseudo]
        for slot in self.field_slots:
            if slot.key == pseudo:
                return slot
        raise SpecializeError(f"unknown slot {pseudo!r}")

    def _is_component_var(self, name: str) -> bool:
        return name in self.var_slots

    # -- component operations ----------------------------------------------------------------

    def _comp_op_action(
        self,
        op_key: str,
        binding: Dict[str, str],
        site_id: int,
        line: int,
    ) -> Action:
        op = self.spec.operation(op_key)
        op_abs = self.abstraction.operations[op_key]
        checks = []
        for check_ref in op_abs.checks:
            args = tuple(binding[a.name] for a in check_ref.args)  # type: ignore[union-attr]
            target = SlotInstance(
                check_ref.family,
                tuple(self.var_slots[a] for a in args),
            )
            checks.append(
                Check(site_id, line, op_key, neg(PredAtom(target.pred_name)))
            )
        updates: List[Update] = []
        for instance in self.instances:
            pseudo_args = [s.key for s in instance.slots]
            pattern, slot_vars = instance_pattern(
                op, self.spec, binding, pseudo_args
            )
            case = op_abs.case_for(instance.family, pattern)
            if case is None:
                raise SpecializeError(
                    f"no update case for {instance.pred_name} vs {op_key}"
                )
            if case.identity:
                continue
            var_for_position = {
                i: f"v{i}"
                for i, s in enumerate(instance.slots)
                if isinstance(s, FieldSlot)
            }
            # map each generic slot id / operand to a slot, then to the
            # logical variables of the *target* positions carrying it
            position_of_slot: Dict[str, int] = {}
            for i, s in enumerate(instance.slots):
                position_of_slot.setdefault(s.key, i)
            rhs_atoms = []
            for ref in case.rhs_instances:
                ref_slots: List[Slot] = []
                ref_vars: List[str] = []
                for arg in ref.args:
                    if isinstance(arg, OpArg):
                        slot: Slot = self.var_slots[binding[arg.name]]
                    else:
                        assert isinstance(arg, GenArg)
                        slot = self._slot_by_pseudo(slot_vars[arg.slot])
                    ref_slots.append(slot)
                    if isinstance(slot, FieldSlot):
                        position = position_of_slot[slot.key]
                        ref_vars.append(var_for_position[position])
                rhs_atoms.append(
                    PredAtom(
                        SlotInstance(ref.family, tuple(ref_slots)).pred_name,
                        tuple(ref_vars),
                    )
                )
            rhs: Formula = disj(*rhs_atoms) if rhs_atoms else FALSE
            if case.rhs_true:
                rhs = TRUE
            updates.append(
                Update(
                    instance.pred_name,
                    tuple(
                        var_for_position[i]
                        for i, s in enumerate(instance.slots)
                        if isinstance(s, FieldSlot)
                    ),
                    rhs,
                )
            )
        return Action(updates=tuple(updates), checks=tuple(checks))

    # -- component loads/stores ---------------------------------------------------------------

    def _comp_load_action(self, stm: SLoad) -> Action:
        """``x = y.f`` with ``x`` component-typed."""
        x = stm.dst
        field_slot = self._field_slot_for(stm.base, stm.field)
        updates: List[Update] = []
        for instance in self.instances:
            positions = [
                i
                for i, s in enumerate(instance.slots)
                if isinstance(s, VarSlot) and s.var == x
            ]
            if not positions:
                continue
            source_slots = list(instance.slots)
            for p in positions:
                source_slots[p] = field_slot
            source = SlotInstance(instance.family, tuple(source_slots))
            # bind: target field-slot positions keep their vars; the x
            # positions all read through y's object (one witness o)
            var_for_position = {
                i: f"v{i}"
                for i, s in enumerate(instance.slots)
                if isinstance(s, FieldSlot)
            }
            source_args = []
            for i, s in enumerate(source.slots):
                if not isinstance(s, FieldSlot):
                    continue
                if i in positions:
                    source_args.append("o")
                else:
                    source_args.append(var_for_position[i])
            rhs = Exists(
                "o",
                conj(
                    PredAtom(pt(stm.base), ("o",)),
                    PredAtom(source.pred_name, tuple(source_args)),
                ),
            )
            updates.append(
                Update(
                    instance.pred_name,
                    tuple(
                        var_for_position[i]
                        for i, s in enumerate(instance.slots)
                        if isinstance(s, FieldSlot)
                    ),
                    rhs,
                )
            )
        return Action(
            focus=(PredAtom(pt(stm.base), ("v",)),), updates=tuple(updates)
        )

    def _comp_store_action(self, stm: SStore) -> Action:
        """``y.f = x`` with ``x`` component-typed."""
        field_slot = self._field_slot_for(stm.base, stm.field)
        x_slot = self.var_slots[stm.src]
        updates: List[Update] = []
        for instance in self.instances:
            positions = [
                i
                for i, s in enumerate(instance.slots)
                if s == field_slot
            ]
            if not positions:
                continue
            var_for_position = {
                i: f"v{i}"
                for i, s in enumerate(instance.slots)
                if isinstance(s, FieldSlot)
            }
            branches = []
            for assigned in _subsets(positions):
                guard_parts = []
                for p in positions:
                    atom = PredAtom(pt(stm.base), (var_for_position[p],))
                    guard_parts.append(atom if p in assigned else neg(atom))
                replaced_slots = list(instance.slots)
                for p in assigned:
                    replaced_slots[p] = x_slot
                replaced = SlotInstance(
                    instance.family, tuple(replaced_slots)
                )
                replaced_args = tuple(
                    var_for_position[i]
                    for i, s in enumerate(replaced.slots)
                    if isinstance(s, FieldSlot)
                )
                branches.append(
                    conj(
                        *guard_parts,
                        PredAtom(replaced.pred_name, replaced_args),
                    )
                )
            updates.append(
                Update(
                    instance.pred_name,
                    tuple(
                        var_for_position[i]
                        for i, s in enumerate(instance.slots)
                        if isinstance(s, FieldSlot)
                    ),
                    disj(*branches),
                )
            )
        return Action(
            focus=(PredAtom(pt(stm.base), ("v",)),), updates=tuple(updates)
        )

    def _field_slot_for(self, base_var: str, field: str) -> FieldSlot:
        owner = self.client_vars.get(base_var) or self.inlined.variables.get(
            base_var
        )
        for slot in self.field_slots:
            if slot.owner == owner and slot.field == field:
                return slot
        raise SpecializeError(
            f"no component field slot {owner}.{field}"
        )

    # -- null assignment -----------------------------------------------------------------------

    def _comp_null_action(self, var: str) -> Action:
        updates: List[Update] = []
        for instance in self.instances:
            if not any(
                isinstance(s, VarSlot) and s.var == var
                for s in instance.slots
            ):
                continue
            all_var = all(
                isinstance(s, VarSlot) and s.var == var
                for s in instance.slots
            )
            value = (
                TRUE
                if all_var and self.abstraction.is_reflexive(instance.family)
                else FALSE
            )
            var_args = tuple(
                f"v{i}"
                for i, s in enumerate(instance.slots)
                if isinstance(s, FieldSlot)
            )
            updates.append(Update(instance.pred_name, var_args, value))
        return Action(updates=tuple(updates))

    # -- client-object statements ----------------------------------------------------------------

    def _client_new_action(self, stm: SNewClient) -> Action:
        updates = [
            Update(pt(stm.dst), ("v",), eq(Base("v"), Base("n"))),
            Update(
                cls(stm.class_name),
                ("v",),
                disj(
                    PredAtom(cls(stm.class_name), ("v",)),
                    eq(Base("v"), Base("n")),
                ),
            ),
        ]
        # reflexively-true instances hold on the fresh object's (null)
        # fields, e.g. same[.f,.f](n,n) — null == null
        for instance in self.instances:
            field_positions = [
                i
                for i, s in enumerate(instance.slots)
                if isinstance(s, FieldSlot)
            ]
            if not field_positions:
                continue
            if len({s for s in instance.slots}) != 1:
                continue
            slot = instance.slots[0]
            if not isinstance(slot, FieldSlot) or slot.owner != stm.class_name:
                continue
            if not self.abstraction.is_reflexive(instance.family):
                continue
            var_args = tuple(f"v{i}" for i in field_positions)
            guard = conj(
                *(eq(Base(v), Base("n")) for v in var_args)
            )
            updates.append(
                Update(
                    instance.pred_name,
                    var_args,
                    disj(
                        PredAtom(instance.pred_name, var_args), guard
                    ),
                )
            )
        return Action(new_var="n", updates=tuple(updates))

    # -- the edge walk --------------------------------------------------------------------------

    def translate(self) -> TvpProgram:
        for edge in self.cfg.edges:
            action = self._edge_action(edge.stm)
            self.tvp.add_edge(edge.src, edge.dst, action)
        return self.tvp

    def _edge_action(self, stm) -> Action:
        if isinstance(stm, (SNop, SReturn, SAssume)):
            return Action()
        if isinstance(stm, SCallComp):
            return self._comp_op_action(
                stm.op_key, stm.binding_map, stm.site_id, stm.line
            )
        if isinstance(stm, SCopy):
            if self._is_component_var(stm.dst):
                if stm.dst == stm.src:
                    return Action()
                return self._comp_op_action(
                    f"copy {stm.type}",
                    {"dst": stm.dst, "src": stm.src},
                    site_id=-1,
                    line=stm.line,
                )
            if stm.dst in self.client_vars:
                return Action(
                    updates=(
                        Update(
                            pt(stm.dst), ("v",), PredAtom(pt(stm.src), ("v",))
                        ),
                    )
                )
            return Action()
        if isinstance(stm, SNull):
            if self._is_component_var(stm.dst):
                return self._comp_null_action(stm.dst)
            if stm.dst in self.client_vars:
                return Action(
                    updates=(Update(pt(stm.dst), ("v",), FALSE),)
                )
            return Action()
        if isinstance(stm, SLoad):
            if self.spec.is_component_type(stm.type):
                return self._comp_load_action(stm)
            if stm.type in self.program.classes:
                rhs = Exists(
                    "o",
                    conj(
                        PredAtom(pt(stm.base), ("o",)),
                        PredAtom(
                            rv(self._owner_of(stm.base), stm.field),
                            ("o", "v"),
                        ),
                    ),
                )
                return Action(
                    focus=(PredAtom(pt(stm.base), ("v",)),),
                    updates=(Update(pt(stm.dst), ("v",), rhs),),
                )
            return Action()
        if isinstance(stm, SStore):
            if self.spec.is_component_type(stm.type):
                return self._comp_store_action(stm)
            if stm.type in self.program.classes:
                owner = self._owner_of(stm.base)
                rv_name = rv(owner, stm.field)
                rhs = disj(
                    conj(
                        PredAtom(pt(stm.base), ("v1",)),
                        PredAtom(pt(stm.src), ("v2",)),
                    ),
                    conj(
                        neg(PredAtom(pt(stm.base), ("v1",))),
                        PredAtom(rv_name, ("v1", "v2")),
                    ),
                )
                return Action(
                    focus=(PredAtom(pt(stm.base), ("v",)),),
                    updates=(Update(rv_name, ("v1", "v2"), rhs),),
                )
            return Action()
        if isinstance(stm, SNewClient):
            return self._client_new_action(stm)
        raise SpecializeError(f"unsupported statement {stm!r}")

    def _owner_of(self, base_var: str) -> str:
        owner = self.client_vars.get(base_var)
        if owner is None:
            raise SpecializeError(f"unknown client object var {base_var}")
        return owner


def _subsets(items: Sequence[int]):
    for mask in range(1 << len(items)):
        yield frozenset(
            items[i] for i in range(len(items)) if mask >> i & 1
        )


def specialized_translation(
    inlined: InlinedProgram, abstraction: DerivedAbstraction
) -> TvpProgram:
    """Translate an inlined heap client into a specialized TVP program.

    Also returns the nullary "initially true" facts via the program's
    predicate declarations (reflexive variable instances hold on the
    all-null entry state; the engine consults ``initially_true_preds``).
    """
    with trace_phase("transform", target="tvp") as trace_meta:
        specializer = _Specializer(inlined, abstraction)
        tvp = specializer.translate()
        initially_true = []
        for instance in specializer.instances:
            if (
                instance.arity == 0
                and len({s for s in instance.slots}) <= 1
                and abstraction.is_reflexive(instance.family)
            ):
                initially_true.append(instance.pred_name)
        tvp.initially_true_nullary = initially_true  # type: ignore[attr-defined]
        trace_meta.update(
            predicates=len(specializer.instances), edges=len(tvp.edges)
        )
    return tvp
