"""Fact spaces and call-site plans of the Section 8 certifier.

Each procedure of a shallow client becomes a *fact space*, a boolean
program over its own instrumentation instances, and each call site a
compiled plan mapping masks between caller and callee.  The tabulation
(:mod:`repro.certifier.interproc`) builds them as it reaches them; the
certificate checker builds all of a client's with
:meth:`FactSpaces.compile` and keeps nothing else.

Relating caller facts to callee facts needs three devices:

* **Ghost variables** (``x##in``) snapshot each component-typed formal and
  static at procedure entry.  Formals may be reassigned and statics
  overwritten, but a ghost keeps naming the object the caller's actual
  still points to, so post-call caller facts are read off exit facts over
  ghosts.
* **Identity families** (``x == y`` per component type, derived with
  ``identity_families=True``) reconnect a reassigned static or a returned
  reference to its entry-time origin: after the call, ``iterof(x, S)``
  holds iff for some interface collection ``w``, ``iterof(x, β(w))`` held
  at the call and the callee exits with ``S == ghost(w)``.
* **Phantom iterators** (``w##ph``) stand for "an arbitrary
  already-existing iterator over ``w``'s collection".  The callee updates
  their ``stale`` instances through the ordinary derived abstraction, so
  ``stale(phantom)`` at exit is precisely "the callee may have invalidated
  iterators of that collection" — what a caller-local iterator that was
  never passed in needs to know.

The compositions at return conjoin a caller fact (state at the call) with
a callee exit fact; a caller path to the call site concatenates with any
callee path into an interprocedurally-valid path, so conjoining the two
independent may-1 answers is sound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.certifier.boolprog import BoolProgram, Instance
from repro.certifier.callplan import (
    FALSE,
    TRUE,
    CallPlan,
    Dnf,
    both,
    caller_bit,
    constant,
    either,
    exit_bit,
)
from repro.certifier.transform import (
    ClientTransformer,
    TransformError,
    family_mentions_mutable_field,
)
from repro.derivation.predicates import DerivedAbstraction, Family
from repro.lang.cfg import CFG, SCallClient, SCopy, SReturn
from repro.lang.types import MethodInfo, Program
from repro.logic.formula import And, EqAtom, Not
from repro.logic.terms import Base, Field

GHOST_SUFFIX = "##in"
PHANTOM_SUFFIX = "##ph"
RET_VAR = "##ret"


# -- family shape classification ---------------------------------------------------


@dataclass
class Shapes:
    """Structural roles of the derived families (the CMP-class shapes)."""

    identity: Dict[str, str]  # sort -> family name (x == y)
    mutable_unary: Dict[str, str]  # sort -> family name (stale-like)
    relation: Dict[Tuple[str, str], str]  # (iter, collection) -> iterof
    mutex: Dict[str, str]  # iter sort -> mutx-like family
    collection_of: Dict[str, str]  # iterator sort -> its collection sort
    #: relation families whose argument order is (collection, iterator)
    relation_swapped: set = None  # type: ignore[assignment]

    def relation_args(
        self, family: str, iter_name: str, set_name: str
    ) -> Tuple[str, str]:
        """Argument tuple for a relation instance, respecting the
        family's derived positional order."""
        if self.relation_swapped and family in self.relation_swapped:
            return (set_name, iter_name)
        return (iter_name, set_name)


def classify_shapes(abstraction: DerivedAbstraction) -> Shapes:
    shapes = Shapes({}, {}, {}, {}, {}, set())
    for family in abstraction.families:
        formula = family.formula
        if family.arity == 2 and isinstance(formula, EqAtom):
            lhs, rhs = formula.lhs, formula.rhs
            if isinstance(lhs, Base) and isinstance(rhs, Base):
                shapes.identity[family.sorts[0]] = family.name
            elif (
                isinstance(lhs, Field)
                and isinstance(lhs.base, Base)
                and isinstance(rhs, Base)
            ):
                shapes.relation[(family.sorts[0], family.sorts[1])] = (
                    family.name
                )
                shapes.collection_of[family.sorts[0]] = family.sorts[1]
            elif (
                isinstance(rhs, Field)
                and isinstance(rhs.base, Base)
                and isinstance(lhs, Base)
            ):
                shapes.relation[(family.sorts[1], family.sorts[0])] = (
                    family.name
                )
                shapes.collection_of[family.sorts[1]] = family.sorts[0]
                shapes.relation_swapped.add(family.name)
        elif family.arity == 1 and family_mentions_mutable_field(
            family, abstraction.spec
        ):
            shapes.mutable_unary[family.sorts[0]] = family.name
        elif (
            family.arity == 2
            and family.sorts[0] == family.sorts[1]
            and isinstance(formula, And)
            and any(
                isinstance(a, Not) and isinstance(a.body, EqAtom)
                for a in formula.args
            )
        ):
            shapes.mutex[family.sorts[0]] = family.name
    return shapes


# -- per-procedure context ------------------------------------------------------------


@dataclass
class ProcSpace:
    """The fact space and boolean program of one procedure."""

    params: Tuple[str, ...]  # formal parameter names, in order
    is_static: bool
    boolprog: BoolProgram
    variables: Dict[str, str]  # all component vars incl ghosts/phantoms
    formals: Dict[str, str]  # component-typed formals (incl "this")
    ghosts: Dict[str, str]  # ghost name -> anchored name (formal or static)
    phantoms: Dict[str, str]  # phantom name -> anchor ghost name
    call_edges: List[Tuple[int, int, SCallClient]]
    default_mask: int  # instance values when everything is null
    #: the transform memo's instance universe of ``variables``
    universe: object
    #: call edge (src, dst) -> its compiled plan, filled on first use
    plans: Dict[Tuple[int, int], CallPlan] = field(default_factory=dict)

    def call_map(self) -> Dict[Tuple[int, int], SCallClient]:
        """Call edge (src, dst) -> its call statement."""
        return {(src, dst): stm for src, dst, stm in self.call_edges}


def _binding(
    stm: SCallClient, callee: ProcSpace
) -> Tuple[Tuple[str, str], ...]:
    """The caller actual each callee formal is bound to at ``stm``:
    the receiver binds ``this``, each argument its parameter."""
    pairs = []
    if stm.receiver is not None and not callee.is_static:
        pairs.append(("this", stm.receiver))
    pairs.extend(zip(callee.params, stm.args))
    return tuple(pairs)


class FactSpaces:
    """The fact spaces and call-site plans of one shallow client.

    ``abstraction`` must be derived with ``identity_families=True`` so
    the return compositions can reconnect reassigned references to their
    entry-time origins.
    """

    def __init__(
        self, program: Program, abstraction: DerivedAbstraction
    ) -> None:
        if not program.is_shallow():
            raise TransformError(
                "interprocedural SCMP certification requires a shallow "
                "client (component references only in locals/statics); "
                "use the TVLA pipeline for heap clients"
            )
        self.program = program
        self.abstraction = abstraction
        self.spec = abstraction.spec
        self.shapes = classify_shapes(abstraction)
        self.transformer = ClientTransformer(
            program, abstraction, on_client_call="skip"
        )
        self.statics = {
            name: type_
            for name, type_ in program.statics.items()
            if self.spec.is_component_type(type_)
        }
        self.spaces: Dict[str, ProcSpace] = {}
        #: per-family memo for the mutability query on the call-mapping
        #: hot path (family names are unique within an abstraction);
        #: recomputing the formula scan per call edge dominated
        #: large-program profiles
        self._mutable_memo: Dict[str, bool] = {}
        #: call-site plans compiled here, and call sites whose plan was
        #: compiled before over the same abstraction (at another site,
        #: or for another client)
        self.plan_stats: Dict[str, int] = {
            "call_plans_built": 0,
            "call_plans_reused": 0,
        }

    def _family_mutable(self, family: Family) -> bool:
        value = self._mutable_memo.get(family.name)
        if value is None:
            value = family_mentions_mutable_field(family, self.spec)
            self._mutable_memo[family.name] = value
        return value

    # -- fact-space construction ------------------------------------------------------

    def space(self, qualified: str) -> ProcSpace:
        if qualified in self.spaces:
            return self.spaces[qualified]
        minfo = self.program.method(qualified)
        variables: Dict[str, str] = {}
        formals: Dict[str, str] = {}
        param_names = {name for name, _t in minfo.params}
        if not minfo.is_static:
            param_names.add("this")
        for name, type_ in minfo.variables.items():
            if self.spec.is_component_type(type_):
                variables[name] = type_
                if name in param_names:
                    formals[name] = type_
        for name, type_ in self.statics.items():
            variables[name] = type_
        ghosts: Dict[str, str] = {}
        for name in list(formals) + list(self.statics):
            ghost = name + GHOST_SUFFIX
            ghosts[ghost] = name
            variables[ghost] = formals.get(name) or self.statics[name]
        phantoms: Dict[str, str] = {}
        for ghost in ghosts:
            phantom_sort = self._phantom_sort(variables[ghost])
            if phantom_sort is not None:
                phantom = ghost + PHANTOM_SUFFIX
                phantoms[phantom] = ghost
                variables[phantom] = phantom_sort
        if self.spec.is_component_type(minfo.return_type):
            variables[RET_VAR] = minfo.return_type
        cfg = self._prepared_cfg(minfo)
        boolprog = self.transformer.transform_cfg(cfg, variables)
        call_edges = [
            (e.src, e.dst, e.stm)
            for e in cfg.edges
            if isinstance(e.stm, SCallClient)
        ]
        space = ProcSpace(
            tuple(name for name, _t in minfo.params),
            minfo.is_static,
            boolprog,
            variables,
            formals,
            ghosts,
            phantoms,
            call_edges,
            boolprog.initial_mask(),
            self.transformer.universe(variables),
        )
        self.spaces[qualified] = space
        return space

    def _phantom_sort(self, anchor_sort: str) -> Optional[str]:
        """The phantom-iterator sort for anchors of ``anchor_sort`` —
        None when the spec has no invalidation (no stale-like family)."""
        for iter_sort in self.shapes.mutable_unary:
            collection = self.shapes.collection_of.get(iter_sort)
            if anchor_sort in (iter_sort, collection):
                return iter_sort
        return None

    def _prepared_cfg(self, minfo: MethodInfo) -> CFG:
        """Clone the CFG, turning component-typed returns into copies to
        the pseudo-variable ``##ret`` so exit facts can mention it."""
        source = minfo.cfg
        assert source is not None
        cfg = CFG(source.method)
        mapping = {source.entry: cfg.entry, source.exit: cfg.exit}

        def node(n: int) -> int:
            if n not in mapping:
                mapping[n] = cfg.new_node()
            return mapping[n]

        returns_component = self.spec.is_component_type(minfo.return_type)
        for edge in source.edges:
            stm = edge.stm
            if (
                isinstance(stm, SReturn)
                and stm.var is not None
                and returns_component
            ):
                stm = SCopy(RET_VAR, stm.var, minfo.return_type, stm.line)
            cfg.add_edge(node(edge.src), node(edge.dst), stm)
        return cfg

    # -- call-site plans --------------------------------------------------------------
    #
    # Each bit of a call's entry vector and of its return mask is a
    # monotone function of caller-mask and callee-exit bits, fixed by the
    # call site's shape.  The builders below derive those functions as
    # DNFs (``repro.certifier.callplan``); a compiled ``CallPlan`` is
    # memoized on the abstraction's transform memo, keyed by everything
    # the builders read, so the tabulation, the summary validation and
    # the checker apply it across contexts and clients.

    def call_plan(
        self, caller: ProcSpace, src: int, dst: int, stm: SCallClient
    ) -> CallPlan:
        """The compiled entry and return maps of the call on edge
        ``src -> dst`` of ``caller``'s fact space."""
        plan = caller.plans.get((src, dst))
        if plan is not None:
            return plan
        callee = self.space(stm.callee)
        binding = _binding(stm, callee)
        key = (
            caller.universe,
            callee.universe,
            binding,
            stm.result if RET_VAR in callee.variables else None,
            tuple(callee.ghosts.items()),
            tuple(callee.phantoms.items()),
            tuple(self.statics),
        )
        memo = self.abstraction.transform_memo
        plan = memo.plans.get(key)
        if plan is None:
            beta = self._beta(binding, callee)
            plan = CallPlan(
                [
                    self._entry_value(instance, beta, caller, callee)
                    for instance in callee.boolprog.instances()
                ],
                self._return_outputs(caller, stm, callee, beta),
            )
            memo.charge(plan.cells)
            memo.plans[key] = plan
            self.plan_stats["call_plans_built"] += 1
        else:
            self.plan_stats["call_plans_reused"] += 1
        caller.plans[(src, dst)] = plan
        return plan

    def _caller_bit(
        self, caller: ProcSpace, family: str, args: Tuple[str, ...]
    ) -> Dnf:
        return caller_bit(caller.boolprog.lookup(Instance(family, args)))

    def _exit_bit(
        self, callee: ProcSpace, family: str, args: Tuple[str, ...]
    ) -> Dnf:
        return exit_bit(callee.boolprog.lookup(Instance(family, args)))

    def _caller_symmetric(
        self, caller: ProcSpace, family: str, a: str, b: str
    ) -> Dnf:
        """A symmetric (identity/mutex-shaped) caller family in either
        argument order."""
        return either(
            self._caller_bit(caller, family, (a, b)),
            self._caller_bit(caller, family, (b, a)),
        )

    # -- entry-vector construction -----------------------------------------------------------

    def _beta(
        self, binding: Tuple[Tuple[str, str], ...], callee: ProcSpace
    ) -> Dict[str, str]:
        """Caller-visible name of each callee interface variable."""
        beta: Dict[str, str] = dict(binding)
        for static in self.statics:
            beta[static] = static
        for ghost, anchored in callee.ghosts.items():
            if anchored in beta:
                beta[ghost] = beta[anchored]
        return beta

    def _entry_value(
        self,
        instance: Instance,
        beta: Dict[str, str],
        caller: ProcSpace,
        callee: ProcSpace,
    ) -> Dnf:
        family = self.abstraction.family(instance.family)
        has_phantom = any(a in callee.phantoms for a in instance.args)
        if has_phantom:
            return self._phantom_entry_value(
                instance, family, beta, caller, callee
            )
        mapped: List[str] = []
        for arg in instance.args:
            visible = beta.get(arg)
            if visible is None:
                # a callee local (incl. ##ret): null at entry
                return constant(
                    len(set(instance.args)) <= 1
                    and self.abstraction.is_reflexive(family.name)
                )
            mapped.append(visible)
        return self._caller_bit(caller, family.name, tuple(mapped))

    def _phantom_entry_value(
        self,
        instance: Instance,
        family: Family,
        beta: Dict[str, str],
        caller: ProcSpace,
        callee: ProcSpace,
    ) -> Dnf:
        shapes = self.shapes
        args = instance.args
        if family.name in shapes.identity.values():
            return constant(args[0] == args[1])
        if family.name in shapes.mutable_unary.values():
            return FALSE  # a pre-existing iterator is valid at entry
        phantoms = [a for a in args if a in callee.phantoms]
        if len(phantoms) == len(args):
            return FALSE
        phantom = phantoms[0]
        other = next(a for a in args if a not in callee.phantoms)
        other_visible = beta.get(other)
        if other_visible is None:
            return FALSE  # phantom vs. callee local: null at entry
        anchor_ghost = callee.phantoms[phantom]
        anchor_visible = beta.get(anchor_ghost)
        if anchor_visible is None:
            return FALSE
        anchor_sort = callee.variables[anchor_ghost]
        iter_sort = callee.variables[phantom]
        set_sort = shapes.collection_of.get(iter_sort)
        relation = shapes.relation.get((iter_sort, set_sort or ""))
        other_sort = callee.variables.get(other, "")
        if anchor_sort == set_sort:
            # phantom iterates the anchor collection itself
            if family.name == relation and other_sort == set_sort:
                identity_set = shapes.identity.get(set_sort or "")
                if identity_set is None:
                    return FALSE
                if anchor_visible == other_visible:
                    return TRUE
                return self._caller_symmetric(
                    caller, identity_set, anchor_visible, other_visible
                )
            if family.name == shapes.mutex.get(iter_sort):
                if relation is None:
                    return FALSE
                return self._caller_bit(
                    caller,
                    relation,
                    shapes.relation_args(
                        relation, other_visible, anchor_visible
                    ),
                )
            return FALSE
        # phantom shares the anchor iterator's collection
        if family.name == relation and other_sort == set_sort:
            if relation is None:
                return FALSE
            return self._caller_bit(
                caller,
                relation,
                shapes.relation_args(relation, anchor_visible, other_visible),
            )
        if family.name == shapes.mutex.get(iter_sort):
            if other_sort != iter_sort:
                return FALSE
            mutex = shapes.mutex[iter_sort]
            identity_iter = shapes.identity.get(iter_sort)
            linked = self._caller_symmetric(
                caller, mutex, anchor_visible, other_visible
            )
            if identity_iter is None:
                return linked
            if anchor_visible == other_visible:
                return TRUE
            return either(
                linked,
                self._caller_symmetric(
                    caller, identity_iter, anchor_visible, other_visible
                ),
            )
        return FALSE

    # -- return-vector construction ------------------------------------------------------------

    def _return_outputs(
        self,
        caller: ProcSpace,
        stm: SCallClient,
        callee: ProcSpace,
        beta: Dict[str, str],
    ) -> List[Dnf]:
        ghost_of: Dict[str, str] = {}
        for ghost, anchored in callee.ghosts.items():
            visible = beta.get(anchored)
            if visible is not None and visible not in ghost_of:
                ghost_of[visible] = ghost
        result_var = (
            stm.result if RET_VAR in callee.variables else None
        )
        return [
            self._return_value(
                instance, caller, callee, beta, ghost_of, result_var
            )
            for instance in caller.boolprog.instances()
        ]

    def _return_value(
        self,
        instance: Instance,
        caller: ProcSpace,
        callee: ProcSpace,
        beta: Dict[str, str],
        ghost_of: Dict[str, str],
        result_var: Optional[str],
    ) -> Dnf:
        family = self.abstraction.family(instance.family)
        current = self._caller_bit(caller, family.name, instance.args)
        callee_names: List[Optional[str]] = []
        changed: List[bool] = []
        local_positions: List[int] = []
        for pos, arg in enumerate(instance.args):
            if result_var is not None and arg == result_var:
                callee_names.append(RET_VAR)
                changed.append(True)
            elif arg in self.statics:
                callee_names.append(arg)
                changed.append(True)
            elif arg in ghost_of:
                callee_names.append(ghost_of[arg])
                changed.append(False)
            else:
                callee_names.append(None)
                changed.append(False)
                local_positions.append(pos)
        if not local_positions:
            return self._exit_bit(
                callee, family.name,
                tuple(callee_names),  # type: ignore[arg-type]
            )
        mutable = self._family_mutable(family)
        if mutable:
            if family.arity != 1:
                return TRUE  # outside the CMP class: stay sound
            return either(
                current,
                self._invalidated_via_interface(
                    instance.args[0], caller, callee, beta
                ),
            )
        if not any(changed):
            return current  # locals + actuals only: values frozen
        return either(
            self._origin_composition(
                instance, family, caller, callee, beta, callee_names,
                changed,
            ),
            self._fresh_object_composition(
                instance, family, caller, callee, beta, callee_names,
                changed,
            ),
        )

    def _interface_ghosts(
        self, callee: ProcSpace, sort: str
    ) -> List[Tuple[str, str]]:
        return [
            (ghost, anchored)
            for ghost, anchored in callee.ghosts.items()
            if callee.variables[ghost] == sort
        ]

    def _invalidated_via_interface(
        self,
        local: str,
        caller: ProcSpace,
        callee: ProcSpace,
        beta: Dict[str, str],
    ) -> Dnf:
        iter_sort = caller.variables.get(local)
        if iter_sort is None:
            return TRUE
        stale = self.shapes.mutable_unary.get(iter_sort)
        set_sort = self.shapes.collection_of.get(iter_sort)
        relation = self.shapes.relation.get((iter_sort, set_sort or ""))
        mutex = self.shapes.mutex.get(iter_sort)
        identity_iter = self.shapes.identity.get(iter_sort)
        if stale is None:
            return TRUE
        result = FALSE
        for phantom, anchor_ghost in callee.phantoms.items():
            if callee.variables[phantom] != iter_sort:
                continue
            invalidated = self._exit_bit(callee, stale, (phantom,))
            if not invalidated:
                continue
            visible = beta.get(callee.ghosts[anchor_ghost])
            if visible is None:
                continue
            anchor_sort = callee.variables[anchor_ghost]
            if anchor_sort == set_sort and relation is not None:
                reaches = self._caller_bit(
                    caller,
                    relation,
                    self.shapes.relation_args(relation, local, visible),
                )
            elif anchor_sort == iter_sort:
                reaches = FALSE
                if mutex is not None:
                    reaches = self._caller_symmetric(
                        caller, mutex, local, visible
                    )
                if identity_iter is not None:
                    reaches = either(
                        reaches,
                        constant(local == visible),
                        self._caller_symmetric(
                            caller, identity_iter, local, visible
                        ),
                    )
            else:
                continue
            result = either(result, both(invalidated, reaches))
        # the local may *be* one of the passed iterators
        if identity_iter is not None:
            for ghost, anchored in self._interface_ghosts(callee, iter_sort):
                visible = beta.get(anchored)
                if visible is None:
                    continue
                same = either(
                    constant(local == visible),
                    self._caller_symmetric(
                        caller, identity_iter, local, visible
                    ),
                )
                result = either(
                    result,
                    both(same, self._exit_bit(callee, stale, (ghost,))),
                )
        return result

    def _origin_composition(
        self,
        instance: Instance,
        family: Family,
        caller: ProcSpace,
        callee: ProcSpace,
        beta: Dict[str, str],
        callee_names: List[Optional[str]],
        changed: List[bool],
    ) -> Dnf:
        """Reconnect each changed (static / returned) position to an
        entry-time origin via the identity families."""
        identity = self.shapes.identity
        positions = [p for p, c in enumerate(changed) if c]
        pools = [
            self._interface_ghosts(callee, family.sorts[p])
            for p in positions
        ]
        result = FALSE
        for combo in itertools.product(*pools):
            caller_args = list(instance.args)
            visible_ok = True
            for (ghost, anchored), pos in zip(combo, positions):
                visible = beta.get(anchored)
                if visible is None:
                    visible_ok = False
                    break
                caller_args[pos] = visible
            if not visible_ok:
                continue
            linked = self._caller_bit(
                caller, family.name, tuple(caller_args)
            )
            for (ghost, _anchored), pos in zip(combo, positions):
                if not linked:
                    break
                id_family = identity.get(family.sorts[pos])
                name = callee_names[pos]
                if id_family is None or name is None:
                    linked = FALSE
                    break
                linked = both(
                    linked,
                    either(
                        self._exit_bit(callee, id_family, (ghost, name)),
                        self._exit_bit(callee, id_family, (name, ghost)),
                    ),
                )
            result = either(result, linked)
        return result

    def _fresh_object_composition(
        self,
        instance: Instance,
        family: Family,
        caller: ProcSpace,
        callee: ProcSpace,
        beta: Dict[str, str],
        callee_names: List[Optional[str]],
        changed: List[bool],
    ) -> Dnf:
        """A changed position may hold a *callee-created* iterator over a
        pre-existing collection; relation/mutex facts can then hold with
        no identity link.  Handles the two CMP-class shapes."""
        shapes = self.shapes
        if sum(changed) != 1:
            return FALSE
        pos = changed.index(True)
        other = 1 - pos if family.arity == 2 else None
        changed_name = callee_names[pos]
        if changed_name is None or other is None:
            return FALSE
        result = FALSE
        if family.name in shapes.relation.values():
            iter_pos = 0 if family.sorts[0] in shapes.collection_of else 1
            if pos != iter_pos:
                return FALSE  # collections are never callee-fresh *and*
                # related to a pre-existing iterator
            set_sort = family.sorts[1 - iter_pos]
            identity_set = shapes.identity.get(set_sort)
            if identity_set is None:
                return FALSE
            local_set = instance.args[other]
            for ghost, anchored in self._interface_ghosts(callee, set_sort):
                visible = beta.get(anchored)
                if visible is None:
                    continue
                same_at_call = either(
                    constant(visible == local_set),
                    self._caller_bit(
                        caller, identity_set, (visible, local_set)
                    ),
                    self._caller_bit(
                        caller, identity_set, (local_set, visible)
                    ),
                )
                exit_args = (
                    (changed_name, ghost)
                    if iter_pos == 0
                    else (ghost, changed_name)
                )
                result = either(
                    result,
                    both(
                        same_at_call,
                        self._exit_bit(callee, family.name, exit_args),
                    ),
                )
            return result
        if family.name in shapes.mutex.values():
            iter_sort = family.sorts[0]
            set_sort = shapes.collection_of.get(iter_sort)
            relation = shapes.relation.get((iter_sort, set_sort or ""))
            if relation is None:
                return FALSE
            local = instance.args[other]
            for ghost, anchored in self._interface_ghosts(
                callee, set_sort or ""
            ):
                visible = beta.get(anchored)
                if visible is None:
                    continue
                result = either(
                    result,
                    both(
                        self._caller_bit(
                            caller,
                            relation,
                            shapes.relation_args(relation, local, visible),
                        ),
                        self._exit_bit(
                            callee,
                            relation,
                            shapes.relation_args(
                                relation, changed_name, ghost
                            ),
                        ),
                    ),
                )
        return result

    def compile(self) -> Dict[str, ProcSpace]:
        """Every procedure's space with all its call plans compiled: what
        a replay reads, holding nothing of the program.  A procedure
        whose space does not build is left out, as are calls' plans
        into it."""
        for qualified in self.program.methods:
            try:
                self.space(qualified)
            except TransformError:
                continue
        for space in list(self.spaces.values()):
            for src, dst, stm in space.call_edges:
                if stm.callee in self.spaces:
                    self.call_plan(space, src, dst, stm)
        return dict(self.spaces)
