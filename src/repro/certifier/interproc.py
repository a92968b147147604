"""Context-sensitive interprocedural SCMP certification (Section 8).

The intraprocedural certifier extends to arbitrary (shallow) call graphs
with a *functional* tabulation: each procedure is transformed to a boolean
program over its own instrumentation instances, and summaries
``entry may-1 vector → exit may-1 vector`` are computed per reached entry
vector (value contexts), giving meet-over-all-valid-paths context
sensitivity for the union-distributive may-1 property.  Recursion is
handled by iterating summaries to a fixpoint (they grow monotonically in a
finite lattice), so the whole computation is polynomial in the program
size for a fixed number of component variables per scope.

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
independent may-1 answers is sound.  The whole solver is validated against
exhaustive inlining on the benchmark suite (``tests/test_interproc.py``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

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
from repro.certifier.report import Alarm, CertificationReport
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
from repro.runtime import guard as _guard
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.trace import phase as trace_phase
from repro.util.worklist import PriorityWorklist, reverse_postorder

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

    method: MethodInfo
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


def _binding(
    stm: SCallClient, minfo: MethodInfo
) -> Tuple[Tuple[str, str], ...]:
    """The caller actual each callee formal is bound to at ``stm``:
    the receiver binds ``this``, each argument its parameter."""
    pairs = []
    if stm.receiver is not None and not minfo.is_static:
        pairs.append(("this", stm.receiver))
    pairs.extend(
        (pname, actual)
        for (pname, _pt), actual in zip(minfo.params, stm.args)
    )
    return tuple(pairs)


class InterproceduralCertifier:
    """The Section 8 certifier.

    ``abstraction`` must be derived with ``identity_families=True`` so
    the return compositions can reconnect reassigned references to their
    entry-time origins.
    """

    def __init__(
        self,
        program: Program,
        abstraction: DerivedAbstraction,
        *,
        prune_requires: bool = True,
        governor: Optional[ResourceGovernor] = None,
        summary_store=None,
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
        self.prune_requires = prune_requires
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
        #: cooperative resource budgets, polled in both worklist loops
        self.governor = governor
        #: per-space reverse-postorder priorities for the local fixpoints
        self._rpo: Dict[str, Dict[int, int]] = {}
        #: set by a completed ``certify``: the tabulation fixpoint
        #: (per-context node masks + summary table) for certificate emission
        self.fixpoint: Optional[Dict[str, object]] = None
        self.stats: Dict[str, int] = {
            "contexts": 0,
            "summary_updates": 0,
            "edge_visits": 0,
        }
        #: optional :class:`repro.store.summary.SummaryStore`: completed
        #: context summaries are persisted after certification and
        #: loaded (behind a linear validity re-check) instead of
        #: recomputed on later runs that share library code
        self.summary_store = summary_store
        if summary_store is not None:
            self.stats.update(
                {
                    "summaries_loaded": 0,
                    "summaries_stored": 0,
                    "summary_rejects": 0,
                }
            )
        #: contexts installed from the store this run (validated final
        #: fixpoints: re-analysis cannot grow them, so they are skipped)
        self._loaded: Set[Tuple[str, int]] = set()
        #: contexts whose load already missed or failed validation
        self._load_failed: Set[Tuple[str, int]] = set()
        self._space_keys: Dict[str, str] = {}
        self._analysis_key_memo: Optional[str] = None
        #: per-family memo for the mutability query on the call-mapping
        #: hot path (family names are unique within an abstraction);
        #: recomputing the formula scan per call edge dominated
        #: large-program profiles
        self._mutable_memo: Dict[str, bool] = {}
        #: call-site plans compiled by this certifier, and call sites
        #: whose plan another certifier over the same abstraction (or
        #: another site of this one) had compiled
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

    def _local_worklist(self, qualified: str, boolprog):
        """A fresh per-context worklist over one method's boolean CFG.

        The RPO map is computed once per fact space and reused by every
        (method, entry-vector) context analyzed over it.
        """
        priority = self._rpo.get(qualified)
        if priority is None:
            priority = reverse_postorder(
                boolprog.entry,
                lambda n: [e.dst for e in boolprog.out_edges(n)],
            )
            self._rpo[qualified] = priority
        return PriorityWorklist(priority)

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
            minfo,
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
        binding = _binding(stm, callee.method)
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

    # -- the tabulation ---------------------------------------------------------------------

    def certify(self, entry: Optional[str] = None) -> CertificationReport:
        with trace_phase("fixpoint", engine="interproc") as trace_meta:
            report = self._certify(entry)
            trace_meta.update(
                contexts=self.stats["contexts"],
                edge_visits=self.stats["edge_visits"],
                **self.plan_stats,
            )
        return report

    def _certify(self, entry: Optional[str] = None) -> CertificationReport:
        entry_method = (
            self.program.method(entry) if entry else self.program.entry
        )
        entry_space = self.space(entry_method.qualified)
        memo: Dict[Tuple[str, int], Optional[int]] = {}
        node_states: Dict[Tuple[str, int], Dict[int, int]] = {}
        node_zeros: Dict[Tuple[str, int], Dict[int, int]] = {}
        dependents: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
        worklist: deque = deque()
        queued: Set[Tuple[str, int]] = set()
        alarms: Dict[Tuple[int, str], Alarm] = {}

        def schedule(key: Tuple[str, int]) -> None:
            if key not in memo:
                memo[key] = None
                self.stats["contexts"] += 1
            if key not in queued:
                queued.add(key)
                worklist.append(key)

        root = (entry_method.qualified, entry_space.default_mask)
        # the root context starts from the one concrete initial valuation,
        # so its may-0 complement is exact; callee contexts fall back to
        # the conservative "everything may be 0" default (no definite
        # claims cross a call boundary)
        all_vars = (1 << entry_space.boolprog.num_vars) - 1
        node_zeros[root] = {
            entry_space.boolprog.entry: all_vars & ~entry_space.default_mask
        }
        schedule(root)
        governor = self.governor
        try:
            while worklist:
                if governor is not None:
                    governor.tick()
                    governor.check_structures(self.stats["contexts"])
                key = worklist.popleft()
                queued.discard(key)
                if key in self._loaded:
                    # installed at its validated fixpoint; a re-analysis
                    # cannot grow it (loaded contexts only call other
                    # loaded contexts, all final), so skip the local
                    # pass — but callers that queued behind this context
                    # before a *recursive* validation installed it still
                    # need their call edges re-executed
                    for dependent in dependents.get(key, ()):
                        schedule(dependent)
                    continue
                if (
                    self.summary_store is not None
                    and key not in self._load_failed
                    and self._try_load_summary(
                        key,
                        self._entry_zeros_seed(key, root),
                        memo,
                        node_states,
                        node_zeros,
                        alarms,
                        set(),
                    )
                ):
                    for dependent in dependents.get(key, ()):
                        schedule(dependent)
                    continue
                if self._analyze_context(
                    key, memo, node_states, node_zeros, dependents, schedule,
                    alarms,
                ):
                    for dependent in dependents.get(key, ()):
                        schedule(dependent)
        except (ResourceExhausted, MemoryError) as error:
            # the alarms dict grows monotonically with the tabulation, so
            # everything recorded before the breach is a fixpoint alarm too
            raise _guard.exhausted_from(
                error,
                engine="interproc",
                subject=entry_method.qualified,
                alarms=sorted(
                    alarms.values(), key=lambda a: (a.site_id, a.instance)
                ),
                site_universe=_guard.program_sites(self.program),
                nodes_analyzed=self.stats["contexts"] - len(worklist),
                nodes_total=self.stats["contexts"],
                stats=dict(self.stats),
            )
        if self.summary_store is not None:
            self._persist_summaries(root, memo, node_states, node_zeros)
        alarm_list = sorted(
            alarms.values(), key=lambda a: (a.site_id, a.instance)
        )
        # the full tabulation fixpoint, kept for certificate emission:
        # per-context node masks plus the summary table
        self.fixpoint = {
            "entry": entry_method.qualified,
            "root": root,
            "memo": dict(memo),
            "node_states": node_states,
            "node_zeros": node_zeros,
        }
        return CertificationReport(
            subject=entry_method.qualified,
            engine="interproc",
            alarms=alarm_list,
            stats=dict(self.stats),
        )

    # -- persistent summaries ---------------------------------------------------------
    #
    # A summary is a pure function of (analysis key, fact-space key,
    # entry fingerprint): the local least fixpoint is a monotone join
    # over a finite lattice, so it is schedule-independent, and callee
    # exits feeding it are themselves keyed summaries.  The consumer
    # never trusts a stored payload — `_validate_summary` replays one
    # linear pass over the recorded masks (the certificate checker's
    # no-fixpoint discipline) and anything non-inductive is discarded
    # and recomputed.  An honest store therefore reproduces the cold
    # run's fixpoint bit-for-bit; a tampered-but-inductive payload can
    # only over-approximate it (sound, extra alarms at worst).

    def _analysis_key(self) -> str:
        """Hash of everything global to this analysis configuration."""
        if self._analysis_key_memo is None:
            # local import: repro.cert pulls in the checker, which
            # imports this module (certificate replay shares
            # `edge_transfer`) — a top-level import would cycle
            from repro.cert import model
            from repro.store.summary import summary_analysis_key

            self._analysis_key_memo = summary_analysis_key(
                spec_hash=model.spec_hash(self.spec),
                abstraction_hash=model.abstraction_hash(self.abstraction),
                prune_requires=self.prune_requires,
            )
        return self._analysis_key_memo

    def _space_key(self, qualified: str) -> str:
        """Canonical fingerprint of one procedure's derived fact space.

        Covers everything the local fixpoint and the call mappings read:
        the boolean program (instances, edges, checks, assigns, initial
        mask), the call sites, and the name environment the entry/return
        compositions consult.  Two procedures agreeing here are
        indistinguishable to the tabulation.
        """
        cached = self._space_keys.get(qualified)
        if cached is not None:
            return cached
        from repro.cert import model

        space = self.space(qualified)
        boolprog = space.boolprog
        payload = {
            "calls": [
                [
                    src,
                    dst,
                    stm.callee,
                    stm.receiver,
                    list(stm.args),
                    stm.result,
                ]
                for src, dst, stm in space.call_edges
            ],
            "edges": [
                [
                    edge.src,
                    edge.dst,
                    [
                        [c.site_id, c.line, c.op_key, c.var]
                        for c in edge.checks
                    ],
                    [
                        [a.target, list(a.sources), a.const_true]
                        for a in edge.assigns
                    ],
                    [[var, bool(value)] for var, value in edge.filters],
                ]
                for edge in boolprog.edges
            ],
            "entry": boolprog.entry,
            "exit": boolprog.exit,
            "formals": sorted(space.formals.items()),
            "ghosts": sorted(space.ghosts.items()),
            "initial": format(space.default_mask, "x"),
            "instances": [
                [inst.family, list(inst.args)]
                for inst in boolprog.instances()
            ],
            "num_vars": boolprog.num_vars,
            "phantoms": sorted(space.phantoms.items()),
            "variables": sorted(space.variables.items()),
        }
        key = model.sha256_text(model.canonical_text(payload))
        self._space_keys[qualified] = key
        return key

    def _entry_zeros_seed(self, key: Tuple[str, int], root) -> int:
        """The may-0 mask a context's entry starts from — part of the
        store key because the root context is seeded exactly while
        callee contexts start from "everything may be 0"."""
        space = self.space(key[0])
        all_vars = (1 << space.boolprog.num_vars) - 1
        if key == root:
            return all_vars & ~space.default_mask
        return all_vars

    def _context_store_key(
        self, key: Tuple[str, int], entry_zeros: int
    ) -> str:
        from repro.store.summary import summary_context_key

        return summary_context_key(
            self._analysis_key(),
            self._space_key(key[0]),
            key[1],
            entry_zeros,
        )

    def _try_load_summary(
        self,
        key,
        entry_zeros,
        memo,
        node_states,
        node_zeros,
        alarms,
        visiting,
    ) -> bool:
        """Load-or-fail one context from the summary store.

        Recursively loads the callee contexts the validation pass needs;
        a cycle (recursive client) or any missing/invalid link fails the
        whole chain and the caller computes normally.  Returns True with
        the context *installed* (memo, node masks, alarms) on success.
        """
        if key in self._loaded:
            return True
        if (
            self.summary_store is None
            or key in self._load_failed
            or key in visiting
        ):
            return False
        payload = self.summary_store.get(
            self._context_store_key(key, entry_zeros)
        )
        if payload is None:
            self._load_failed.add(key)
            return False
        visiting.add(key)
        try:
            installed = self._validate_summary(
                key,
                entry_zeros,
                payload,
                memo,
                node_states,
                node_zeros,
                alarms,
                visiting,
            )
        finally:
            visiting.discard(key)
        if not installed:
            self.stats["summary_rejects"] += 1
            self._load_failed.add(key)
        return installed

    def _validate_summary(
        self,
        key,
        entry_zeros,
        payload,
        memo,
        node_states,
        node_zeros,
        alarms,
        visiting,
    ) -> bool:
        """One linear inductiveness pass over a stored context summary.

        Mirrors the certificate checker: no fixpoint is run — every
        recorded edge transfer must already be subsumed by the recorded
        successor masks, the entry masks must cover the context's seed,
        and the recorded exit must equal the summary value.  Alarms are
        regenerated into a scratch dict and merged only on success, so a
        rejected payload leaves no trace.
        """
        from repro.store.summary import SUMMARY_FORMAT

        qualified, entry_vector = key
        space = self.space(qualified)
        boolprog = space.boolprog
        all_vars = (1 << boolprog.num_vars) - 1
        try:
            if payload.get("v") != SUMMARY_FORMAT:
                return False
            if payload.get("num_vars") != boolprog.num_vars:
                return False
            states = {
                int(node): int(mask, 16)
                for node, mask in payload["states"].items()
            }
            zeros = {
                int(node): int(mask, 16)
                for node, mask in payload["zeros"].items()
            }
            exit_mask = int(payload["exit"], 16)
        except (AttributeError, KeyError, TypeError, ValueError):
            return False
        for table in (states, zeros):
            for mask in table.values():
                if mask & ~all_vars:
                    return False
        if exit_mask & ~all_vars:
            return False
        # entry coverage: the recorded entry masks must subsume the seed
        if states.get(boolprog.entry, 0) & entry_vector != entry_vector:
            return False
        if zeros.get(boolprog.entry, 0) & entry_zeros != entry_zeros:
            return False
        calls = {(src, dst): stm for src, dst, stm in space.call_edges}
        scratch: Dict[Tuple[int, str], Alarm] = {}
        governor = self.governor
        for node in set(states) | set(zeros):
            if governor is not None:
                governor.tick()
            mask = states.get(node, 0)
            zmask = zeros.get(node, all_vars)
            for edge in boolprog.out_edges(node):
                self.stats["edge_visits"] += 1
                call_stm = calls.get((edge.src, edge.dst))
                if call_stm is not None:
                    plan = self.call_plan(space, edge.src, edge.dst, call_stm)
                    callee_key = (call_stm.callee, plan.entry(mask))
                    callee_all = (
                        1 << self.space(call_stm.callee).boolprog.num_vars
                    ) - 1
                    # only a *validated* callee summary may discharge a
                    # call edge: computed-in-progress values are partial
                    # and would make the subsumption check vacuous
                    if not self._try_load_summary(
                        callee_key,
                        callee_all,
                        memo,
                        node_states,
                        node_zeros,
                        alarms,
                        visiting,
                    ):
                        return False
                    out = plan.ret(mask, memo[callee_key])
                    zout = all_vars
                else:
                    transferred = self.edge_transfer(
                        boolprog, qualified, edge, mask, zmask, scratch
                    )
                    if transferred is None:
                        continue  # the edge definitely throws: no flow
                    out, zout = transferred
                if out & ~states.get(edge.dst, 0):
                    return False
                if zout & ~zeros.get(edge.dst, 0):
                    return False
        if states.get(boolprog.exit, 0) != exit_mask:
            return False
        # inductive: install as this context's final fixpoint
        if key not in memo:
            self.stats["contexts"] += 1
        memo[key] = exit_mask
        node_states[key] = states
        node_zeros[key] = zeros
        alarms.update(scratch)
        self._loaded.add(key)
        self.stats["summaries_loaded"] += 1
        self.stats["summary_updates"] += 1
        return True

    def _persist_summaries(
        self, root, memo, node_states, node_zeros
    ) -> None:
        """Write every freshly *computed* context to the summary store
        (loaded ones are already there, byte-identical).  Best effort:
        a full disk must not fail a certification that succeeded."""
        from repro.store.summary import SUMMARY_FORMAT

        for key in sorted(memo):
            if key in self._loaded or memo[key] is None:
                continue
            qualified, entry_vector = key
            payload = {
                "entry": format(entry_vector, "x"),
                "exit": format(memo[key], "x"),
                "method": qualified,
                "num_vars": self.space(qualified).boolprog.num_vars,
                "states": {
                    str(node): format(mask, "x")
                    for node, mask in sorted(
                        node_states.get(key, {}).items()
                    )
                },
                "v": SUMMARY_FORMAT,
                "zeros": {
                    str(node): format(mask, "x")
                    for node, mask in sorted(
                        node_zeros.get(key, {}).items()
                    )
                },
            }
            try:
                self.summary_store.put(
                    self._context_store_key(
                        key, self._entry_zeros_seed(key, root)
                    ),
                    payload,
                )
            except OSError:
                return
            self.stats["summaries_stored"] += 1

    def _analyze_context(
        self, key, memo, node_states, node_zeros, dependents, schedule,
        alarms,
    ) -> bool:
        qualified, entry_vector = key
        space = self.space(qualified)
        boolprog = space.boolprog
        all_vars = (1 << boolprog.num_vars) - 1
        states = node_states.setdefault(key, {})
        states[boolprog.entry] = states.get(boolprog.entry, 0) | entry_vector
        zeros = node_zeros.setdefault(key, {})
        zeros.setdefault(boolprog.entry, all_vars)
        calls = {
            (src, dst): stm for src, dst, stm in space.call_edges
        }
        # seed every call-site source already reached: a re-analysis may be
        # triggered by an improved *callee* summary with unchanged caller
        # states, and the call edge must then be re-executed
        seeds = [boolprog.entry] + [
            src for src, _dst, _stm in space.call_edges if src in states
        ]
        local_work = self._local_worklist(qualified, boolprog)
        for seed in seeds:
            local_work.push(seed)
        governor = self.governor
        while local_work:
            if governor is not None:
                governor.tick()
            node = local_work.pop()
            mask = states.get(node, 0)
            zmask = zeros.get(node, all_vars)
            for edge in boolprog.out_edges(node):
                self.stats["edge_visits"] += 1
                call_stm = calls.get((edge.src, edge.dst))
                if call_stm is not None:
                    out = self._call_transfer(
                        key, space, edge, mask, call_stm, memo, dependents,
                        schedule,
                    )
                    if out is None:
                        continue  # callee summary not yet available
                    zout = all_vars  # callee effects: nothing stays definite
                else:
                    transferred = self.edge_transfer(
                        boolprog, qualified, edge, mask, zmask, alarms
                    )
                    if transferred is None:
                        continue
                    out, zout = transferred
                old = states.get(edge.dst, 0)
                old_zero = zeros.get(edge.dst, 0)
                merged = old | out
                merged_zero = old_zero | zout
                if merged != old or merged_zero != old_zero:
                    states[edge.dst] = merged
                    zeros[edge.dst] = merged_zero
                    local_work.push(edge.dst)
        exit_mask = states.get(boolprog.exit, 0)
        previous = memo.get(key)
        merged = exit_mask if previous is None else previous | exit_mask
        if previous is None or merged != previous:
            memo[key] = merged
            self.stats["summary_updates"] += 1
            return True
        return False

    def edge_transfer(
        self, boolprog, qualified, edge, mask, zmask, alarms
    ) -> Optional[Tuple[int, int]]:
        """The non-call boolean edge transfer: check alarms, prune, assign.

        Returns the (may-1, may-0) masks after the edge, or ``None`` when
        the edge definitely throws and kills every execution.  Shared by
        the tabulation and the certificate checker so both replay exactly
        the same semantics.
        """
        out = mask
        zout = zmask
        killed = False
        for check in edge.checks:
            if out >> check.var & 1:
                alarm_key = (
                    check.site_id,
                    str(boolprog.instance(check.var)),
                )
                alarms[alarm_key] = Alarm(
                    site_id=check.site_id,
                    line=check.line,
                    op_key=check.op_key,
                    instance=str(boolprog.instance(check.var)),
                    context=qualified,
                )
            if self.prune_requires:
                if not zout >> check.var & 1:
                    # the checked predicate is definitely 1: every
                    # execution throws here, so nothing flows past this
                    # edge (mirrors the FDS and relational solvers)
                    killed = True
                out &= ~(1 << check.var)
                zout |= 1 << check.var
        if killed:
            return None
        updated = out
        zupdated = zout
        for assign in edge.assigns:
            bit = 1 << assign.target
            value = assign.const_true or any(
                out >> s & 1 for s in assign.sources
            )
            zvalue = not assign.const_true and all(
                zout >> s & 1 for s in assign.sources
            )
            updated = updated | bit if value else updated & ~bit
            zupdated = zupdated | bit if zvalue else zupdated & ~bit
        return updated, zupdated

    def _call_transfer(
        self, caller_key, caller_space, edge, caller_mask, stm, memo,
        dependents, schedule,
    ) -> Optional[int]:
        plan = self.call_plan(caller_space, edge.src, edge.dst, stm)
        callee_key = (stm.callee, plan.entry(caller_mask))
        if callee_key not in memo:
            schedule(callee_key)  # a brand-new context
        dependents.setdefault(callee_key, set()).add(caller_key)
        exit_mask = memo[callee_key]
        if exit_mask is None:
            return None
        return plan.ret(caller_mask, exit_mask)
