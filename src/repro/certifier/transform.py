"""Client transformation: Jlite CFG → boolean program (Section 4.3, Fig. 6).

Component-reference declarations are replaced by the family instances over
the method's component-typed variables (locals, temps, and statics), and
every component interaction — calls, constructor calls, reference copies,
null assignments — is replaced by the corresponding instantiation of the
derived method abstraction, selected by the *coincidence pattern* of each
instance's arguments against the operation's operands.

This module implements the intraprocedural transformation for SCMP
clients; :mod:`repro.certifier.interproc` builds per-procedure boolean
programs with the same machinery and links them at call/return edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.certifier.boolprog import (
    BoolEdge,
    BoolProgram,
    Check,
    Instance,
    ParallelAssign,
)
from repro.derivation.predicates import (
    DerivedAbstraction,
    Family,
    GenArg,
    InstanceRef,
    OpArg,
    instance_pattern,
)
from repro.lang.cfg import (
    CFG,
    SAssume,
    SCallClient,
    SCallComp,
    SCopy,
    SLoad,
    SNull,
    SStore,
)
from repro.lang.types import Program
from repro.runtime.trace import phase as trace_phase
from repro.logic.terms import Base

#: how many cells (instances, checks, assignments, and the entries of
#: call-site plans) one abstraction's transform memo holds before it
#: starts over.  A cell takes at most about 0.21 KB with its share of the
#: index, templates and plan keys, so this caps the memo near 3.5 MB,
#: nine times the 1,780-cell peak of the benchmark workloads, of which
#: 22 call-site plans take 498 cells (EXPERIMENTS.md E18)
_MEMO_CELLS = 16384


class TransformError(Exception):
    """Raised when a client violates the transformation's assumptions
    (e.g. component references in instance fields for the SCMP pipeline)."""


def _all_tuples(
    variables: Dict[str, str], sorts: Sequence[str]
) -> Iterable[Tuple[str, ...]]:
    """All tuples of client variables matching a family's sorts."""
    pools = []
    for sort in sorts:
        pool = [name for name, type_ in variables.items() if type_ == sort]
        pools.append(pool)
    if any(not pool for pool in pools):
        return
    import itertools

    yield from itertools.product(*pools)


def family_mentions_mutable_field(family: Family, spec) -> bool:
    """True when the family's defining formula reads a field classified
    mutable by the specification (Section 6 mutability)."""
    from repro.logic.formula import EqAtom, map_atoms
    from repro.logic.terms import Field

    mutable = spec.mutable_fields()
    hit = []

    def scan_term(term) -> None:
        while isinstance(term, Field):
            base = term.base
            base_sort = None
            if isinstance(base, Base):
                base_sort = base.sort
            elif isinstance(base, Field):
                base_sort = _term_sort(base, spec)
            if base_sort is not None and (base_sort, term.field) in mutable:
                hit.append(True)
            term = term.base

    def scan(atom):
        if isinstance(atom, EqAtom):
            scan_term(atom.lhs)
            scan_term(atom.rhs)
        return atom

    map_atoms(family.formula, scan)
    return bool(hit)


def _term_sort(term, spec) -> Optional[str]:
    from repro.logic.terms import Field

    if isinstance(term, Base):
        return term.sort
    if isinstance(term, Field):
        base_sort = _term_sort(term.base, spec)
        if base_sort is None or not spec.is_component_type(base_sort):
            return None
        try:
            return spec.field_type(base_sort, term.field)
        except Exception:
            return None
    return None


class _Universe:
    """The instance universe of one variable environment, plus the edge
    templates built over it.

    ``transform_cfg`` registers the universe first, so its instances are
    variables ``0 .. n-1`` of every boolean program built over it; an
    edge template that mentions only universe instances is therefore
    valid, index for index, in each of those programs.
    """

    __slots__ = ("instances", "index", "initially_true", "ops", "nulls")

    def __init__(
        self, abstraction: DerivedAbstraction, variables: Dict[str, str]
    ) -> None:
        instances = [
            Instance(family.name, args)
            for family in abstraction.families
            for args in _all_tuples(variables, family.sorts)
        ]
        self.instances: Tuple[Instance, ...] = tuple(instances)
        self.index: Dict[Instance, int] = {
            instance: index for index, instance in enumerate(instances)
        }
        self.initially_true: Tuple[int, ...] = tuple(
            index
            for index, instance in enumerate(instances)
            if len(set(instance.args)) <= 1
            and abstraction.is_reflexive(instance.family)
        )
        #: (op key, bindings) -> edge template (``_op_template``)
        self.ops: Dict[tuple, tuple] = {}
        #: null-assigned variable -> its assigns
        self.nulls: Dict[str, Tuple[ParallelAssign, ...]] = {}


class _TransformMemo:
    """One abstraction's instance universes, keyed by ordered variable
    environment, the interprocedural call-site plans compiled over them
    (:meth:`repro.certifier.spaces.FactSpaces.call_plan`),
    and the cells they hold.

    Every entry is a pure function of its key, so emptying the memo when
    it would pass ``_MEMO_CELLS`` only costs rebuilding.  A universe
    still in use when the memo empties keeps filling templates, which
    are charged to the emptied memo, so ``cells`` may run ahead of what
    the memo holds but never behind.  A plan key holds its universes
    themselves, so a plan never outlives or aliases the universe it was
    compiled over.
    """

    __slots__ = ("universes", "plans", "cells")

    def __init__(self) -> None:
        self.universes: Dict[tuple, _Universe] = {}
        self.plans: Dict[tuple, object] = {}
        self.cells = 0

    def charge(self, cells: int) -> None:
        if self.cells + cells > _MEMO_CELLS:
            self.universes.clear()
            self.plans.clear()
            self.cells = 0
        self.cells += cells


class ClientTransformer:
    """Builds boolean programs from client methods.

    The symbolic work — instance universes and the per-operation update
    instantiation — depends only on the abstraction, the operation and
    its binding, and the variable environment, so it is memoized on the
    abstraction and shared by every client transformed against it.
    """

    def __init__(
        self,
        program: Program,
        abstraction: DerivedAbstraction,
        *,
        on_client_call: str = "error",
    ) -> None:
        if on_client_call not in ("error", "havoc", "skip"):
            raise ValueError(f"bad on_client_call={on_client_call!r}")
        self.program = program
        self.abstraction = abstraction
        self.spec = abstraction.spec
        self.on_client_call = on_client_call
        #: sorted variable environment -> the universe of the first
        #: environment with that sorted form in this program: instance
        #: order follows that environment's order, so methods declaring
        #: the same variables in another order share its numbering
        self._universes: Dict[tuple, _Universe] = {}
        memo = abstraction.transform_memo
        if memo is None:
            memo = abstraction.transform_memo = _TransformMemo()
        self._memo: _TransformMemo = memo  # type: ignore[assignment]

    # -- instance universe -----------------------------------------------------

    def universe(self, variables: Dict[str, str]) -> _Universe:
        key = tuple(sorted(variables.items()))
        universe = self._universes.get(key)
        if universe is None:
            ordered = tuple(variables.items())
            universe = self._memo.universes.get(ordered)
            if universe is None:
                universe = _Universe(self.abstraction, variables)
                self._memo.charge(len(universe.instances))
                self._memo.universes[ordered] = universe
            self._universes[key] = universe
        return universe

    # -- the transformation ------------------------------------------------------

    def transform_method(self, method: str) -> BoolProgram:
        minfo = self.program.method(method)
        cfg = minfo.cfg
        assert cfg is not None
        variables = self.program.component_vars(method)
        return self.transform_cfg(cfg, variables)

    def transform_inlined(self, inlined) -> BoolProgram:
        """Transform a whole-program inlined CFG (the Section 8
        inlining reference for recursion-free clients)."""
        with trace_phase("transform", target="boolprog") as trace_meta:
            boolprog = self.transform_cfg(
                inlined.cfg, inlined.component_vars()
            )
            trace_meta.update(
                variables=boolprog.num_vars, edges=len(boolprog.edges)
            )
        return boolprog

    def transform_cfg(
        self, cfg: CFG, variables: Dict[str, str]
    ) -> BoolProgram:
        self._check_shallow(cfg)
        universe = self.universe(variables)
        boolprog = BoolProgram(cfg.method)
        boolprog.entry = cfg.entry
        boolprog.exit = cfg.exit
        boolprog.declare(universe.instances, universe.index)
        boolprog.initially_true.extend(universe.initially_true)
        for edge in cfg.edges:
            checks, assigns, filters = self.transform_statement(
                edge.stm, boolprog, variables, universe
            )
            boolprog.add_edge(
                BoolEdge(
                    edge.src,
                    edge.dst,
                    tuple(checks),
                    tuple(assigns),
                    tuple(filters),
                    line=getattr(edge.stm, "line", 0),
                )
            )
        return boolprog

    def _check_shallow(self, cfg: CFG) -> None:
        for edge in cfg.edges:
            stm = edge.stm
            if isinstance(stm, (SLoad, SStore)) and self.spec.is_component_type(
                stm.type
            ):
                raise TransformError(
                    f"{cfg.method}: component reference stored in the heap "
                    f"at line {stm.line} — not an SCMP client; use the "
                    f"first-order (TVLA) pipeline of Section 5"
                )

    # -- per-statement transformation -----------------------------------------------

    def transform_statement(
        self,
        stm,
        boolprog: BoolProgram,
        variables: Dict[str, str],
        universe: _Universe,
    ) -> Tuple[List[Check], List[ParallelAssign], List[Tuple[int, bool]]]:
        checks: List[Check] = []
        assigns: List[ParallelAssign] = []
        filters: List[Tuple[int, bool]] = []
        if isinstance(stm, SCallComp):
            self._comp_op(
                stm.op_key,
                stm.bindings,
                stm.site_id,
                stm.line,
                universe,
                checks,
                assigns,
            )
        elif isinstance(stm, SCopy) and self.spec.is_component_type(stm.type):
            if stm.dst != stm.src:
                self._comp_op(
                    f"copy {stm.type}",
                    (("dst", stm.dst), ("src", stm.src)),
                    site_id=-1,
                    line=stm.line,
                    universe=universe,
                    checks=checks,
                    assigns=assigns,
                )
        elif isinstance(stm, SNull) and self.spec.is_component_type(stm.type):
            self._null_assign(stm.dst, universe, assigns)
        elif isinstance(stm, SAssume):
            self._assume(stm, boolprog, variables, filters)
        elif isinstance(stm, SCallClient):
            if self.on_client_call == "error":
                raise TransformError(
                    f"client call {stm} at line {stm.line}: the "
                    f"intraprocedural SCMP certifier analyses single "
                    f"methods; use the interprocedural certifier "
                    f"(Section 8)"
                )
            if self.on_client_call == "havoc":
                self._havoc_statics(boolprog, universe, assigns)
        # SNop / SReturn / SNewClient / opaque statements: no effect
        return checks, assigns, filters

    def _comp_op(
        self,
        op_key: str,
        bindings: Tuple[Tuple[str, str], ...],
        site_id: int,
        line: int,
        universe: _Universe,
        checks: List[Check],
        assigns: List[ParallelAssign],
    ) -> None:
        template_key = (op_key, bindings)
        template = universe.ops.get(template_key)
        if template is None:
            template = self._op_template(op_key, dict(bindings), universe)
            self._memo.charge(len(template[0]) + len(template[1]))
            universe.ops[template_key] = template
        check_vars, ready = template
        for var in check_vars:
            checks.append(Check(site_id, line, op_key, var))
        assigns.extend(ready)

    def _op_template(
        self, op_key: str, binding: Dict[str, str], universe: _Universe
    ) -> tuple:
        """``(check indices, assigns)`` of the operation over the
        universe.  Operands bind declared component variables, so every
        instance the operation mentions is in the universe."""
        check_instances, assign_triples = self._op_symbolic(
            op_key, binding, universe
        )
        index = universe.index

        def var(instance: Instance) -> int:
            found = index.get(instance)
            if found is None:
                raise TransformError(
                    f"{op_key} mentions {instance}, which is outside the "
                    f"declared component variables"
                )
            return found

        return (
            tuple(var(instance) for instance in check_instances),
            tuple(
                ParallelAssign(
                    var(instance), tuple(var(s) for s in sources), rhs_true
                )
                for instance, sources, rhs_true in assign_triples
            ),
        )

    def _op_symbolic(
        self, op_key: str, binding: Dict[str, str], universe: _Universe
    ) -> tuple:
        """The operation's checks and non-identity updates over the
        universe, as instances."""
        op = self.spec.operation(op_key)
        op_abs = self.abstraction.operations[op_key]
        check_instances = tuple(
            Instance(
                check_ref.family,
                tuple(
                    binding[arg.name]  # type: ignore[union-attr]
                    for arg in check_ref.args
                ),
            )
            for check_ref in op_abs.checks
        )
        assign_triples = []
        for instance in universe.instances:
            pattern, slot_vars = instance_pattern(
                op, self.spec, binding, instance.args
            )
            case = op_abs.case_for(instance.family, pattern)
            if case is None:
                raise TransformError(
                    f"no derived update case for {instance} against "
                    f"{op_key} (pattern {pattern})"
                )
            if case.identity:
                continue
            sources = tuple(
                self._instantiate(ref, binding, slot_vars)
                for ref in case.rhs_instances
            )
            assign_triples.append((instance, sources, case.rhs_true))
        return check_instances, tuple(assign_triples)

    def _instantiate(
        self,
        ref: InstanceRef,
        binding: Dict[str, str],
        slot_vars: Dict[int, str],
    ) -> Instance:
        args = []
        for arg in ref.args:
            if isinstance(arg, OpArg):
                if arg.name not in binding:
                    raise TransformError(
                        f"update references operand {arg.name} with no "
                        f"client binding"
                    )
                args.append(binding[arg.name])
            else:
                assert isinstance(arg, GenArg)
                args.append(slot_vars[arg.slot])
        return Instance(ref.family, tuple(args))

    def _null_assign(
        self,
        dst: str,
        universe: _Universe,
        assigns: List[ParallelAssign],
    ) -> None:
        """``dst = null``: every instance mentioning ``dst`` becomes 0,
        except reflexively-true instances whose arguments are all ``dst``
        (``same(x, x)`` holds for null too)."""
        ready = universe.nulls.get(dst)
        if ready is None:
            ready = tuple(
                ParallelAssign(
                    index,
                    (),
                    set(instance.args) == {dst}
                    and self.abstraction.is_reflexive(instance.family),
                )
                for index, instance in enumerate(universe.instances)
                if dst in instance.args
            )
            self._memo.charge(len(ready))
            universe.nulls[dst] = ready
        assigns.extend(ready)

    def _assume(
        self,
        stm: SAssume,
        boolprog: BoolProgram,
        variables: Dict[str, str],
        filters: List[Tuple[int, bool]],
    ) -> None:
        """Relational-only refinement: ``assume v == w`` filters on a
        tracked instance whose defining formula is exactly ``x0 == x1``
        (the `same` family).  The FDS solver ignores filters — sound,
        since ignoring an assume only adds paths."""
        if stm.rhs == "null":
            return
        for family in self.abstraction.families:
            if family.arity != 2:
                continue
            from repro.logic.formula import EqAtom

            if not isinstance(family.formula, EqAtom):
                continue
            if not (
                isinstance(family.formula.lhs, Base)
                and isinstance(family.formula.rhs, Base)
            ):
                continue
            sort = family.sorts[0]
            if variables.get(stm.lhs) != sort or variables.get(stm.rhs) != sort:
                continue
            var = boolprog.variable(
                Instance(family.name, (stm.lhs, stm.rhs))
            )
            filters.append((var, stm.equal))

    def _havoc_statics(
        self,
        boolprog: BoolProgram,
        universe: _Universe,
        assigns: List[ParallelAssign],
    ) -> None:
        """Conservative treatment of an unanalyzed client call.

        Two effects are possible inside the callee: static component
        variables may be reassigned (invalidating every instance that
        mentions a static), and collections reachable from statics or the
        heap may be mutated (flipping any instance whose defining formula
        reads a *mutable* component field, e.g. ``stale``).  Both are
        over-approximated by letting the affected instances become 1.
        Sound only for may-1 alarms; used by the ``havoc`` policy."""
        static_names = set(self.program.statics)
        for instance in universe.instances:
            family = self.abstraction.family(instance.family)
            affected = any(
                arg in static_names for arg in instance.args
            ) or family_mentions_mutable_field(family, self.spec)
            if affected:
                index = boolprog.variable(instance)
                assigns.append(
                    ParallelAssign(index, (index,), const_true=True)
                )
