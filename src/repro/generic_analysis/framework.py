"""Shared machinery for the generic (Section 3) certifiers.

A *heap domain* supplies abstract transformers for the statement forms of
the 3-address CFG plus must/may equality queries.  The framework:

1. inlines the client (``repro.lang.inline``) to form the composite
   program;
2. flattens each component operation's Easl body once (reusing the WP
   stage's flattener, so generic and staged certification interpret the
   very same specification statements);
3. runs a join-over-all-paths fixpoint, executing specification bodies
   abstractly at each ``SCallComp`` edge;
4. reports an alarm at every ``requires`` whose alias condition is not
   *must*-true in the fixpoint state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.certifier.report import Alarm, CertificationReport
from repro.easl.spec import ComponentSpec, Operation
from repro.easl.wp import (
    NAssignField,
    NAssignVar,
    NAssume,
    NBranch,
    _Flattener,
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
from repro.logic.compile import CondFn, compile_condition
from repro.logic.formula import EqAtom, Formula
from repro.logic.terms import Base, Field, Fresh, Term
from repro.runtime import guard as _guard
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.trace import phase as trace_phase
from repro.util.worklist import Schedule, Seed


class HeapDomain(ABC):
    """Abstract heap transformers over immutable states."""

    @abstractmethod
    def initial(self) -> object:
        """The entry state: every variable null."""

    @abstractmethod
    def join(self, a: object, b: object) -> object:
        ...

    @abstractmethod
    def copy_var(self, state: object, dst: str, src: str) -> object:
        ...

    @abstractmethod
    def set_null(self, state: object, dst: str) -> object:
        ...

    @abstractmethod
    def load(self, state: object, dst: str, base: str, fieldname: str) -> object:
        ...

    @abstractmethod
    def store(self, state: object, base: str, fieldname: str, src: str) -> object:
        ...

    @abstractmethod
    def alloc(self, state: object, dst: str, site: str) -> object:
        ...

    @abstractmethod
    def must_equal(self, state: object, lhs: str, rhs: str) -> bool:
        ...

    @abstractmethod
    def may_equal(self, state: object, lhs: str, rhs: str) -> bool:
        ...

    def assume_equal(
        self, state: object, lhs: str, rhs: str, equal: bool
    ) -> Optional[object]:
        """Refine under a branch condition; None = infeasible.  The
        default performs no refinement."""
        return state

    def assume_null(
        self, state: object, var: str, is_null: bool
    ) -> Optional[object]:
        return state

    def forget(self, state: object, variables: Iterable[str]) -> object:
        """Drop temporary variables (spec locals) from the state."""
        result = state
        for var in variables:
            result = self.set_null(result, var)
        return result

    def state_to_json(self, state: object) -> object:
        """Serialize a state to a canonical JSON value (sorted lists, no
        sets) for certificate emission.  Round-trips exactly through
        :meth:`state_from_json` so the checker's equality tests see the
        same states the fixpoint saw."""
        raise NotImplementedError(
            f"{type(self).__name__} does not serialize states"
        )

    def state_from_json(self, payload: object) -> object:
        raise NotImplementedError(
            f"{type(self).__name__} does not deserialize states"
        )


@dataclass
class GenericResult:
    report: CertificationReport
    node_states: Dict[int, object]
    iterations: int


# -- specification-body execution ----------------------------------------------------


@dataclass(frozen=True)
class _Assume:
    """A flattened ``requires`` with its condition compiled."""

    test: CondFn


@dataclass(frozen=True)
class _Branch:
    """A flattened ``if`` with its condition compiled."""

    test: CondFn
    then_body: tuple
    else_body: tuple


def _compiled(stmts) -> tuple:
    """``stmts`` with every condition compiled (see :func:`compile_condition`)."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, NAssume):
            stmt = _Assume(compile_condition(stmt.cond))
        elif isinstance(stmt, NBranch):
            stmt = _Branch(
                compile_condition(stmt.cond),
                _compiled(stmt.then_body),
                _compiled(stmt.else_body),
            )
        out.append(stmt)
    return tuple(out)


class _SpecRunner:
    """Abstractly executes flattened Easl operation bodies.

    Each operation is flattened once, its conditions compiled as it is,
    so the compiled closures live (and die) with the runner."""

    def __init__(self, spec: ComponentSpec, domain: HeapDomain) -> None:
        self.spec = spec
        self.domain = domain
        self._flattened: Dict[str, tuple] = {}
        self._temp_id = 0

    def flattened(self, op: Operation) -> tuple:
        if op.key not in self._flattened:
            flattener = _Flattener(self.spec, op.key)
            self._flattened[op.key] = _compiled(
                flattener.flatten_operation(op)
            )
        return self._flattened[op.key]

    def run(
        self,
        state: object,
        op: Operation,
        binding: Dict[str, str],
        site_id: int,
        line: int,
        check_sink: Optional[List[Tuple[int, int, str, bool]]],
    ) -> List[object]:
        """Execute one operation; returns successor states.

        ``check_sink`` (when provided) accumulates
        ``(site_id, line, op_key, must_ok)`` tuples for each ``requires``
        encountered.
        """
        env: Dict[str, str] = {}
        temps: List[str] = []
        for operand in op.operands:
            if operand.name in binding:
                env[operand.name] = binding[operand.name]
        states = self._run_stmts(
            self.flattened(op), state, env, temps, op, site_id, line,
            check_sink,
        )
        return [self.domain.forget(s, temps) for s in states]

    # -- statement execution -------------------------------------------------------

    def _run_stmts(
        self, stmts, state, env, temps, op, site_id, line, check_sink
    ) -> List[object]:
        states = [state]
        for stmt in stmts:
            next_states: List[object] = []
            for current in states:
                next_states.extend(
                    self._run_stmt(
                        stmt, current, env, temps, op, site_id, line,
                        check_sink,
                    )
                )
            states = next_states
            if not states:
                break
        return states

    def _run_stmt(
        self, stmt, state, env, temps, op, site_id, line, check_sink
    ) -> List[object]:
        if isinstance(stmt, NAssignVar):
            value_var, state = self._eval_term(
                stmt.rhs, state, env, temps, site_id
            )
            target = self._var_for_base(stmt.var, env, temps)
            return [self.domain.copy_var(state, target, value_var)]
        if isinstance(stmt, NAssignField):
            base_var, state = self._eval_term(
                stmt.base, state, env, temps, site_id
            )
            value_var, state = self._eval_term(
                stmt.rhs, state, env, temps, site_id
            )
            return [self.domain.store(state, base_var, stmt.field, value_var)]
        if isinstance(stmt, _Assume):
            value, state = self._eval_cond_3(
                stmt.test, state, env, temps, site_id
            )
            if check_sink is not None:
                check_sink.append((site_id, line, op.key, value is True))
            return [state]
        if isinstance(stmt, _Branch):
            value, state = self._eval_cond_3(
                stmt.test, state, env, temps, site_id
            )
            results: List[object] = []
            if value is not False:
                results.extend(
                    self._run_stmts(
                        stmt.then_body, state, dict(env), temps, op,
                        site_id, line, check_sink,
                    )
                )
            if value is not True:
                results.extend(
                    self._run_stmts(
                        stmt.else_body, state, dict(env), temps, op,
                        site_id, line, check_sink,
                    )
                )
            return results
        raise TypeError(f"unknown normalized statement {stmt!r}")

    def _fresh_temp(self, hint: str) -> str:
        self._temp_id += 1
        return f"$g{self._temp_id}${hint}"

    def _var_for_base(self, base: Base, env: Dict[str, str], temps) -> str:
        if base.name in env:
            return env[base.name]
        temp = f"$spec${base.name}"
        env[base.name] = temp
        if temp not in temps:
            temps.append(temp)
        return temp

    def _eval_term(
        self, term: Term, state, env, temps, site_id
    ) -> Tuple[str, object]:
        if isinstance(term, Base):
            if term.name == "null":
                temp = self._fresh_temp("null")
                temps.append(temp)
                return temp, self.domain.set_null(state, temp)
            return self._var_for_base(term, env, temps), state
        if isinstance(term, Fresh):
            key = f"$nu${term.label}"
            if key not in env:
                env[key] = self._fresh_temp("nu")
                temps.append(env[key])
                state = self.domain.alloc(
                    state, env[key], f"spec:{site_id}:{term.label}"
                )
            return env[key], state
        assert isinstance(term, Field)
        base_var, state = self._eval_term(term.base, state, env, temps, site_id)
        temp = self._fresh_temp(term.field)
        temps.append(temp)
        state = self.domain.load(state, temp, base_var, term.field)
        return temp, state

    def _eval_cond_3(
        self, compiled: CondFn, state, env, temps, site_id
    ):
        """3-valued condition evaluation: True / False / None (unknown).

        The connective layer runs through the condition's compiled
        closure; only atom evaluation — which threads the abstract state
        through term materialization — stays here.
        """

        def eval_atom(atom: Formula, state):
            if not isinstance(atom, EqAtom):
                raise TypeError(f"unsupported condition atom {atom!r}")
            lhs, state = self._eval_term(
                atom.lhs, state, env, temps, site_id
            )
            rhs, state = self._eval_term(
                atom.rhs, state, env, temps, site_id
            )
            if self.domain.must_equal(state, lhs, rhs):
                return True, state
            if not self.domain.may_equal(state, lhs, rhs):
                return False, state
            return None, state

        return compiled(state, eval_atom)


# -- the fixpoint ------------------------------------------------------------------------


def analyze_generic(
    inlined: InlinedProgram,
    domain: HeapDomain,
    engine_name: str,
    max_iterations: int = 200_000,
    governor: Optional[ResourceGovernor] = None,
    seed: Optional[Seed] = None,
) -> GenericResult:
    """Run a generic heap analysis over the composite program.

    ``seed`` (node -> heap state on a predecessor-closed clean region)
    warm-starts it: joins are idempotent and states only climb, so the
    seeded run closes on the cold fixpoint, and the alarm pass runs
    post-hoc over the final states either way."""
    with trace_phase("fixpoint", engine=engine_name) as trace_meta:
        result = _analyze_generic(
            inlined, domain, engine_name, max_iterations, governor, seed,
        )
        trace_meta["iterations"] = result.iterations
    return result


def _collect_alarms(cfg, states, domain, runner) -> List[Alarm]:
    """Evaluate the requires clauses over the given node states."""
    checks: List[Tuple[int, int, str, bool]] = []
    for edge in cfg.edges:
        state = states.get(edge.src)
        if state is None:
            continue
        _transfer(edge.stm, state, domain, runner, checks)
    return alarms_from_checks(checks)


def alarms_from_checks(checks) -> List[Alarm]:
    """One alarm per site with a ``requires`` that was not must-true."""
    alarms: List[Alarm] = []
    seen = set()
    for site_id, line, op_key, ok in checks:
        if ok or site_id in seen:
            continue
        seen.add(site_id)
        alarms.append(
            Alarm(
                site_id=site_id,
                line=line,
                op_key=op_key,
                instance="<heap must-alias check>",
            )
        )
    alarms.sort(key=lambda a: a.site_id)
    return alarms


def _analyze_generic(
    inlined: InlinedProgram,
    domain: HeapDomain,
    engine_name: str,
    max_iterations: int,
    governor: Optional[ResourceGovernor] = None,
    seed: Optional[Seed] = None,
) -> GenericResult:
    spec = inlined.program.spec
    runner = _SpecRunner(spec, domain)
    cfg = inlined.cfg
    schedule = Schedule(cfg)
    states, start = schedule.start(seed, domain.initial())

    def visit(node):
        state = states.get(node)
        if state is None:
            return ()
        grown = []
        for edge in cfg.out_edges(node):
            for successor in _transfer(edge.stm, state, domain, runner, None):
                old = states.get(edge.dst)
                merged = (
                    successor if old is None else domain.join(old, successor)
                )
                if old is None or merged != old:
                    states[edge.dst] = merged
                    if governor is not None:
                        governor.check_structures(len(states))
                    grown.append(edge.dst)
        return grown

    try:
        # the step budget raises a plain RuntimeError, not a
        # ResourceExhausted: a generic analysis that runs away is a
        # defect, not a budget to salvage
        iterations = schedule.run(
            start, visit, governor=governor, limit=max_iterations,
            exceeded=lambda: RuntimeError(
                f"{engine_name}: fixpoint exceeded {max_iterations} steps"
            ),
        )
    except (ResourceExhausted, MemoryError) as error:
        # salvage: sites that *already* fail their must-alias check in
        # the mid-run states are alarmed; everything else stays unknown
        # (must-info can still weaken as states grow, so a mid-run pass
        # is never treated as certifying)
        raise _guard.exhausted_from(
            error,
            engine=engine_name,
            subject=cfg.method,
            alarms=_collect_alarms(cfg, states, domain, runner),
            site_universe=_guard.cfg_sites(cfg, spec),
            nodes_analyzed=len(states),
            nodes_total=_guard.node_count(cfg),
            stats={"iterations": schedule.iterations},
        )
    # final pass: evaluate the requires clauses in the settled states
    alarms = _collect_alarms(cfg, states, domain, runner)
    report = CertificationReport(
        subject=cfg.method,
        engine=engine_name,
        alarms=alarms,
        stats={"iterations": iterations, "edges": len(cfg.edges)},
    )
    return GenericResult(report, states, iterations)


def _transfer(stm, state, domain: HeapDomain, runner: _SpecRunner, checks):
    if isinstance(stm, (SNop, SReturn)):
        return [state]
    if isinstance(stm, SCopy):
        return [domain.copy_var(state, stm.dst, stm.src)]
    if isinstance(stm, SNull):
        return [domain.set_null(state, stm.dst)]
    if isinstance(stm, SLoad):
        return [domain.load(state, stm.dst, stm.base, stm.field)]
    if isinstance(stm, SStore):
        return [domain.store(state, stm.base, stm.field, stm.src)]
    if isinstance(stm, SNewClient):
        return [domain.alloc(state, stm.dst, f"client:{stm.line}:{stm.class_name}")]
    if isinstance(stm, SCallComp):
        op = runner.spec.operation(stm.op_key)
        return runner.run(
            state, op, stm.binding_map, stm.site_id, stm.line, checks
        )
    if isinstance(stm, SAssume):
        if stm.rhs == "null":
            refined = domain.assume_null(state, stm.lhs, stm.equal)
        else:
            refined = domain.assume_equal(state, stm.lhs, stm.rhs, stm.equal)
        return [refined] if refined is not None else []
    raise TypeError(f"unknown statement {stm!r}")
