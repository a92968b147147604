"""Exhaustive concrete interpreter for Jlite CFGs (the ground truth).

The interpreter executes the client under the *nondeterministic client
semantics*: ``?`` branch conditions take both outcomes, reference
comparisons are evaluated concretely, loops unroll until a per-path step
budget runs out, and every component interaction executes the Easl
specification concretely (:mod:`repro.runtime.jcf`).  A failing
``requires`` terminates the path — mirroring the thrown
``ConcurrentModificationException`` — and records a *real error* at the
site; a null dereference terminates the path silently (an NPE is not a
conformance violation).

Because this is exactly the semantics the certifiers over-approximate,
alarm sets are directly comparable: soundness means every site that can
fail is alarmed; precision is measured by alarms at sites that never fail
(false alarms).  Exploration is bounded (paths × steps), so the ground
truth is a *lower* bound on real errors — the comparison helpers report
whether budgets were exhausted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.lang.cfg import (
    SAssume,
    SCallClient,
    SCallComp,
    SCopy,
    SLoad,
    SNewClient,
    SNop,
    SNull,
    SReturn,
    SStore,
)
from repro.lang.types import MethodInfo, Program
from repro.runtime.jcf import (
    ComponentHeap,
    ComponentObject,
    ConformanceViolation,
    NullDereference,
)


@dataclass(eq=False)
class ClientObject:
    oid: int
    class_name: str
    fields: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<{self.class_name}#{self.oid}>"


Value = Union[ComponentObject, ClientObject, None]


@dataclass
class ExplorationBudget:
    """Caps on the exhaustive exploration."""

    max_paths: int = 20_000
    max_steps_per_path: int = 600
    max_call_depth: int = 24


@dataclass
class SiteTruth:
    site_id: int
    line: int
    op_key: str
    fail_count: int = 0
    pass_count: int = 0

    @property
    def may_fail(self) -> bool:
        return self.fail_count > 0


@dataclass
class GroundTruth:
    """Observed behaviour of every component call site."""

    sites: Dict[int, SiteTruth]
    paths_explored: int
    truncated: bool  # a budget was hit: the truth is a lower bound

    def failing_sites(self) -> set:
        return {s for s, t in self.sites.items() if t.may_fail}

    def failing_lines(self) -> set:
        return {t.line for t in self.sites.values() if t.may_fail}

    def compare(self, alarm_sites: set) -> "PrecisionSummary":
        real = self.failing_sites()
        false_alarms = {s for s in alarm_sites if s not in real}
        missed = real - alarm_sites
        return PrecisionSummary(
            real_errors=len(real),
            alarms=len(alarm_sites),
            false_alarms=len(false_alarms),
            missed_errors=len(missed),
            false_alarm_sites=sorted(false_alarms),
            missed_sites=sorted(missed),
            truth_truncated=self.truncated,
        )


@dataclass
class PrecisionSummary:
    real_errors: int
    alarms: int
    false_alarms: int
    missed_errors: int
    false_alarm_sites: List[int]
    missed_sites: List[int]
    truth_truncated: bool

    @property
    def sound(self) -> bool:
        """No missed errors (required of every certifier)."""
        return self.missed_errors == 0

    @property
    def exact(self) -> bool:
        return self.sound and self.false_alarms == 0


# -- machine state -----------------------------------------------------------------


@dataclass
class _Frame:
    method: MethodInfo
    env: Dict[str, Value]
    node: int
    result_var: Optional[str]  # where the caller wants the return value
    return_value: Value = None


@dataclass
class _State:
    frames: List[_Frame]
    statics: Dict[str, Value]
    steps: int = 0

    def clone(self) -> "_State":
        memo: Dict[int, Value] = {}

        def cv(value: Value) -> Value:
            if value is None:
                return None
            key = id(value)
            if key in memo:
                return memo[key]
            if isinstance(value, ComponentObject):
                fresh = ComponentObject(value.oid, value.class_name, {})
            else:
                fresh = ClientObject(value.oid, value.class_name, {})
            memo[key] = fresh
            for name, fv in value.fields.items():
                fresh.fields[name] = cv(fv)
            return fresh

        frames = [
            _Frame(
                f.method,
                {k: cv(v) for k, v in f.env.items()},
                f.node,
                f.result_var,
                cv(f.return_value),
            )
            for f in self.frames
        ]
        statics = {k: cv(v) for k, v in self.statics.items()}
        return _State(frames, statics, self.steps)


class _PathDead(Exception):
    """Internal: the current path terminated (NPE, violation, budget)."""


def explore(
    program: Program,
    budget: Optional[ExplorationBudget] = None,
    entry: Optional[str] = None,
) -> GroundTruth:
    """Exhaustively explore the client from its entry point."""
    budget = budget or ExplorationBudget()
    heap = ComponentHeap(program.spec)
    sites: Dict[int, SiteTruth] = {
        sid: SiteTruth(sid, cs.line, cs.op_key)
        for sid, cs in program.call_sites.items()
    }
    entry_method = program.method(entry) if entry else program.entry
    initial = _State(
        frames=[
            _Frame(
                entry_method,
                {name: None for name, _t in entry_method.params},
                entry_method.cfg.entry,  # type: ignore[union-attr]
                None,
            )
        ],
        statics={name: None for name in program.statics},
    )
    stack: List[_State] = [initial]
    paths = 0
    truncated = False
    client_ids = itertools.count(1)

    while stack:
        if paths >= budget.max_paths:
            truncated = True
            break
        state = stack.pop()
        # run this path to the next split, termination, or budget
        while True:
            if not state.frames:
                paths += 1
                break
            frame = state.frames[-1]
            cfg = frame.method.cfg
            assert cfg is not None
            if frame.node == cfg.exit:
                # method returns
                returned = frame.return_value
                result_var = frame.result_var
                state.frames.pop()
                if state.frames and result_var is not None:
                    state.frames[-1].env[result_var] = returned
                continue
            edges = cfg.out_edges(frame.node)
            feasible = []
            for edge in edges:
                if isinstance(edge.stm, SAssume):
                    if _assume_holds(edge.stm, frame, state):
                        feasible.append(edge)
                else:
                    feasible.append(edge)
            if not feasible:
                paths += 1
                break
            if state.steps >= budget.max_steps_per_path:
                truncated = True
                paths += 1
                break
            state.steps += 1
            # split on nondeterminism
            for extra in feasible[1:]:
                forked = state.clone()
                try:
                    _step(
                        forked, extra, program, heap, sites, budget, client_ids
                    )
                except _PathDead:
                    paths += 1
                else:
                    stack.append(forked)
            try:
                _step(
                    state, feasible[0], program, heap, sites, budget,
                    client_ids,
                )
            except _PathDead:
                paths += 1
                break

    return GroundTruth(sites, paths, truncated)


def _assume_holds(stm: SAssume, frame: _Frame, state: _State) -> bool:
    lhs = _read(stm.lhs, frame, state)
    rhs = None if stm.rhs == "null" else _read(stm.rhs, frame, state)
    return (lhs is rhs) == stm.equal


def _read(var: str, frame: _Frame, state: _State) -> Value:
    if var in frame.env:
        return frame.env[var]
    if var in state.statics:
        return state.statics[var]
    # an unassigned local reads as null
    return None


def _write(var: str, value: Value, frame: _Frame, state: _State) -> None:
    if var in state.statics:
        state.statics[var] = value
    else:
        frame.env[var] = value


def _step(
    state: _State,
    edge,
    program: Program,
    heap: ComponentHeap,
    sites: Dict[int, SiteTruth],
    budget: ExplorationBudget,
    client_ids,
) -> None:
    frame = state.frames[-1]
    stm = edge.stm
    if isinstance(stm, (SNop, SAssume)):
        pass
    elif isinstance(stm, SCopy):
        _write(stm.dst, _read(stm.src, frame, state), frame, state)
    elif isinstance(stm, SNull):
        _write(stm.dst, None, frame, state)
    elif isinstance(stm, SLoad):
        base = _read(stm.base, frame, state)
        if base is None:
            raise _PathDead()  # NPE
        _write(stm.dst, base.fields.get(stm.field), frame, state)
    elif isinstance(stm, SStore):
        base = _read(stm.base, frame, state)
        if base is None:
            raise _PathDead()  # NPE
        base.fields[stm.field] = _read(stm.src, frame, state)
    elif isinstance(stm, SNewClient):
        cinfo = program.classes[stm.class_name]
        obj = ClientObject(
            next(client_ids),
            stm.class_name,
            {
                name: None
                for name, fi in cinfo.fields.items()
                if not fi.is_static
            },
        )
        _write(stm.dst, obj, frame, state)
    elif isinstance(stm, SCallComp):
        truth = sites[stm.site_id]
        op = program.spec.operation(stm.op_key)
        values = {}
        for operand_name, var in stm.bindings:
            value = _read(var, frame, state)
            if operand_name != "r" and operand_name != "ret":
                if value is not None and not isinstance(
                    value, ComponentObject
                ):
                    raise _PathDead()
                values[operand_name] = value
        try:
            result = heap.execute(op, values)
        except ConformanceViolation:
            truth.fail_count += 1
            raise _PathDead() from None
        except NullDereference:
            raise _PathDead() from None
        truth.pass_count += 1
        result_operand = op.operand("result")
        if result_operand is not None:
            result_var = stm.binding(result_operand.name)
            if result_var is not None:
                _write(result_var, result, frame, state)
    elif isinstance(stm, SCallClient):
        if len(state.frames) >= budget.max_call_depth:
            raise _PathDead()
        callee = program.method(stm.callee)
        env: Dict[str, Value] = {}
        if stm.receiver is not None:
            receiver = _read(stm.receiver, frame, state)
            if receiver is None:
                raise _PathDead()  # NPE
            env["this"] = receiver
        for (pname, _pt), arg in zip(callee.params, stm.args):
            env[pname] = _read(arg, frame, state)
        frame.node = edge.dst  # return point
        state.frames.append(
            _Frame(callee, env, callee.cfg.entry, stm.result)  # type: ignore[union-attr]
        )
        return
    elif isinstance(stm, SReturn):
        if stm.var is not None:
            frame.return_value = _read(stm.var, frame, state)
        frame.node = edge.dst
        return
    else:
        raise TypeError(f"unknown statement {stm!r}")
    frame.node = edge.dst
