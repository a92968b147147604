"""Relational (powerset-of-valuations) solver for transformed clients.

Model-checking-style predicate abstraction tracks *sets of valuations* of
the boolean variables — exponential in the worst case (Section 4.6 notes
prior predicate-abstraction work "relies on model checking techniques
whose complexity is exponential").  This solver exists to validate the
paper's precision claim: on clients transformed with Rule 2 disjunct
splitting, its alarm set coincides with the FDS solver's (property-tested),
while being asymptotically and practically slower.

Because valuations are exact per-path states, ``assume v == w`` branch
conditions can refine the state set through the ``same`` instances —
a small precision edge the independent-attribute solver deliberately
forgoes (and which Rule 2 renders irrelevant for the alarm question).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.certifier.boolprog import (
    BoolProgram,
    valuation_alarms,
    valuation_transfer,
)
from repro.certifier.report import Alarm, CertificationReport
from repro.runtime import guard as _guard
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.trace import phase as trace_phase
from repro.util.worklist import Schedule, Seed


class StateExplosion(ResourceExhausted):
    """The relational state set exceeded the configured budget.

    A :class:`~repro.runtime.guard.ResourceExhausted` with
    ``breach="structures"``; the solver attaches a
    :class:`~repro.runtime.guard.PartialResult` carrying the alarms
    confirmed before the explosion, so a blown-up run still reports the
    sites it did resolve.
    """

    def __init__(
        self, message: str, *, breach: str = "structures", partial=None
    ) -> None:
        super().__init__(message, breach=breach, partial=partial)


@dataclass
class RelationalResult:
    program: BoolProgram
    states: Dict[int, FrozenSet[int]]
    alarms: List[Alarm]
    max_states: int
    iterations: int = 0


class RelationalSolver:
    def __init__(
        self,
        *,
        prune_requires: bool = True,
        apply_filters: bool = True,
        state_budget: int = 200_000,
        governor: Optional[ResourceGovernor] = None,
    ) -> None:
        self.prune_requires = prune_requires
        self.apply_filters = apply_filters
        self.state_budget = state_budget
        self.governor = governor

    def solve(
        self, program: BoolProgram, seed: Optional[Seed] = None
    ) -> RelationalResult:
        """The least fixpoint; ``seed`` (node -> valuation set on a
        predecessor-closed clean region) warm-starts it.  A seeded run
        recovers the cold run's alarm set by replaying the check edges
        over the final states — equal to cold accumulation because
        per-site hits are monotone ORs and the cold run's last transfer
        of each edge saw its source's full final valuation set."""
        governor = self.governor
        step = partial(
            valuation_transfer,
            prune=self.prune_requires,
            apply_filters=self.apply_filters,
        )
        schedule = Schedule(program)
        states, start = schedule.start(
            seed, {program.initial_mask()}, copy=set
        )
        in_degree: Dict[int, int] = {}
        for edge in program.edges:
            in_degree[edge.dst] = in_degree.get(edge.dst, 0) + 1
        max_states = 1
        alarm_hits: Dict[Tuple[int, int], List[bool]] = {}

        def visit(node):
            nonlocal max_states
            current = states.get(node, set())
            grown = []
            for edge in program.out_edges(node):
                outgoing = step(edge, current, alarm_hits)
                target = states.setdefault(edge.dst, set())
                before = len(target)
                # budget check *before* merging, so StateExplosion always
                # reports the consistent pre-overflow count
                size = len(target | outgoing)
                if size > self.state_budget:
                    raise StateExplosion(
                        f"{program.name}: relational state set would grow "
                        f"to {size} (> budget {self.state_budget}) at "
                        f"node {edge.dst} "
                        f"(in-degree {in_degree.get(edge.dst, 0)}); "
                        f"pre-overflow count {before}"
                    )
                if governor is not None:
                    governor.check_structures(size)
                target |= outgoing
                max_states = max(max_states, len(target))
                if len(target) != before:
                    grown.append(edge.dst)
            return grown

        try:
            schedule.run(start, visit, governor=governor)
        except (ResourceExhausted, MemoryError) as error:
            # mid-run alarm_hits only ever gain entries as states grow,
            # so the alarms confirmed so far survive into the fixpoint
            raise _guard.exhausted_from(
                error,
                engine="relational",
                subject=program.name,
                alarms=valuation_alarms(program, alarm_hits),
                site_universe=_guard.boolprog_sites(program),
                nodes_analyzed=len(states),
                nodes_total=_guard.node_count(program),
                stats={
                    "iterations": schedule.iterations,
                    "max_states": max_states,
                },
            )
        if seed is not None:
            # the seeded run never transferred the clean region's edges,
            # so its accumulated hits are partial — replay every check
            # edge over the final states, and recover the cold high-water
            # mark from the final sizes (sets only grow)
            alarm_hits = {}
            for edge in program.edges:
                if not edge.checks:
                    continue
                source = states.get(edge.src)
                if source:
                    step(edge, source, alarm_hits)
            max_states = max(
                1, max((len(vals) for vals in states.values()), default=1)
            )
        alarms = valuation_alarms(program, alarm_hits)
        return RelationalResult(
            program,
            {node: frozenset(vals) for node, vals in states.items()},
            alarms,
            max_states,
            schedule.iterations,
        )


def certify_relational(
    program: BoolProgram,
    *,
    result_sink: Optional[List[RelationalResult]] = None,
    seed: Optional[Seed] = None,
    **kwargs,
) -> CertificationReport:
    solver = RelationalSolver(**kwargs)
    with trace_phase("fixpoint", engine="relational") as trace_meta:
        result = solver.solve(program, seed)
        trace_meta.update(
            max_states=result.max_states, variables=program.num_vars
        )
    if result_sink is not None:
        result_sink.append(result)
    return CertificationReport(
        subject=program.name,
        engine="relational",
        alarms=result.alarms,
        stats={
            "max_states": result.max_states,
            "variables": program.num_vars,
        },
    )
