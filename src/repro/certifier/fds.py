"""The precise polynomial-time SCMP solver (Section 4.3).

Every assignment in the transformed client has the form ``p0 := p1 ∨ … ∨
pk``, ``p := 0`` or ``p := 1`` — crucially, *no negation on the right-hand
side*.  "May ``p`` be 1 at point ``n``" is therefore a union-distributive
reachability property: a path witnessing ``pi = 1`` immediately before the
statement also witnesses ``p0 = 1`` immediately after it, so per-variable
may-1 sets lose nothing against the relational collecting semantics.  This
is the engine-level content of the paper's claim that the derived
abstraction "enables the use of an efficient independent attribute
analysis without losing the precision of relational analysis"
(Section 4.6), and it is property-tested against exhaustive path
enumeration in ``tests/test_fds_precision.py``.

States are bitmasks (one bit per instance: "may be 1 here"), so the
worklist iteration runs in O(E·B²/w) — the paper's O(E·B²) with word-level
parallelism.

The solver also tracks a conservative *may-0* bit per variable (``p`` may
be 0): union-distributivity does not hold for may-0 (``p0 = 0`` needs all
``pi = 0`` on the same path), so may-0 is over-approximated independently;
it is used only to flag *definite* errors (alarm sites where the checked
predicate must be 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.certifier.boolprog import (
    BoolEdge,
    BoolProgram,
    collect_alarms,
    transfer,
)
from repro.certifier.report import Alarm, CertificationReport
from repro.runtime import guard as _guard
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.trace import phase as trace_phase
from repro.util.worklist import Schedule, Seed


@dataclass
class FdsResult:
    """Per-node may-1 / may-0 bitmasks plus the alarm list."""

    program: BoolProgram
    may_one: Dict[int, int]
    may_zero: Dict[int, int]
    alarms: List[Alarm]
    iterations: int
    #: how each (node, var) first became possibly-1 (witness traces)
    provenance: Dict[Tuple[int, int], tuple] = field(default_factory=dict)

    def may_be_one(self, node: int, var: int) -> bool:
        return bool(self.may_one.get(node, 0) >> var & 1)

    def may_be_zero(self, node: int, var: int) -> bool:
        return bool(self.may_zero.get(node, 0) >> var & 1)


class FdsSolver:
    """Worklist solver for the independent-attribute (FDS) analysis."""

    def __init__(
        self,
        *,
        prune_requires: bool = True,
        governor: Optional[ResourceGovernor] = None,
    ) -> None:
        #: assume a checked predicate is 0 after a passing check — the
        #: component throws on violation, so later states only arise from
        #: passing executions (the A2 ablation toggles this)
        self.prune_requires = prune_requires
        #: cooperative resource budgets, polled once per iteration
        self.governor = governor

    def solve(
        self, program: BoolProgram, seed: Optional[Seed] = None
    ) -> FdsResult:
        """The least fixpoint; ``seed`` (node -> (may-1, may-0) masks on
        a predecessor-closed clean region) warm-starts it.  Merges are
        bitwise ORs, so a seeded run reaches exactly the cold fixpoint,
        and alarms are collected post-hoc from the final masks either
        way."""
        init_one = program.initial_mask()
        all_vars = (1 << program.num_vars) - 1
        provenance: Dict[Tuple[int, int], tuple] = {}
        schedule = Schedule(program)
        masks, start = schedule.start(seed, (init_one, all_vars & ~init_one))
        prune = self.prune_requires
        out_edges = program.out_edges

        def visit(node):
            one, zero = masks[node]
            grown = []
            for edge in out_edges(node):
                transferred = transfer(edge, one, zero, prune)
                if transferred is None:
                    continue  # definite failure: the edge kills all executions
                old_one, old_zero = masks.get(edge.dst, (0, 0))
                merged_one = old_one | transferred[0]
                merged_zero = old_zero | transferred[1]
                fresh = merged_one & ~old_one
                if fresh:
                    self._record_provenance(provenance, edge, one, fresh)
                if fresh or merged_zero != old_zero:
                    masks[edge.dst] = (merged_one, merged_zero)
                    grown.append(edge.dst)
            return grown

        try:
            schedule.run(start, visit, governor=self.governor)
        except (ResourceExhausted, MemoryError) as error:
            # salvage: mid-run may-1 sets are a subset of the fixpoint's,
            # so alarms collected now persist into the completed run
            raise _guard.exhausted_from(
                error,
                engine="fds",
                subject=program.name,
                alarms=collect_alarms(program, masks, provenance),
                site_universe=_guard.boolprog_sites(program),
                nodes_analyzed=len(masks),
                nodes_total=_guard.node_count(program),
                stats={"iterations": schedule.iterations},
            )
        return FdsResult(
            program,
            {node: pair[0] for node, pair in masks.items()},
            {node: pair[1] for node, pair in masks.items()},
            collect_alarms(program, masks, provenance),
            schedule.iterations,
            provenance,
        )

    def _record_provenance(
        self,
        provenance: Dict,
        edge: BoolEdge,
        source_mask: int,
        fresh: int,
    ) -> None:
        """Record how each freshly-1 bit at ``edge.dst`` arose."""
        assigned = {a.target: a for a in edge.assigns}
        var = 0
        while fresh:
            if fresh & 1:
                key = (edge.dst, var)
                if key not in provenance:
                    assign = assigned.get(var)
                    if assign is None:
                        cause = (edge.src, var, edge)  # propagation
                    elif assign.const_true:
                        cause = (edge.src, None, edge)
                    else:
                        source = next(
                            (
                                s
                                for s in assign.sources
                                if source_mask >> s & 1
                            ),
                            None,
                        )
                        cause = (edge.src, source, edge)
                    provenance[key] = cause
            fresh >>= 1
            var += 1


def certify_fds(
    program: BoolProgram,
    *,
    prune_requires: bool = True,
    governor: Optional[ResourceGovernor] = None,
    result_sink: Optional[List[FdsResult]] = None,
    seed: Optional[Seed] = None,
) -> CertificationReport:
    """Convenience wrapper returning a report for one boolean program.

    ``result_sink``, when given, receives the full :class:`FdsResult` so
    that certificate emission can read the fixpoint annotation without
    widening the report type.
    """
    with trace_phase("fixpoint", engine="fds") as trace_meta:
        result = FdsSolver(
            prune_requires=prune_requires,
            governor=governor,
        ).solve(program, seed)
        trace_meta.update(
            iterations=result.iterations, variables=program.num_vars
        )
    if result_sink is not None:
        result_sink.append(result)
    return CertificationReport(
        subject=program.name,
        engine="fds",
        alarms=result.alarms,
        stats={
            "iterations": result.iterations,
            "variables": program.num_vars,
            "edges": len(program.edges),
        },
    )
