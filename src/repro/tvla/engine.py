"""The TVLA fixpoint engine (Section 5.5).

Interprets TVP actions over 3-valued structures in two modes:

* ``mode="relational"`` — the set of canonically-abstracted structures
  arising at each program point, with *focus* materializing individuals
  so the pointer formulas named by each action evaluate definitely;
* ``mode="independent"`` — one structure per point approximating all of
  them (no focus; joins blur disagreements to ``1/2``).

``requires`` checks raise an alarm unless their condition is definitely
true; with ``prune_requires`` the analysis then assumes the component
threw — matching the dynamic CME check — by forcing the checked nullary
predicate false on the surviving state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.certifier.report import Alarm, CertificationReport
from repro.logic import packed as packed_kernel
from repro.logic.formula import Not, PredAtom
from repro.logic.kleene import FALSE3, HALF, TRUE3
from repro.logic.packed import PackedStructure
from repro.runtime import guard as _guard
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.trace import phase as trace_phase
from repro.tvp.program import Action, TvpProgram
from repro.util.worklist import Schedule, Seed


class TvlaBudgetExceeded(ResourceExhausted):
    """An engine-internal TVLA budget tripped (iterations/structures)."""

    def __init__(
        self, message: str, *, breach: str = "steps", partial=None
    ) -> None:
        super().__init__(message, breach=breach, partial=partial)


@dataclass
class _CheckContribution:
    """Accumulated evaluations of one ``requires`` check site.

    ``alarmed`` is an OR over contributing structures (any evaluation
    that was not definitely-true alarms); ``all_fail`` is an AND (the
    alarm is *definite* only when every structure reaching the check —
    including ones where it passes — evaluated definitely-false).
    """

    line: int
    op_key: str
    instance: str
    alarmed: bool
    all_fail: bool

    def merge(self, alarmed: bool, all_fail: bool) -> None:
        self.alarmed = self.alarmed or alarmed
        self.all_fail = self.all_fail and all_fail


@dataclass
class TvlaResult:
    report: CertificationReport
    iterations: int
    max_structures: int
    #: per-(action, canonical-key) transfer memoization counters
    transfer_hits: int = 0
    transfer_misses: int = 0
    #: the fixpoint annotation for certificate emission: relational mode
    #: records the per-node structure sets (keyed canonically),
    #: independent mode the single per-node structure
    node_states: Optional[Dict[int, object]] = None


class TvlaEngine:
    def __init__(
        self,
        tvp: TvpProgram,
        *,
        mode: str = "relational",
        prune_requires: bool = True,
        focus_budget: int = 64,
        structure_budget: int = 4000,
        iteration_budget: int = 200_000,
    ) -> None:
        if mode not in ("relational", "independent"):
            raise ValueError(f"unknown mode {mode!r}")
        self.tvp = tvp
        self.mode = mode
        self.prune_requires = prune_requires
        self.focus_budget = focus_budget
        self.structure_budget = structure_budget
        self.iteration_budget = iteration_budget
        self.abstraction_preds = tvp.abstraction_predicates()
        #: (action identity, input canonical key) ->
        #: ([(output key, output structure)], alarm contributions).
        #: Persistent across runs: a session certifying many clients
        #: against one specialized TVP replays recorded transfers (and
        #: their alarm contributions) instead of re-running
        #: focus / checks / update / coerce.
        self._transfers: Dict[
            Tuple[int, object],
            Tuple[
                List[Tuple[object, PackedStructure]],
                Dict[Tuple[int, str], _CheckContribution],
            ],
        ] = {}
        #: action identity -> (check evaluators, update evaluators),
        #: resolved once here and keyed like ``_transfers`` (the TVP
        #: keeps its actions alive).  A formula outside the TVP logic
        #: raises CompileError now, before any fixpoint; focus formulas
        #: are only read for their atom and are not compiled.
        self._evaluators: Dict[int, tuple] = {}
        for edge in tvp.edges:
            action = edge.action
            if id(action) not in self._evaluators:
                self._evaluators[id(action)] = (
                    tuple(
                        packed_kernel.compile_packed_formula(check.cond)
                        for check in action.checks
                    ),
                    tuple(
                        packed_kernel.compile_update_plane(u.rhs, u.vars)
                        if u.vars
                        else packed_kernel.compile_packed_formula(u.rhs)
                        for u in action.updates
                    ),
                )

    # -- initial state -------------------------------------------------------------------

    def initial_structure(self) -> PackedStructure:
        structure = PackedStructure()
        for pred in getattr(self.tvp, "initially_true_nullary", []):
            structure.set(pred, (), TRUE3)
        return structure

    # -- focus ----------------------------------------------------------------------------

    def _focus_one(
        self, structure: PackedStructure, pred: str
    ) -> List[PackedStructure]:
        """Make the unary ``pred`` definite on every individual."""
        pending = [structure]
        finished: List[PackedStructure] = []
        while pending:
            current = pending.pop()
            half_node = next(
                (
                    n
                    for n in current.nodes
                    if current.get(pred, (n,)) is HALF
                ),
                None,
            )
            if half_node is None:
                finished.append(current)
                continue
            if (
                len(finished) + len(pending) >= self.focus_budget
            ):  # give up focusing: keep the indefinite structure
                finished.append(current)
                continue
            positive = current.copy()
            positive.set(pred, (half_node,), TRUE3)
            negative = current.copy()
            negative.set(pred, (half_node,), FALSE3)
            pending.extend([positive, negative])
            if current.summary.get(half_node, False):
                split = current.copy()
                clone = split.duplicate_node(half_node)
                split.set(pred, (half_node,), TRUE3)
                split.set(pred, (clone,), FALSE3)
                pending.append(split)
        return finished

    def _focus(
        self, structure: PackedStructure, action: Action
    ) -> List[PackedStructure]:
        if self.mode != "relational":
            return [structure]
        structures = [structure]
        for formula in action.focus:
            if not isinstance(formula, PredAtom) or len(formula.args) != 1:
                continue  # only unary focus is implemented
            next_round: List[PackedStructure] = []
            for s in structures:
                next_round.extend(self._focus_one(s, formula.name))
            structures = next_round
        return structures

    # -- one action -----------------------------------------------------------------------

    def apply(
        self,
        structure: PackedStructure,
        action: Action,
        alarm_sink: Optional[Dict[Tuple[int, str], _CheckContribution]],
    ) -> List[PackedStructure]:
        results: List[PackedStructure] = []
        for focused in self._focus(structure, action):
            survivor = self._check(focused, action, alarm_sink)
            if survivor is None:
                continue
            results.append(self._update(survivor, action))
        return results

    def _check(
        self,
        structure: PackedStructure,
        action: Action,
        alarm_sink: Optional[Dict[Tuple[int, str], _CheckContribution]],
    ) -> Optional[PackedStructure]:
        current = structure
        compiled = self._evaluators[id(action)][0]
        for check, evaluate in zip(action.checks, compiled):
            value = evaluate(current)
            if alarm_sink is not None:
                # record *every* evaluation, passing ones included: an
                # alarm is definite only when no structure reaching the
                # check can pass it
                key = (check.site_id, str(check.cond))
                alarmed = value is not TRUE3
                all_fail = value is FALSE3
                existing = alarm_sink.get(key)
                if existing is None:
                    alarm_sink[key] = _CheckContribution(
                        line=check.line,
                        op_key=check.op_key,
                        instance=str(check.cond),
                        alarmed=alarmed,
                        all_fail=all_fail,
                    )
                else:
                    existing.merge(alarmed, all_fail)
            if value is TRUE3:
                continue
            if value is FALSE3 and self.prune_requires:
                return None  # the exception definitely fires
            if self.prune_requires and isinstance(check.cond, Not):
                body = check.cond.body
                if isinstance(body, PredAtom) and not body.args:
                    current = current.copy()
                    current.set(body.name, (), FALSE3)
        return current

    def _update(
        self, structure: PackedStructure, action: Action
    ) -> PackedStructure:
        pre = structure
        post = structure.copy()
        env: Dict[str, int] = {}
        if action.new_var is not None:
            node = post.new_node(summary=False)
            env[action.new_var] = node
            # the new node does not exist in the pre-state; evaluate rhs
            # formulas in the post-universe minus predicate changes, so
            # re-point `pre` at a copy that has the node with all-0 values
            pre = post.copy()
        compiled = self._evaluators[id(action)][1]
        for update, evaluate in zip(action.updates, compiled):
            if not update.vars:
                post.set(update.pred, (), evaluate(pre, env))
                continue
            # bulk bitwise transfer: one plane evaluation computes the
            # predicate's whole valuation
            t, h = packed_kernel.evaluate_update_plane(pre, evaluate, env)
            post.set_plane(update.pred, len(update.vars), t, h)
        return post.canonicalize(self.abstraction_preds)

    # -- the fixpoint ----------------------------------------------------------------------

    def run(
        self,
        governor: Optional[ResourceGovernor] = None,
        seed: Optional[Seed] = None,
    ) -> TvlaResult:
        """The fixpoint; ``seed`` (node -> canonical-key bucket in
        relational mode, node -> structure in independent mode, on a
        predecessor-closed clean region) warm-starts it.  The seeded run
        converges to the same least fixpoint as a cold run, and alarms
        are then recovered by a checker-style replay over the final
        states, which coincides with cold-run accumulation because
        per-site contributions are monotone (``alarmed`` ORs,
        ``all_fail`` ANDs) and every structure the cold run ever applied
        persists in the final relational buckets."""
        with trace_phase(
            "fixpoint", engine=f"tvla-{self.mode}"
        ) as trace_meta:
            result = self._run(governor, seed)
            trace_meta.update(
                iterations=result.iterations,
                max_structures=result.max_structures,
            )
        return result

    def _replay_checks(
        self, states: Dict[int, object]
    ) -> Dict[Tuple[int, str], _CheckContribution]:
        """Evaluate every check edge over the final states (focus + check
        only — updates cannot touch the alarm sink), exactly what the
        independent checker's alarm-entailment pass does."""
        alarms: Dict[Tuple[int, str], _CheckContribution] = {}
        for edge in self.tvp.edges:
            if not edge.action.checks:
                continue
            if self.mode == "relational":
                for structure in states.get(edge.src, {}).values():
                    for focused in self._focus(structure, edge.action):
                        self._check(focused, edge.action, alarms)
            else:
                current = states.get(edge.src)
                if current is not None:
                    self._check(current, edge.action, alarms)
        return alarms

    def _run(
        self,
        governor: Optional[ResourceGovernor] = None,
        seed: Optional[Seed] = None,
    ) -> TvlaResult:
        started = time.perf_counter()
        alarms: Dict[Tuple[int, str], _CheckContribution] = {}
        preds = self.abstraction_preds
        initial = self.initial_structure().canonicalize(preds)
        max_structures = 1
        transfer_hits = 0
        transfer_misses = 0
        out_edges = self.tvp.out_edges
        schedule = Schedule(self.tvp)
        if self.mode == "relational":
            states, start = schedule.start(
                seed, {initial.canonical_key(preds): initial}, copy=dict
            )
        else:
            states, start = schedule.start(seed, initial)
        # isomorphic structures share a canonical key, so a revisited
        # (action, structure) pair — within this run or a later one —
        # skips focus / checks / update / coerce and replays its
        # recorded alarm contributions instead
        transfers = self._transfers

        def visit_relational(node):
            nonlocal max_structures, transfer_hits, transfer_misses
            here = list(states.get(node, {}).items())
            grown = []
            for edge in out_edges(node):
                action_id = id(edge.action)
                for skey, structure in here:
                    cached = transfers.get((action_id, skey))
                    if cached is None:
                        transfer_misses += 1
                        local: Dict[Tuple[int, str], _CheckContribution] = {}
                        cached = (
                            [
                                (out.canonical_key(preds), out)
                                for out in self.apply(
                                    structure, edge.action, local
                                )
                            ],
                            local,
                        )
                        transfers[(action_id, skey)] = cached
                    else:
                        transfer_hits += 1
                    outs, contribs = cached
                    # merge recorded contributions: `alarmed` ORs and
                    # `all_fail` ANDs over every contribution at a site,
                    # so the replay is idempotent and order-independent
                    for akey, contrib in contribs.items():
                        existing = alarms.get(akey)
                        if existing is None:
                            alarms[akey] = replace(contrib)
                        else:
                            existing.merge(contrib.alarmed, contrib.all_fail)
                    bucket = states.setdefault(edge.dst, {})
                    changed = False
                    for okey, out in outs:
                        if okey in bucket:
                            continue
                        bucket[okey] = out
                        changed = True
                        max_structures = max(max_structures, len(bucket))
                        if len(bucket) > self.structure_budget:
                            raise TvlaBudgetExceeded(
                                f"more than {self.structure_budget} "
                                f"structures at node {edge.dst}",
                                breach="structures",
                            )
                        if governor is not None:
                            governor.check_structures(len(bucket))
                    if changed:
                        grown.append(edge.dst)
            return grown

        def visit_independent(node):
            current = states.get(node)
            if current is None:
                return ()
            grown = []
            for edge in out_edges(node):
                for out in self.apply(current, edge.action, alarms):
                    old = states.get(edge.dst)
                    if old is None:
                        merged = out
                    else:
                        merged = PackedStructure.join(
                            old, out, preds
                        ).canonicalize(preds)
                    old_key = None if old is None else old.canonical_key(preds)
                    if old_key != merged.canonical_key(preds):
                        states[edge.dst] = merged
                        grown.append(edge.dst)
            return grown

        try:
            iterations = schedule.run(
                start,
                (
                    visit_relational
                    if self.mode == "relational"
                    else visit_independent
                ),
                governor=governor,
                limit=self.iteration_budget,
                exceeded=lambda: TvlaBudgetExceeded(
                    "iteration budget exceeded"
                ),
            )
        except (ResourceExhausted, MemoryError) as error:
            # salvage: alarm contributions only accumulate (`alarmed`
            # ORs upward), so sites alarmed mid-run stay alarmed in the
            # completed run
            raise _guard.exhausted_from(
                error,
                engine=f"tvla-{self.mode}",
                subject=self.tvp.name,
                alarms=_alarm_list(alarms),
                site_universe=_guard.tvp_sites(self.tvp),
                nodes_analyzed=len(states),
                nodes_total=len(self.tvp.nodes()),
                stats={
                    "iterations": schedule.iterations,
                    "max_structures": max_structures,
                },
            )
        if seed is not None:
            # a seeded run never applied the clean region's transfers, so
            # its accumulated contributions are partial — recover the
            # cold-run alarm set by a checker-style replay of every check
            # edge over the final states (equal to cold accumulation: see
            # run), and the cold-run structure high-water mark from the
            # final bucket sizes (buckets only grow, so the cold running
            # max is the final max)
            alarms = self._replay_checks(states)
            if self.mode == "relational":
                max_structures = max(
                    1, max((len(b) for b in states.values()), default=1)
                )
            else:
                max_structures = 1
        alarm_list = _alarm_list(alarms)
        report = CertificationReport(
            subject=self.tvp.name,
            engine=f"tvla-{self.mode}",
            alarms=alarm_list,
            stats={
                "iterations": iterations,
                "max_structures": max_structures,
                "abstraction_preds": len(preds),
                "transfer_hits": transfer_hits,
                "transfer_misses": transfer_misses,
                "seconds": round(time.perf_counter() - started, 4),
            },
        )
        return TvlaResult(
            report,
            iterations,
            max_structures,
            transfer_hits,
            transfer_misses,
            node_states=states,
        )


def _alarm_list(
    alarms: Dict[Tuple[int, str], _CheckContribution],
) -> List[Alarm]:
    return sorted(
        (
            Alarm(
                site_id=site_id,
                line=contrib.line,
                op_key=contrib.op_key,
                instance=contrib.instance,
                definite=contrib.all_fail,
            )
            for (site_id, _cond), contrib in alarms.items()
            if contrib.alarmed
        ),
        key=lambda a: (a.site_id, a.instance),
    )
