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

Fact spaces and call-site plans (ghosts, identity families, phantom
iterators) are :mod:`repro.certifier.spaces`; this module holds the
tabulation over them and the persistent summary database.  The whole
solver is validated against exhaustive inlining on the benchmark suite
(``tests/test_interproc.py``).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Dict, Optional, Set, Tuple

from repro.certifier.boolprog import record_alarms, replay, transfer
from repro.certifier.report import Alarm, CertificationReport
from repro.certifier.spaces import FactSpaces
from repro.derivation.predicates import DerivedAbstraction
from repro.lang.types import Program
from repro.runtime import guard as _guard
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.trace import phase as trace_phase
from repro.util.worklist import Schedule


class InterproceduralCertifier:
    """The Section 8 certifier: a tabulation over the client's
    :class:`~repro.certifier.spaces.FactSpaces` (so ``abstraction``
    must be derived with ``identity_families=True``)."""

    def __init__(
        self,
        program: Program,
        abstraction: DerivedAbstraction,
        *,
        prune_requires: bool = True,
        governor: Optional[ResourceGovernor] = None,
        summary_store=None,
    ) -> None:
        self.facts = FactSpaces(program, abstraction)
        self.program = program
        self.abstraction = abstraction
        self.prune_requires = prune_requires
        #: cooperative resource budgets, polled in both worklist loops
        self.governor = governor
        #: per-space worklist schedules for the local fixpoints, shared
        #: by every (method, entry-vector) context over one space
        self._schedules: Dict[str, Schedule] = {}
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

    # -- the tabulation ---------------------------------------------------------------------

    def certify(self, entry: Optional[str] = None) -> CertificationReport:
        with trace_phase("fixpoint", engine="interproc") as trace_meta:
            report = self._certify(entry)
            trace_meta.update(
                contexts=self.stats["contexts"],
                edge_visits=self.stats["edge_visits"],
                **self.facts.plan_stats,
            )
        return report

    def _certify(self, entry: Optional[str] = None) -> CertificationReport:
        entry_method = (
            self.program.method(entry) if entry else self.program.entry
        )
        entry_space = self.facts.space(entry_method.qualified)
        memo: Dict[Tuple[str, int], Optional[int]] = {}
        node_states: Dict[Tuple[str, int], Dict[int, int]] = {}
        node_zeros: Dict[Tuple[str, int], Dict[int, int]] = {}
        #: callee context -> its callers, insertion-ordered (a dict used
        #: as an ordered set) so re-queue order never follows the hash seed
        dependents: Dict[Tuple[str, int], Dict[Tuple[str, int], None]] = {}
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
    # never trusts a stored payload — `_validate_summary` runs the
    # certificate checker's own pass (`boolprog.replay`) over the
    # recorded masks, and anything it rejects is discarded and
    # recomputed.  An honest store therefore reproduces the cold run's
    # fixpoint bit-for-bit; a tampered-but-inductive payload can only
    # over-approximate it (sound, extra alarms at worst).

    def _analysis_key(self) -> str:
        """Hash of everything global to this analysis configuration."""
        if self._analysis_key_memo is None:
            # local import: the repro.cert package loads the checker,
            # which loads repro.api, which imports this module
            from repro.cert import model
            from repro.store.summary import summary_analysis_key

            self._analysis_key_memo = summary_analysis_key(
                spec_hash=model.spec_hash(self.abstraction.spec),
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

        space = self.facts.space(qualified)
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
        space = self.facts.space(key[0])
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
        """Install a stored context summary if the checker's replay
        accepts it.

        No fixpoint runs: :func:`replay` confirms the recorded masks are
        inductive from the context's seed, a call edge is discharged only
        by a recursively loaded and validated callee summary, and the
        recorded exit must equal the exit node's may-1 mask.  Alarms are
        regenerated into a scratch dict and merged only on success, so a
        rejected payload leaves no trace.
        """
        from repro.store.summary import SUMMARY_FORMAT

        qualified, entry_vector = key
        space = self.facts.space(qualified)
        boolprog = space.boolprog
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
        if states.keys() != zeros.keys():
            return False
        masks = {node: (one, zeros[node]) for node, one in states.items()}
        governor = self.governor
        if governor is not None:
            for _node in masks:  # one step per node, as the tabulation
                governor.tick()

        def callee_return(edge, stm, mask):
            plan = self.facts.call_plan(space, edge.src, edge.dst, stm)
            callee_key = (stm.callee, plan.entry(mask))
            callee_all = (1 << self.facts.space(stm.callee).boolprog.num_vars) - 1
            # only a *validated* callee summary may discharge a call
            # edge: computed-in-progress values are partial and would
            # make the subsumption check vacuous
            if not self._try_load_summary(
                callee_key, callee_all, memo, node_states, node_zeros,
                alarms, visiting,
            ):
                return None
            return plan.ret(mask, memo[callee_key])

        scratch: Dict[Tuple[int, str], Alarm] = {}
        # a Violation never equals a mask
        if exit_mask != replay(
            boolprog, masks, entry_vector, entry_zeros, self.prune_requires,
            space.call_map(), callee_return,
            partial(
                record_alarms, boolprog, qualified, scratch,
                self.prune_requires,
            ),
        ):
            return False
        self.stats["edge_visits"] += boolprog.edges_leaving(masks)
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
                "num_vars": self.facts.space(qualified).boolprog.num_vars,
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
        space = self.facts.space(qualified)
        boolprog = space.boolprog
        all_vars = (1 << boolprog.num_vars) - 1
        states = node_states.setdefault(key, {})
        states[boolprog.entry] = states.get(boolprog.entry, 0) | entry_vector
        zeros = node_zeros.setdefault(key, {})
        zeros.setdefault(boolprog.entry, all_vars)
        calls = space.call_map()
        # seed every call-site source already reached: a re-analysis may be
        # triggered by an improved *callee* summary with unchanged caller
        # states, and the call edge must then be re-executed
        seeds = [boolprog.entry] + [
            src for src, _dst, _stm in space.call_edges if src in states
        ]
        local = self._schedules.get(qualified)
        if local is None:
            local = self._schedules[qualified] = Schedule(boolprog)
        prune = self.prune_requires

        def visit(node):
            mask = states.get(node, 0)
            zmask = zeros.get(node, all_vars)
            grown = []
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
                    if edge.checks:
                        record_alarms(
                            boolprog, qualified, alarms, prune, edge, mask
                        )
                    transferred = transfer(edge, mask, zmask, prune)
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
                    grown.append(edge.dst)
            return grown

        local.run(seeds, visit, governor=self.governor)
        exit_mask = states.get(boolprog.exit, 0)
        previous = memo.get(key)
        merged = exit_mask if previous is None else previous | exit_mask
        if previous is None or merged != previous:
            memo[key] = merged
            self.stats["summary_updates"] += 1
            return True
        return False

    def _call_transfer(
        self, caller_key, caller_space, edge, caller_mask, stm, memo,
        dependents, schedule,
    ) -> Optional[int]:
        plan = self.facts.call_plan(caller_space, edge.src, edge.dst, stm)
        callee_key = (stm.callee, plan.entry(caller_mask))
        if callee_key not in memo:
            schedule(callee_key)  # a brand-new context
        dependents.setdefault(callee_key, {})[caller_key] = None
        exit_mask = memo[callee_key]
        if exit_mask is None:
            return None
        return plan.ret(caller_mask, exit_mask)
