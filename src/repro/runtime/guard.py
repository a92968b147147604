"""Cooperative resource governance for the certification engines.

The paper's central trade-off (Sections 6–7) is precision against time
and space: the relational TVLA certifier can blow up where the
independent-attribute and staged certifiers stay cheap.  Production use
therefore needs the ESP-style discipline — *budget the analysis, degrade
precision, keep what you proved* — pushed inside the fixpoint loops,
where a breach can be handled cooperatively instead of fatally.

Three pieces:

* :class:`ResourceGovernor` — a wall-clock deadline, a fixpoint-step
  budget, a structure-count budget and a cooperative :meth:`cancel
  <ResourceGovernor.cancel>` flag.  Every engine polls it (``tick()``)
  once per worklist iteration and reports structure growth through
  :meth:`check_structures <ResourceGovernor.check_structures>`.

* :class:`ResourceExhausted` — the typed breach signal.  It carries a
  :class:`PartialResult`: the alarms confirmed before the breach, the
  sites the engine never settled (conservatively ``unknown``, *never*
  silently passed), and which budget tripped.  Because every engine's
  fixpoint is monotone — states only grow, must-information only weakens
  — an alarm raised mid-run is an alarm of the completed run too, so
  salvaged alarms are sound; only *certification* needs completion.

* :class:`DegradationLadder` / :class:`SiteLedger` — the policy and the
  per-site merge for re-running the unknown residue at cheaper precision
  tiers (e.g. ``tvla-relational → tvla-independent → fds``) with the
  remaining budget.  A breached rung resolves only the sites it alarmed;
  the first rung that *completes* resolves everything still open; sites
  unresolved after the last rung become conservative alarms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.certifier.report import Alarm, CertificationReport

#: every breach kind a :class:`ResourceExhausted` may carry
BREACH_KINDS = (
    "deadline",
    "steps",
    "structures",
    "memory",
    "cancelled",
    "injected",
    "error",
)

#: instance label of the conservative alarm for a never-settled site
UNRESOLVED_INSTANCE = "<unresolved: resource budget exhausted>"


class ResourceExhausted(Exception):
    """An engine breached its resource budget (or was cancelled).

    ``breach`` is one of :data:`BREACH_KINDS`; ``partial`` carries what
    the engine had proved when it stopped (attached by the engine's
    fixpoint loop, so governor-raised instances start without one).
    """

    def __init__(
        self,
        message: str,
        *,
        breach: str = "error",
        partial: Optional["PartialResult"] = None,
    ) -> None:
        super().__init__(message)
        self.breach = breach
        self.partial = partial


class ResourceGovernor:
    """Cooperatively-polled budgets for one certification attempt.

    The deadline is fixed at construction as an *absolute* monotonic
    instant, so :meth:`descend` can hand the remaining wall clock to a
    cheaper ladder rung while resetting the per-rung step and structure
    budgets.
    """

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_structures: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        faults: Optional["FaultHook"] = None,
    ) -> None:
        self.deadline = deadline
        self.max_steps = max_steps
        self.max_structures = max_structures
        self._clock = clock
        self.faults = faults
        self._deadline_at = (
            clock() + deadline if deadline is not None else None
        )
        self.steps = 0
        self._cancel_reason: Optional[str] = None

    # -- state ------------------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self._cancel_reason is not None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation; honoured at the next poll."""
        self._cancel_reason = reason

    def remaining_seconds(self) -> Optional[float]:
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    # -- polling ----------------------------------------------------------------

    def tick(self) -> None:
        """One fixpoint step: count it and enforce every budget.

        The deadline is checked on *every* tick — a poll interval would
        save one clock read per iteration but lets tiny deadlines slip
        past short fixpoints, which the batch runtime relies on.
        """
        self.steps += 1
        if self.faults is not None:
            self.faults.on_poll(self)
        if self._cancel_reason is not None:
            raise ResourceExhausted(
                f"analysis cancelled: {self._cancel_reason}",
                breach="cancelled",
            )
        if self.max_steps is not None and self.steps > self.max_steps:
            raise ResourceExhausted(
                f"fixpoint step budget exhausted "
                f"({self.steps} > {self.max_steps})",
                breach="steps",
            )
        if (
            self._deadline_at is not None
            and self._clock() > self._deadline_at
        ):
            raise ResourceExhausted(
                f"wall-clock deadline exceeded ({self.deadline}s)",
                breach="deadline",
            )

    def check_structures(self, count: int) -> None:
        """Enforce the structure/state-count budget at ``count``."""
        if self.max_structures is not None and count > self.max_structures:
            raise ResourceExhausted(
                f"structure budget exceeded "
                f"({count} > {self.max_structures})",
                breach="structures",
            )

    # -- ladder support ---------------------------------------------------------

    def descend(self) -> "ResourceGovernor":
        """A governor for the next (cheaper) ladder rung.

        Step and structure budgets reset — the cheaper tier gets a fresh
        allowance — but the absolute deadline and any cancellation carry
        over: wall clock is a hard wall for the whole ladder.
        """
        successor = ResourceGovernor(
            max_steps=self.max_steps,
            max_structures=self.max_structures,
            clock=self._clock,
            faults=self.faults,
        )
        successor.deadline = self.deadline
        successor._deadline_at = self._deadline_at
        successor._cancel_reason = self._cancel_reason
        return successor


class FaultHook:
    """Protocol for :attr:`ResourceGovernor.faults` (see
    :mod:`repro.testing.faults` for the deterministic implementation)."""

    def on_poll(self, governor: ResourceGovernor) -> None:  # pragma: no cover
        pass


# -- partial results ------------------------------------------------------------


@dataclass
class PartialResult:
    """What a breached engine run had established when it stopped.

    ``alarms`` are sound against the completed run (monotonicity: states
    only grow, so a mid-run alarm persists); ``unknown_sites`` maps every
    check site *not* alarmed yet to its ``(line, op_key)`` — those sites
    were never certified and must be conservatively flagged or re-run.
    """

    engine: str
    subject: str
    breach: str
    alarms: List[Alarm]
    unknown_sites: Dict[int, Tuple[int, str]]
    nodes_analyzed: int = 0
    nodes_total: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    def alarm_site_ids(self) -> Set[int]:
        return {alarm.site_id for alarm in self.alarms}

    def covered_sites(self) -> Set[int]:
        """Sites the partial result accounts for (alarmed or unknown).

        Soundness under budget means a ground-truth error site is always
        covered — either alarmed already or still marked unknown.
        """
        return self.alarm_site_ids() | set(self.unknown_sites)

    def unknown_alarms(self) -> List[Alarm]:
        """Conservative (non-definite) alarms for every unknown site."""
        return [
            Alarm(
                site_id=site_id,
                line=line,
                op_key=op_key,
                instance=UNRESOLVED_INSTANCE,
                definite=False,
            )
            for site_id, (line, op_key) in sorted(
                self.unknown_sites.items()
            )
        ]

    def to_report(self) -> CertificationReport:
        """A sound, conservative report: unknown sites become alarms."""
        alarms = sorted(
            list(self.alarms) + self.unknown_alarms(),
            key=lambda a: (a.site_id, a.instance),
        )
        stats: Dict[str, object] = dict(self.stats)
        stats.update(
            partial=True,
            breach=self.breach,
            nodes_analyzed=self.nodes_analyzed,
            nodes_total=self.nodes_total,
            unknown_sites=len(self.unknown_sites),
        )
        return CertificationReport(
            subject=self.subject,
            engine=self.engine,
            alarms=alarms,
            stats=stats,
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "breach": self.breach,
            "alarms": len(self.alarms),
            "alarm_lines": sorted({a.line for a in self.alarms}),
            "unknown_sites": len(self.unknown_sites),
            "nodes_analyzed": self.nodes_analyzed,
            "nodes_total": self.nodes_total,
        }


def make_partial(
    *,
    engine: str,
    subject: str,
    breach: str,
    alarms: Iterable[Alarm],
    site_universe: Dict[int, Tuple[int, str]],
    nodes_analyzed: int = 0,
    nodes_total: int = 0,
    stats: Optional[Dict[str, object]] = None,
) -> PartialResult:
    """Build a partial result: unknown = universe minus alarmed sites."""
    alarm_list = list(alarms)
    alarmed = {alarm.site_id for alarm in alarm_list}
    unknown = {
        site_id: info
        for site_id, info in site_universe.items()
        if site_id not in alarmed
    }
    return PartialResult(
        engine=engine,
        subject=subject,
        breach=breach,
        alarms=alarm_list,
        unknown_sites=unknown,
        nodes_analyzed=nodes_analyzed,
        nodes_total=nodes_total,
        stats=dict(stats or {}),
    )


def exhausted_from(error: BaseException, **partial_kwargs) -> ResourceExhausted:
    """Normalize a caught breach into ``ResourceExhausted`` + partial.

    ``error`` may be a :class:`ResourceExhausted` (from the governor or
    an engine-internal budget) or a ``MemoryError``; the partial built
    from ``partial_kwargs`` (see :func:`make_partial`, minus ``breach``)
    is attached unless one is already present.
    """
    if isinstance(error, ResourceExhausted):
        breach = error.breach
    elif isinstance(error, MemoryError):
        breach = "memory"
    else:
        breach = "error"
    partial = make_partial(breach=breach, **partial_kwargs)
    if isinstance(error, ResourceExhausted):
        if error.partial is None:
            error.partial = partial
        return error
    wrapped = ResourceExhausted(
        f"{type(error).__name__}: {error}", breach=breach, partial=partial
    )
    wrapped.__cause__ = error
    return wrapped


# -- site universes -------------------------------------------------------------


def collect_sites(checks: Iterable[object]) -> Dict[int, Tuple[int, str]]:
    """``site_id -> (line, op_key)`` over check-shaped objects."""
    sites: Dict[int, Tuple[int, str]] = {}
    for check in checks:
        sites.setdefault(
            check.site_id,  # type: ignore[attr-defined]
            (check.line, check.op_key),  # type: ignore[attr-defined]
        )
    return sites


def boolprog_sites(program) -> Dict[int, Tuple[int, str]]:
    """Check sites of a transformed boolean program."""
    return collect_sites(
        check for edge in program.edges for check in edge.checks
    )


def node_count(graph) -> int:
    """Nodes of a CFG-shaped ``graph``: its entry and every edge end."""
    nodes = {graph.entry}
    for edge in graph.edges:
        nodes.update((edge.src, edge.dst))
    return len(nodes)


def tvp_sites(tvp) -> Dict[int, Tuple[int, str]]:
    """Check sites of a specialized TVP program."""
    return collect_sites(
        check for edge in tvp.edges for check in edge.action.checks
    )


def op_has_requires(spec, op_key: str) -> bool:
    """Can the operation at a call site raise a conformance alarm?"""
    if op_key.startswith("copy "):
        return False
    if op_key.startswith("new "):
        decl = spec.classes.get(op_key[len("new "):])
        ctor = decl.constructor if decl is not None else None
        return bool(ctor is not None and ctor.requires_clauses())
    class_name, _, method = op_key.partition(".")
    decl = spec.classes.get(class_name)
    mdecl = decl.methods.get(method) if decl is not None else None
    return bool(mdecl is not None and mdecl.requires_clauses())


def cfg_sites(cfg, spec) -> Dict[int, Tuple[int, str]]:
    """Checkable component call sites of a 3-address CFG."""
    from repro.lang.cfg import SCallComp

    return collect_sites(
        edge.stm
        for edge in cfg.edges
        if isinstance(edge.stm, SCallComp)
        and op_has_requires(spec, edge.stm.op_key)
    )


def program_sites(program) -> Dict[int, Tuple[int, str]]:
    """Checkable component call sites of a parsed client program."""
    return {
        site.site_id: (site.line, site.op_key)
        for site in program.call_sites.values()
        if op_has_requires(program.spec, site.op_key)
    }


# -- the degradation ladder -----------------------------------------------------

#: default degradation tails, most precise engine first.  Every tail ends
#: in an engine that cannot blow up (``fds`` is the polynomial staged
#: certifier over the boolean program — the cheapest sound tier).
DEFAULT_LADDER: Dict[str, Tuple[str, ...]] = {
    "tvla-relational": ("tvla-independent", "fds"),
    "tvla-independent": ("fds",),
    "relational": ("fds",),
    "interproc": ("fds",),
    "shapegraph": ("allocsite",),
    "allocsite-recency": ("allocsite",),
}


@dataclass(frozen=True)
class DegradationLadder:
    """An ordered tuple of engine rungs, most precise first."""

    rungs: Tuple[str, ...]

    @classmethod
    def default_for(cls, engine: str) -> "DegradationLadder":
        return cls((engine,) + DEFAULT_LADDER.get(engine, ()))

    @classmethod
    def from_option(cls, option, engine: str) -> Optional["DegradationLadder"]:
        """Resolve a ``CertifyOptions.ladder`` value.

        ``None``/``False``/``()`` disable the ladder; ``True`` selects
        the engine's default tail; a tuple of engine names is explicit.
        """
        if option is None or option is False or option == ():
            return None
        if option is True:
            return cls.default_for(engine)
        return cls(tuple(option))

    def rungs_from(self, engine: str) -> Tuple[str, ...]:
        """The rung sequence starting at ``engine``."""
        if engine in self.rungs:
            return self.rungs[self.rungs.index(engine):]
        return (engine,) + tuple(r for r in self.rungs if r != engine)


class SiteLedger:
    """Per-site verdict accumulation across ladder rungs.

    First resolution wins: a breached rung resolves only the sites it
    *alarmed* (its certifications are not complete, hence not proofs);
    a completed rung resolves every still-open site — certified when it
    raised no alarm there, alarmed otherwise.  Sites still open after
    the last rung surface as conservative :data:`UNRESOLVED_INSTANCE`
    alarms, never as silent passes.
    """

    def __init__(self, universe: Dict[int, Tuple[int, str]]) -> None:
        self.universe = dict(universe)
        self.alarms: Dict[int, List[Alarm]] = {}
        self.certified: Set[int] = set()
        #: alarm sites recovered from *breached* (partial) rungs
        self.salvaged: Set[int] = set()

    def resolved_sites(self) -> Set[int]:
        return self.certified | set(self.alarms)

    def unresolved(self) -> Dict[int, Tuple[int, str]]:
        resolved = self.resolved_sites()
        return {
            site_id: info
            for site_id, info in self.universe.items()
            if site_id not in resolved
        }

    def absorb_partial(self, partial: PartialResult) -> int:
        """Record a breached rung; returns how many sites it salvaged."""
        fresh = 0
        for alarm in partial.alarms:
            if alarm.site_id in self.certified:
                continue
            bucket = self.alarms.setdefault(alarm.site_id, [])
            if alarm.site_id not in self.salvaged and not bucket:
                fresh += 1
            if all(have.instance != alarm.instance for have in bucket):
                bucket.append(alarm)
            self.salvaged.add(alarm.site_id)
            self.universe.setdefault(
                alarm.site_id, (alarm.line, alarm.op_key)
            )
        return fresh

    def absorb_report(self, report: CertificationReport) -> None:
        """Record a completed rung: it settles every still-open site."""
        by_site: Dict[int, List[Alarm]] = {}
        for alarm in report.alarms:
            by_site.setdefault(alarm.site_id, []).append(alarm)
        for site_id in list(self.unresolved()):
            found = by_site.get(site_id)
            if found:
                self.alarms[site_id] = list(found)
            else:
                self.certified.add(site_id)
        for site_id, found in by_site.items():
            if (
                site_id not in self.alarms
                and site_id not in self.certified
            ):
                # alarmed outside the recorded universe: keep it
                self.alarms[site_id] = list(found)
                self.universe.setdefault(
                    site_id, (found[0].line, found[0].op_key)
                )

    def final_alarms(self) -> List[Alarm]:
        out = [
            alarm
            for bucket in self.alarms.values()
            for alarm in bucket
        ]
        for site_id, (line, op_key) in sorted(self.unresolved().items()):
            out.append(
                Alarm(
                    site_id=site_id,
                    line=line,
                    op_key=op_key,
                    instance=UNRESOLVED_INSTANCE,
                    definite=False,
                )
            )
        out.sort(key=lambda a: (a.site_id, a.instance))
        return out
