"""The batch-certification runtime.

Certification is an amortized workload: one specification, many clients
(the staging argument of Section 1.3; the certificate-enhanced-analysis
lineage makes the same point for proof-carrying code).  This module runs
a *manifest* of (client, spec, engine) jobs on a
:mod:`concurrent.futures` process pool:

* **timeouts & fallback** — every job gets a wall-clock budget, enforced
  *cooperatively* by a :class:`~repro.runtime.guard.ResourceGovernor`
  polled inside the engine fixpoint (so timed-out jobs surface the
  partial result they had proved); a POSIX interval timer at roughly
  twice the budget remains as a backstop against non-cooperative hangs.
  A job that blows its budget is re-run on its configured fallback
  engine (e.g. a ``tvla-relational`` job falls back to ``fds``) and
  marked ``fallback`` rather than failing the batch;
* **crash retry** — jobs run on the supervised pool of
  :mod:`repro.runtime.executor`: a worker that dies (OOM-killed,
  segfault) breaks the pool, which is rebuilt with exponential backoff;
  affected jobs are retried up to a per-job retry budget, and exhausted
  jobs degrade to error results instead of poisoning the rest of the
  batch;
* **deterministic results** — results come back in manifest order no
  matter the completion order;
* **checkpoint/resume** — with a checkpoint directory every finished
  job is appended (fsynced) to a per-run JSONL journal as it
  completes; a re-run with ``resume=True`` (``repro batch --resume``)
  restores journaled results instead of re-certifying, after
  re-verifying any emitted certificate file against the journaled
  SHA-256 — a tampered or torn certificate sends the job back to the
  pool.  The run id defaults to a hash of the manifest's job
  identities, so resuming the same manifest finds its own journal;
* **shared caching** — the parent derives every abstraction the manifest
  needs *once* into :data:`~repro.runtime.executor.WARM_ABSTRACTIONS`
  before the pool starts; forked workers inherit the warm cache for
  free, spawned ones receive a pickled copy via the pool initializer;
* **observability** — workers certify under a
  :class:`~repro.runtime.trace.CollectingTracer`; the per-phase events
  travel back with each result, and :meth:`BatchResult.write_trace`
  emits them as JSONL together with one summary record per job.

Manifest format (JSON)::

    {
      "spec": "cmp",                      // batch-wide default spec
      "defaults": {"engine": "auto", "timeout": 30, "fallback": "fds"},
      "jobs": [
        {"name": "fig3", "suite": "fig3", "engine": "fds"},
        {"client": "clients/cart.jl", "engine": "tvla-relational",
         "timeout": 5, "fallback": "tvla-independent"},
        {"name": "inline", "source": "class Main { ... }",
         "spec": "grp", "options": {"prune_requires": false}}
      ]
    }

Each job names its client one of three ways: ``suite`` (a program from
:mod:`repro.suite`), ``client`` (a path, relative to the manifest), or
``source`` (inline Jlite text).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.certifier.report import CertificationReport
from repro.runtime.cache import CacheStats
from repro.runtime.executor import (
    WARM_ABSTRACTIONS,
    PoisonedRequest,
    WorkerSupervisor,
)
from repro.store.io import StoreIO
from repro.runtime.guard import ResourceExhausted
from repro.runtime.trace import (
    CollectingTracer,
    JsonlTracer,
    TraceEvent,
    note,
    use_tracer,
)

#: retries allowed per job for transient worker death
DEFAULT_MAX_RETRIES = 2
#: base of the exponential retry backoff, seconds
DEFAULT_RETRY_BACKOFF = 0.25


class JobTimedOut(Exception):
    """Raised inside a worker when a job exceeds its wall-clock budget."""


class ManifestError(ValueError):
    """The manifest is malformed."""


# -- job descriptions ----------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One certification job: a client, a spec, an engine, budgets."""

    name: str
    spec: str  # registered spec name (``repro.easl.library.get_spec``)
    source: str  # Jlite client text
    engine: str = "auto"
    timeout: Optional[float] = None  # seconds; None = unlimited
    fallback: Optional[str] = None  # engine to retry with after a timeout
    fallback_timeout: Optional[float] = None  # None = unlimited fallback
    options: "CertifyOptions" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.options is None:
            from repro.api import CertifyOptions

            object.__setattr__(self, "options", CertifyOptions())


@dataclass(frozen=True)
class _WorkItem:
    """One attempt at a job, as shipped to a worker."""

    index: int
    job: JobSpec
    engine: str
    timeout: Optional[float]
    is_fallback: bool = False


@dataclass
class _JobOutcome:
    """What a worker reports back for one attempt."""

    status: str  # "ok" | "timeout" | "error"
    engine: str
    certified: Optional[bool] = None
    subject: Optional[str] = None
    alarms: int = 0
    alarm_lines: List[int] = field(default_factory=list)
    #: full alarm payloads (JSON dicts), for the result envelope
    alarm_json: List[dict] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None
    events: List[TraceEvent] = field(default_factory=list)
    pid: int = 0
    #: which budget tripped, when the attempt breached (see
    #: :data:`repro.runtime.guard.BREACH_KINDS`)
    breach: Optional[str] = None
    #: alarm sites salvaged from the partial result / ladder
    salvaged: Optional[int] = None
    #: check sites the breached run never settled
    unknown_sites: Optional[int] = None
    #: cheapest ladder rung the session degraded to (None = no ladder)
    degraded_to: Optional[str] = None
    #: serialized proof-carrying certificate (the byte-stable text of
    #: :class:`repro.cert.ConformanceCertificate`), when the job ran
    #: with ``emit_certificate=True``
    certificate: Optional[str] = None
    #: how the attempt died, when it did not return normally: a worker
    #: process vanishing is ``"signal"`` (classified by the runner), a
    #: worker-side Python exception is ``"exception"``, a blown budget
    #: (cooperative or SIGALRM backstop) is ``"timeout"``
    crash_kind: Optional[str] = None


@dataclass
class JobResult:
    """The final, post-fallback/post-retry verdict for one job."""

    job: JobSpec
    status: str  # "ok" | "fallback" | "timeout" | "error"
    engine_used: str
    fallback: bool = False
    retries: int = 0
    certified: Optional[bool] = None
    subject: Optional[str] = None
    alarms: int = 0
    alarm_lines: List[int] = field(default_factory=list)
    alarm_json: List[dict] = field(default_factory=list)
    seconds: float = 0.0  # summed over every attempt
    error: Optional[str] = None
    events: List[TraceEvent] = field(default_factory=list)
    breach: Optional[str] = None
    salvaged: Optional[int] = None
    unknown_sites: Optional[int] = None
    degraded_to: Optional[str] = None
    #: where the runner wrote this job's certificate (``--emit-certs``)
    certificate_path: Optional[str] = None
    #: crash classification when the job did not finish cleanly:
    #: "signal" | "exception" | "timeout" (None for clean finishes)
    crash_kind: Optional[str] = None
    #: True when this result was restored from a checkpoint journal
    #: instead of being re-certified
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "fallback")

    def phase_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for event in self.events:
            totals[event.phase] = totals.get(event.phase, 0.0) + event.seconds
        return totals

    def summary_record(self) -> Dict[str, object]:
        return {
            "phase": "job",
            "job": self.job.name,
            "seconds": round(self.seconds, 6),
            "ts": 0.0,
            "meta": {
                "status": self.status,
                "engine": self.job.engine,
                "engine_used": self.engine_used,
                "fallback": self.fallback,
                "retries": self.retries,
                "certified": self.certified,
                "alarms": self.alarms,
                "error": self.error,
                "breach": self.breach,
                "salvaged": self.salvaged,
                "degraded_to": self.degraded_to,
                "crash": self.crash_kind,
                "resumed": self.resumed,
            },
        }


@dataclass
class BatchResult:
    """Results for the whole manifest, in manifest order."""

    results: List[JobResult]
    seconds: float
    jobs: int  # pool size used
    prewarm_events: List[TraceEvent] = field(default_factory=list)
    cache: Optional[CacheStats] = None
    #: jobs restored from a checkpoint journal instead of re-run
    resumed: int = 0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def write_trace(self, path: str) -> None:
        """JSONL: every phase event, then one summary record per job."""
        with open(path, "w") as handle:
            tracer = JsonlTracer(handle)
            for event in self.prewarm_events:
                tracer.emit(event)
            for result in self.results:
                for event in result.events:
                    tracer.emit(event)
                handle.write(
                    json.dumps(result.summary_record(), sort_keys=True) + "\n"
                )

    def to_json(self) -> Dict[str, object]:
        """Batch totals plus one shared result envelope per job.

        Each record is the repo-wide envelope (verdict / alarms /
        certificate / governor / timings — see :mod:`repro.envelope`)
        with batch bookkeeping alongside: ``name``, ``spec``, ``engine``
        (requested), ``status`` (batch outcome, incl. ``fallback``),
        ``retries``, ``alarm_lines``, ``error``.
        """
        from repro import envelope as env

        records = []
        for r in self.results:
            records.append(
                {
                    "name": r.job.name,
                    "spec": r.job.spec,
                    "engine": r.job.engine,
                    "engine_used": r.engine_used,
                    "status": r.status,
                    "ok": r.ok,
                    "fallback": r.fallback,
                    "retries": r.retries,
                    "alarm_lines": r.alarm_lines,
                    "error": r.error,
                    "crash": r.crash_kind,
                    "resumed": r.resumed,
                    **env.make_envelope(
                        verdict=env.verdict_section(
                            subject=r.subject or r.job.name,
                            engine=r.engine_used,
                            certified=r.certified,
                            status=(
                                "breached"
                                if r.breach is not None
                                else ("ok" if r.ok else r.status)
                            ),
                            partial=r.breach is not None,
                        ),
                        alarms=r.alarm_json,
                        certificate=env.certificate_section(
                            path=r.certificate_path
                        ),
                        governor=env.governor_section(
                            breach=r.breach,
                            salvaged=r.salvaged,
                            unknown_sites=r.unknown_sites,
                            degraded_to=r.degraded_to,
                        ),
                        timings=env.timings_section(
                            seconds=r.seconds, phases=r.phase_seconds()
                        ),
                    ),
                }
            )
        return {
            "seconds": round(self.seconds, 4),
            "jobs": self.jobs,
            "ok": self.ok,
            "resumed": self.resumed,
            "cache": self.cache.to_json() if self.cache else None,
            "results": records,
        }

    def format_summary(self) -> str:
        """The aggregated batch table (rendered by ``repro batch``)."""
        header = (
            f"{'job':24s} {'engine':28s} {'status':9s} "
            f"{'verdict':14s} {'time':>8s} {'fixpoint':>9s}"
        )
        lines = [header, "-" * len(header)]
        for r in self.results:
            engine = r.job.engine
            if r.fallback:
                engine = f"{engine}->{r.engine_used}"
            if r.degraded_to:
                engine = f"{engine}~{r.degraded_to}"
            if r.certified is None:
                if r.salvaged is not None:
                    verdict = f"salvaged {r.salvaged}"
                else:
                    verdict = "—"
            elif r.certified:
                verdict = "CERTIFIED"
            else:
                verdict = f"{r.alarms} alarm(s)"
            fixpoint = r.phase_seconds().get("fixpoint")
            lines.append(
                f"{r.job.name:24s} {engine:28s} {r.status:9s} "
                f"{verdict:14s} {r.seconds:>7.2f}s "
                f"{(f'{fixpoint:.2f}s' if fixpoint is not None else '—'):>9s}"
            )
        lines.append("-" * len(header))
        good = sum(1 for r in self.results if r.ok)
        lines.append(
            f"{good}/{len(self.results)} jobs ok in {self.seconds:.2f}s "
            f"on {self.jobs} worker(s)"
        )
        if self.resumed:
            lines.append(
                f"[{self.resumed} job(s) restored from checkpoint]"
            )
        if self.cache is not None:
            lines.append(f"[{self.cache}]")
        return "\n".join(lines)


# -- manifest loading ----------------------------------------------------------

_JOB_KEYS = {
    "name",
    "suite",
    "client",
    "source",
    "spec",
    "engine",
    "timeout",
    "fallback",
    "fallback_timeout",
    "options",
}
_OPTION_KEYS = {
    "entry",
    "prune_requires",
    "inline_depth",
    "deadline",
    "max_steps",
    "max_structures",
    "ladder",
}


def load_manifest(path: str) -> List[JobSpec]:
    """Parse a manifest file into job specs (see the module docstring)."""
    with open(path) as handle:
        data = json.load(handle)
    base_dir = os.path.dirname(os.path.abspath(path))
    return parse_manifest(data, base_dir=base_dir)


def parse_manifest(data: object, base_dir: str = ".") -> List[JobSpec]:
    from repro.api import ENGINES, CertifyOptions
    from repro.easl.library import available_specs

    if isinstance(data, list):
        data = {"jobs": data}
    if not isinstance(data, dict) or not isinstance(data.get("jobs"), list):
        raise ManifestError("manifest must be a JSON object with a 'jobs' list")
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ManifestError("'defaults' must be an object")
    batch_spec = data.get("spec", defaults.get("spec", "cmp"))

    jobs: List[JobSpec] = []
    names: Dict[str, int] = {}
    for index, entry in enumerate(data["jobs"]):
        if not isinstance(entry, dict):
            raise ManifestError(f"job #{index} is not an object")
        unknown = set(entry) - _JOB_KEYS
        if unknown:
            raise ManifestError(
                f"job #{index} has unknown key(s): {sorted(unknown)}"
            )
        merged = {**defaults, **entry}
        source, default_name = _resolve_source(merged, index, base_dir)

        spec_name = str(merged.get("spec", batch_spec)).lower()
        if spec_name not in available_specs():
            raise ManifestError(
                f"job #{index}: unknown spec {spec_name!r}; "
                f"available: {available_specs()}"
            )
        engine = str(merged.get("engine", "auto"))
        fallback = merged.get("fallback")
        for candidate in (engine, fallback):
            if candidate is not None and candidate not in ENGINES:
                raise ManifestError(
                    f"job #{index}: unknown engine {candidate!r}"
                )

        option_values = merged.get("options", {})
        if not isinstance(option_values, dict):
            raise ManifestError(f"job #{index}: 'options' must be an object")
        unknown = set(option_values) - _OPTION_KEYS
        if unknown:
            raise ManifestError(
                f"job #{index} has unknown option(s): {sorted(unknown)}"
            )
        if isinstance(option_values.get("ladder"), list):
            # JSON has no tuples; CertifyOptions wants a hashable ladder
            option_values = {
                **option_values,
                "ladder": tuple(option_values["ladder"]),
            }

        name = str(merged.get("name", default_name))
        if name in names:
            names[name] += 1
            name = f"{name}#{names[name]}"
        names.setdefault(name, 1)

        timeout = merged.get("timeout")
        fallback_timeout = merged.get("fallback_timeout")
        jobs.append(
            JobSpec(
                name=name,
                spec=spec_name,
                source=source,
                engine=engine,
                timeout=float(timeout) if timeout is not None else None,
                fallback=fallback,
                fallback_timeout=(
                    float(fallback_timeout)
                    if fallback_timeout is not None
                    else None
                ),
                options=CertifyOptions(**option_values),
            )
        )
    if not jobs:
        raise ManifestError("manifest has no jobs")
    return jobs


def _resolve_source(
    entry: Dict[str, object], index: int, base_dir: str
) -> Tuple[str, str]:
    given = [key for key in ("suite", "client", "source") if key in entry]
    if len(given) != 1:
        raise ManifestError(
            f"job #{index} must name its client with exactly one of "
            f"'suite', 'client' or 'source' (got {given or 'none'})"
        )
    if "suite" in entry:
        from repro.suite import by_name

        bench = by_name(str(entry["suite"]))
        return bench.source, bench.name
    if "client" in entry:
        path = os.path.join(base_dir, str(entry["client"]))
        with open(path) as handle:
            return handle.read(), os.path.basename(path)
    return str(entry["source"]), f"job-{index}"


def job_key(job: JobSpec) -> str:
    """Stable identity of one job across runs (checkpoint/resume).

    Covers everything that changes the verdict: the client text (by
    hash), the spec, the engines, and the budgets.  Editing any of
    those gives the job a new key, so a stale journal entry can never
    shadow changed work.
    """
    material = json.dumps(
        {
            "name": job.name,
            "spec": job.spec,
            "engine": job.engine,
            "source": hashlib.sha256(
                job.source.encode("utf-8")
            ).hexdigest(),
            "timeout": job.timeout,
            "fallback": job.fallback,
            "fallback_timeout": job.fallback_timeout,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def run_id_of(keys: Sequence[str]) -> str:
    """The default journal name for a run over jobs with these keys."""
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]


def read_journal(path: str) -> Dict[str, dict]:
    """Checkpoint journal records by job key (later records win).

    A torn tail line — the mark of a run killed mid-append — ends the
    read: appends are ordered and fsynced, so only the tail can tear.
    """
    text = StoreIO().read_text(path)
    records: Dict[str, dict] = {}
    for line in (text or "").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break
        if (
            isinstance(record, dict)
            and record.get("v") == 1
            and isinstance(record.get("key"), str)
        ):
            records[record["key"]] = record
    return records


# -- worker side ---------------------------------------------------------------


def _backstop_seconds(timeout: Optional[float]) -> Optional[float]:
    """The SIGALRM backstop for a cooperative budget: ~2x + slack.

    The governor's cooperative deadline is the primary enforcement; the
    interval timer only catches non-cooperative hangs (a stuck parse, a
    pathological transform), so it fires well after the budget.
    """
    if timeout is None or timeout <= 0:
        return None
    return timeout * 2.0 + 1.0


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Backstop a wall-clock budget with SIGALRM (POSIX main thread only).

    On platforms without ``SIGALRM`` — or off the main thread, where
    ``signal.setitimer`` would raise — the timer is skipped and a
    ``warning`` trace event records that only the cooperative governor
    is enforcing the budget (previously this was a silent no-op).
    """
    if seconds is None or seconds <= 0:
        yield
        return
    usable = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        note(
            "warning",
            reason="sigalrm-unavailable",
            detail=(
                "no SIGALRM on this platform/thread; relying on the "
                "cooperative governor deadline only"
            ),
            seconds_requested=float(seconds),
        )
        yield
        return

    def on_alarm(signum, frame):
        raise JobTimedOut(f"job exceeded {seconds}s wall-clock backstop")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _effective_options(item: _WorkItem):
    """The job options with the attempt's timeout as governor deadline."""
    options = item.job.options
    if item.timeout is not None and options.deadline is None:
        options = replace(options, deadline=float(item.timeout))
    return options


def _execute_certification(item: _WorkItem) -> CertificationReport:
    """Run one certification attempt (kept separate for fault injection
    in tests — crash/hang simulations monkeypatch this symbol)."""
    from repro.api import CertifySession
    from repro.easl.library import get_spec

    spec = get_spec(item.job.spec)
    session = CertifySession(
        spec,
        item.engine,
        _effective_options(item),
        cache=WARM_ABSTRACTIONS,
    )
    return session.certify(item.job.source)


def _worker_run(item: _WorkItem) -> _JobOutcome:
    """Top-level worker entry: certify one job attempt, never raise."""
    tracer = CollectingTracer()
    started = time.perf_counter()
    try:
        with use_tracer(tracer):
            with _deadline(_backstop_seconds(item.timeout)):
                report = _execute_certification(item)
        from repro.cert import model

        stats = report.stats or {}
        outcome = _JobOutcome(
            status="ok",
            engine=item.engine,
            certified=report.certified,
            subject=report.subject,
            alarms=len(report.alarms),
            alarm_lines=sorted(report.alarm_lines()),
            alarm_json=model.alarms_to_json(report.alarms),
            # present when the session breached and ran its ladder
            breach=stats.get("breach"),
            salvaged=stats.get("salvaged"),
            unknown_sites=stats.get("sites_unresolved"),
            degraded_to=stats.get("degraded_to"),
            certificate=(
                report.certificate.text()
                if report.certificate is not None
                else None
            ),
        )
    except JobTimedOut as error:
        outcome = _JobOutcome(
            status="timeout",
            engine=item.engine,
            error=str(error),
            breach="deadline",
            crash_kind="timeout",
        )
    except ResourceExhausted as error:
        from repro.cert import model

        partial = error.partial
        outcome = _JobOutcome(
            status="timeout",
            engine=item.engine,
            error=f"{type(error).__name__}: {error}",
            breach=error.breach,
            crash_kind="timeout",
            subject=partial.subject if partial is not None else None,
            salvaged=len(partial.alarms) if partial is not None else None,
            unknown_sites=(
                len(partial.unknown_sites) if partial is not None else None
            ),
            alarms=len(partial.alarms) if partial is not None else 0,
            alarm_lines=(
                sorted({a.line for a in partial.alarms})
                if partial is not None
                else []
            ),
            alarm_json=(
                model.alarms_to_json(partial.alarms)
                if partial is not None
                else []
            ),
        )
    except Exception as error:
        outcome = _JobOutcome(
            status="error",
            engine=item.engine,
            error=f"{type(error).__name__}: {error}",
            crash_kind="exception",
        )
    outcome.seconds = time.perf_counter() - started
    outcome.pid = os.getpid()
    for event in tracer.events:
        event.job = item.job.name
        event.meta.setdefault("engine", item.engine)
        if item.is_fallback:
            event.meta.setdefault("fallback", True)
    outcome.events = tracer.events
    return outcome


# -- the runner ----------------------------------------------------------------


class BatchRunner:
    """Execute a list of :class:`JobSpec` on a process pool.

    ``max_workers=1`` runs the jobs sequentially in-process (identical
    semantics, no pool overhead) — the baseline the parallel speedup is
    measured against.
    """

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        *,
        max_workers: int = 1,
        default_timeout: Optional[float] = None,
        default_fallback: Optional[str] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        default_deadline: Optional[float] = None,
        default_max_steps: Optional[int] = None,
        default_max_structures: Optional[int] = None,
        default_ladder=None,
        emit_certs_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        run_id: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        if not jobs:
            raise ValueError("no jobs to run")
        self.emit_certs_dir = emit_certs_dir
        self.jobs = [
            self._apply_defaults(
                job,
                default_timeout,
                default_fallback,
                default_deadline,
                default_max_steps,
                default_max_structures,
                default_ladder,
                emit_certificates=emit_certs_dir is not None,
            )
            for job in jobs
        ]
        self.max_workers = max(1, int(max_workers))
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = retry_backoff
        self._results: Dict[int, JobResult] = {}
        self._accum: Dict[int, Dict[str, object]] = {}
        #: serializes result bookkeeping across the pool's job threads
        self._lock = threading.Lock()
        self.checkpoint_dir = checkpoint_dir
        self.resume = bool(resume)
        self._io = StoreIO()
        self._job_keys = [job_key(job) for job in self.jobs]
        self.run_id = run_id or run_id_of(self._job_keys)

    @property
    def journal_path(self) -> Optional[str]:
        """Where the run's checkpoint journal lives (JSONL)."""
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"{self.run_id}.jsonl")

    @staticmethod
    def _apply_defaults(
        job: JobSpec,
        default_timeout: Optional[float],
        default_fallback: Optional[str],
        default_deadline: Optional[float] = None,
        default_max_steps: Optional[int] = None,
        default_max_structures: Optional[int] = None,
        default_ladder=None,
        emit_certificates: bool = False,
    ) -> JobSpec:
        updates = {}
        if job.timeout is None and default_timeout is not None:
            updates["timeout"] = default_timeout
        if job.fallback is None and default_fallback is not None:
            if default_fallback != job.engine:
                updates["fallback"] = default_fallback
        option_updates = {}
        if job.options.deadline is None and default_deadline is not None:
            option_updates["deadline"] = default_deadline
        if job.options.max_steps is None and default_max_steps is not None:
            option_updates["max_steps"] = default_max_steps
        if (
            job.options.max_structures is None
            and default_max_structures is not None
        ):
            option_updates["max_structures"] = default_max_structures
        if job.options.ladder is None and default_ladder is not None:
            option_updates["ladder"] = (
                tuple(default_ladder)
                if isinstance(default_ladder, (list, tuple))
                else default_ladder
            )
        if emit_certificates and not job.options.emit_certificate:
            option_updates["emit_certificate"] = True
        if option_updates:
            updates["options"] = replace(job.options, **option_updates)
        return replace(job, **updates) if updates else job

    # -- shared caching --------------------------------------------------------

    def _prewarm(self) -> List[TraceEvent]:
        """Derive every needed abstraction once, before workers exist."""
        from repro.api import CertifySession
        from repro.easl.library import get_spec

        engines_by_spec: Dict[str, set] = {}
        for job in self.jobs:
            wanted = engines_by_spec.setdefault(job.spec, set())
            wanted.add(job.engine)
            if job.fallback:
                wanted.add(job.fallback)
        tracer = CollectingTracer()
        with use_tracer(tracer):
            for spec_name, engines in sorted(engines_by_spec.items()):
                spec = get_spec(spec_name)
                session = CertifySession(spec, cache=WARM_ABSTRACTIONS)
                session.prewarm(sorted(engines))
        for event in tracer.events:
            event.job = "<prewarm>"
        return tracer.events

    # -- result accumulation ---------------------------------------------------

    def _bump(self, index: int, key: str, amount) -> None:
        accum = self._accum.setdefault(
            index, {"events": [], "seconds": 0.0, "retries": 0}
        )
        if key == "events":
            accum["events"].extend(amount)
        else:
            accum[key] = accum[key] + amount

    def _write_certificate(
        self, index: int, outcome: _JobOutcome
    ) -> Optional[str]:
        """Persist a job's certificate text; returns the path written."""
        if self.emit_certs_dir is None or outcome.certificate is None:
            return None
        safe = self.jobs[index].name.replace(os.sep, "_")
        path = os.path.join(self.emit_certs_dir, f"{safe}.cert.json")
        # atomic + fsynced: a crash mid-emission leaves the previous
        # certificate (or nothing), never a torn file a later --resume
        # would have to reject
        self._io.atomic_write_text(path, outcome.certificate)
        return path

    def _finalize(self, item: _WorkItem, outcome: _JobOutcome, status: str):
        accum = self._accum.setdefault(
            item.index, {"events": [], "seconds": 0.0, "retries": 0}
        )
        self._results[item.index] = JobResult(
            job=item.job,
            status=status,
            engine_used=outcome.engine,
            fallback=item.is_fallback,
            retries=int(accum["retries"]),
            certified=outcome.certified,
            subject=outcome.subject,
            alarms=outcome.alarms,
            alarm_lines=outcome.alarm_lines,
            alarm_json=outcome.alarm_json,
            seconds=float(accum["seconds"]) + outcome.seconds,
            error=outcome.error,
            events=list(accum["events"]) + outcome.events,
            # a fallback attempt inherits the original breach/salvage
            breach=(
                outcome.breach
                if outcome.breach is not None
                else accum.get("breach")
            ),
            salvaged=(
                outcome.salvaged
                if outcome.salvaged is not None
                else accum.get("salvaged")
            ),
            unknown_sites=outcome.unknown_sites,
            degraded_to=outcome.degraded_to,
            certificate_path=self._write_certificate(item.index, outcome),
            crash_kind=outcome.crash_kind,
        )
        self._journal(item.index, outcome)

    # -- checkpoint journal ----------------------------------------------------

    def _journal(self, index: int, outcome: Optional[_JobOutcome]) -> None:
        """Durably append the finalized result for job ``index``."""
        path = self.journal_path
        if path is None:
            return
        result = self._results[index]
        record = {
            "v": 1,
            "key": self._job_keys[index],
            "name": result.job.name,
            "status": result.status,
            "engine_used": result.engine_used,
            "fallback": result.fallback,
            "retries": result.retries,
            "certified": result.certified,
            "subject": result.subject,
            "alarms": result.alarms,
            "alarm_lines": list(result.alarm_lines),
            "alarm_json": list(result.alarm_json),
            "seconds": result.seconds,
            "error": result.error,
            "breach": result.breach,
            "salvaged": result.salvaged,
            "unknown_sites": result.unknown_sites,
            "degraded_to": result.degraded_to,
            "crash": result.crash_kind,
            "certificate_path": result.certificate_path,
            "cert_sha256": (
                hashlib.sha256(
                    outcome.certificate.encode("utf-8")
                ).hexdigest()
                if outcome is not None and outcome.certificate is not None
                else None
            ),
        }
        self._io.append_line(path, json.dumps(record, sort_keys=True))

    def _load_checkpoint(self) -> Dict[str, dict]:
        """Records of this run's journal, by job key."""
        path = self.journal_path
        return {} if path is None else read_journal(path)

    def _restore(self, index: int, record: dict) -> bool:
        """Rebuild a journaled result; False = journal not trustworthy.

        A journaled certificate is re-verified byte-for-byte against the
        recorded SHA-256 before the job is skipped — a missing, torn or
        tampered certificate file sends the job back to the pool.
        """
        digest = record.get("cert_sha256")
        path = record.get("certificate_path")
        if digest is not None:
            if not isinstance(path, str):
                return False
            text = self._io.read_text(path)
            if text is None:
                return False
            actual = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if actual != digest:
                return False
        self._results[index] = JobResult(
            job=self.jobs[index],
            status=str(record.get("status", "error")),
            engine_used=str(record.get("engine_used", "")),
            fallback=bool(record.get("fallback", False)),
            retries=int(record.get("retries", 0) or 0),
            certified=record.get("certified"),
            subject=record.get("subject"),
            alarms=int(record.get("alarms", 0) or 0),
            alarm_lines=[int(n) for n in record.get("alarm_lines") or []],
            alarm_json=[
                dict(a)
                for a in record.get("alarm_json") or []
                if isinstance(a, dict)
            ],
            seconds=float(record.get("seconds", 0.0) or 0.0),
            error=record.get("error"),
            breach=record.get("breach"),
            salvaged=record.get("salvaged"),
            unknown_sites=record.get("unknown_sites"),
            degraded_to=record.get("degraded_to"),
            certificate_path=path if isinstance(path, str) else None,
            crash_kind=record.get("crash"),
            resumed=True,
        )
        return True

    def _absorb(
        self, item: _WorkItem, outcome: _JobOutcome
    ) -> Optional[_WorkItem]:
        """Record one attempt; return a follow-up work item if any."""
        job = item.job
        if outcome.status == "ok":
            self._finalize(
                item, outcome, "fallback" if item.is_fallback else "ok"
            )
            return None
        if (
            outcome.status == "timeout"
            and not item.is_fallback
            and job.fallback
            and job.fallback != item.engine
        ):
            self._bump(item.index, "events", outcome.events)
            self._bump(item.index, "seconds", outcome.seconds)
            accum = self._accum[item.index]
            if outcome.breach is not None:
                accum.setdefault("breach", outcome.breach)
            if outcome.salvaged is not None:
                accum.setdefault("salvaged", outcome.salvaged)
            return _WorkItem(
                index=item.index,
                job=job,
                engine=job.fallback,
                timeout=job.fallback_timeout,
                is_fallback=True,
            )
        self._finalize(item, outcome, outcome.status)
        return None

    # -- execution -------------------------------------------------------------

    def run(self) -> BatchResult:
        started = time.perf_counter()
        self._results.clear()
        self._accum.clear()
        restored: set = set()
        if self.resume:
            records = self._load_checkpoint()
            for index in range(len(self.jobs)):
                record = records.get(self._job_keys[index])
                if record is not None and self._restore(index, record):
                    restored.add(index)
        items = [
            _WorkItem(
                index=index,
                job=job,
                engine=job.engine,
                timeout=job.timeout,
            )
            for index, job in enumerate(self.jobs)
            if index not in restored
        ]
        prewarm_events = [] if not items else self._prewarm()
        if self.max_workers == 1:
            for item in items:
                self._run_job(item, None)
        elif items:
            supervisor = WorkerSupervisor(
                self.max_workers,
                crash_limit=self.max_retries + 1,
                backoff_base=self.retry_backoff,
            )
            try:
                with ThreadPoolExecutor(
                    self.max_workers, thread_name_prefix="repro-batch"
                ) as threads:
                    # the first free worker takes the next job, in
                    # manifest order
                    list(
                        threads.map(
                            lambda item: self._run_job(item, supervisor), items
                        )
                    )
            finally:
                supervisor.shutdown()
        results = [self._results[index] for index in range(len(self.jobs))]
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - started,
            jobs=self.max_workers,
            prewarm_events=prewarm_events,
            cache=WARM_ABSTRACTIONS.stats(),
            resumed=len(restored),
        )

    def _run_job(
        self, item: _WorkItem, supervisor: Optional[WorkerSupervisor]
    ) -> None:
        """Run one job to its final result, fallback attempt included."""
        follow: Optional[_WorkItem] = item
        while follow is not None:
            outcome = self._attempt(follow, supervisor)
            with self._lock:
                follow = self._absorb(follow, outcome)

    def _attempt(
        self, item: _WorkItem, supervisor: Optional[WorkerSupervisor]
    ) -> _JobOutcome:
        """One attempt in-process, or on the pool with crash retry."""
        if supervisor is None:
            return _worker_run(item)
        key = f"{item.index}:{item.is_fallback}"
        try:
            return supervisor.submit(_worker_run, item, key=key)
        except PoisonedRequest as error:
            reason = type(error.__cause__).__name__
            return _JobOutcome(
                status="error",
                engine=item.engine,
                error=f"worker died ({reason}); retries exhausted",
                # the worker process vanished (SIGKILL/OOM/segfault)
                # rather than raising — distinct from a worker-side
                # Python exception or a blown budget
                crash_kind="signal",
            )
        except Exception as error:
            # _worker_run never raises: this is the pool failing to
            # ship the attempt or its outcome
            return _JobOutcome(
                status="error",
                engine=item.engine,
                error=f"{type(error).__name__}: {error}",
                crash_kind="exception",
            )
        finally:
            with self._lock:
                self._bump(
                    item.index,
                    "retries",
                    min(supervisor.crashes(key), self.max_retries),
                )
