"""The multi-tenant certification service.

Request lifecycle (see :meth:`CertificationService.handle`):

1. **validate** the JSON body, resolve the spec through the registry and
   the tenant through its configured budget;
2. **admit** — a tenant over its cumulative step quota, or a full
   request queue, is refused with HTTP 429 (plus ``Retry-After``);
   admitted requests are *never* dropped afterwards;
3. **resolve** — a worker computes the request's content address (the
   spec/source/abstraction hashes plus the engine+options fingerprint)
   and consults the certificate store;
4. **check on hit** — the stored certificate is revalidated with the
   linear-pass :class:`~repro.cert.CertificateChecker` (no fixpoint); a
   tampered or rejected entry falls back to full certification;
5. **certify on miss** — the warm session runs the fixpoint under the
   tenant's :class:`~repro.runtime.guard.ResourceGovernor`, emits a
   certificate, stores it, and answers.

Sessions are shared across tenants per (spec, options): the derived
abstraction, inlining memos, and TVLA transfer memos warm up once and
serve everyone.  A per-session lock serializes analyzer access (the
engines are single-threaded state machines); distinct specs proceed in
parallel on the worker pool.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import envelope as env
from repro.api import ENGINES, CertifyOptions, CertifySession
from repro.cert import CertificateChecker, ConformanceCertificate, model
from repro.cert.emit import options_payload
from repro.easl.library import UnknownSpecError, available_specs, get_spec
from repro.runtime.cache import DEFAULT_CACHE_SIZE, LRUCache
from repro.runtime.guard import ResourceExhausted, ResourceGovernor
from repro.runtime.executor import PoisonedRequest, WorkerSupervisor
from repro.runtime.trace import CollectingTracer, use_tracer
from repro.serve.supervisor import POISON_THRESHOLD, StoreCircuitBreaker
from repro.store import CertificateStore
from repro.store.cas import lineage_key, request_key

#: option keys a request may override (the certificate-relevant subset)
REQUEST_OPTION_KEYS = ("entry", "prune_requires", "inline_depth")


class BadRequest(ValueError):
    """The request body is malformed; maps to HTTP 400."""


@dataclass(frozen=True)
class TenantBudget:
    """Per-request governor caps and a cumulative quota for one tenant.

    ``deadline`` / ``max_steps`` / ``max_structures`` bound each
    certification attempt (breaches salvage a partial, they do not kill
    the service).  ``quota_steps`` bounds the tenant's *total* fixpoint
    steps across requests: once spent, further requests get 429 until
    the operator resets the tenant.
    """

    deadline: Optional[float] = None
    max_steps: Optional[int] = None
    max_structures: Optional[int] = None
    quota_steps: Optional[int] = None

    @staticmethod
    def from_json(data: Dict[str, object]) -> "TenantBudget":
        unknown = set(data) - {
            "deadline",
            "max_steps",
            "max_structures",
            "quota_steps",
        }
        if unknown:
            raise ValueError(f"unknown tenant budget key(s): {sorted(unknown)}")
        return TenantBudget(
            deadline=(
                float(data["deadline"]) if data.get("deadline") is not None else None
            ),
            max_steps=(
                int(data["max_steps"]) if data.get("max_steps") is not None else None
            ),
            max_structures=(
                int(data["max_structures"])
                if data.get("max_structures") is not None
                else None
            ),
            quota_steps=(
                int(data["quota_steps"])
                if data.get("quota_steps") is not None
                else None
            ),
        )


@dataclass
class _TenantState:
    """Cumulative spend bookkeeping for one tenant."""

    budget: TenantBudget
    requests: int = 0
    rejected: int = 0
    hits: int = 0
    misses: int = 0
    spent_steps: int = 0
    spent_seconds: float = 0.0
    breaches: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def quota_exhausted(self) -> bool:
        quota = self.budget.quota_steps
        return quota is not None and self.spent_steps >= quota

    def to_json(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "hits": self.hits,
            "misses": self.misses,
            "breaches": self.breaches,
            "spent_steps": self.spent_steps,
            "spent_seconds": round(self.spent_seconds, 4),
            "quota_steps": self.budget.quota_steps,
            "quota_remaining": (
                max(0, self.budget.quota_steps - self.spent_steps)
                if self.budget.quota_steps is not None
                else None
            ),
        }


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8091
    specs: Tuple[str, ...] = ()  # () = everything in the registry
    default_engine: str = "auto"
    workers: int = 2
    #: ``"thread"`` runs the fixpoint on the executor threads (GIL-bound:
    #: BENCH_serve plateaus near 2 cores); ``"process"`` offloads each
    #: certify-on-miss to a process pool so N workers scale to N cores.
    #: Validation, the store, and hit-checks stay in the parent either way.
    worker_mode: str = "thread"
    queue_limit: int = 64
    store_path: Optional[str] = None  # None = in-memory store
    retry_after: float = 1.0
    #: per-request wall-clock heartbeat for process workers: a worker
    #: that neither answers nor dies within this window is SIGKILLed
    #: and handled like a crash (None = no heartbeat)
    heartbeat: Optional[float] = None
    #: consecutive store I/O errors that open the circuit breaker
    store_failure_threshold: int = 3
    #: seconds the breaker stays open before probing the store again
    store_cooldown: float = 5.0
    #: replay the on-disk store's write-ahead journal at startup
    recover_on_start: bool = True
    #: budget applied to tenants without an explicit entry
    default_budget: TenantBudget = TenantBudget()
    tenants: Dict[str, TenantBudget] = field(default_factory=dict)
    #: base certification options shared by every session
    options: CertifyOptions = CertifyOptions(emit_certificate=True)


#: per-process session cache for the ``worker_mode="process"`` pool,
#: keyed and bounded like the parent's ``_sessions`` (request options are
#: client-chosen).  A forked worker starts with whatever the parent had
#: derived (module-level abstraction cache included) and keeps its own
#: engines warm across requests.
_PROC_SESSIONS = LRUCache(DEFAULT_CACHE_SIZE, name="serve-proc-sessions")


def _proc_session(spec_name: str, options: CertifyOptions) -> CertifySession:
    return _PROC_SESSIONS.get_or_create(
        (spec_name, model.canonical_text(options_payload(options))),
        lambda: CertifySession(get_spec(spec_name), options=options),
    )


def _certify(
    session: CertifySession,
    source: str,
    engine: str,
    budget: TenantBudget,
    parent: Optional[ConformanceCertificate],
):
    """One certify-on-miss under the tenant's budget, warm-started from
    ``parent`` when there is one (a serve thread or a pool worker).

    Returns a picklable tagged tuple — ``("ok", report, steps)`` or
    ``("breached", message, breach, partial, steps)`` — so the caller can
    account, store, and answer without re-running anything.
    """
    governor = None
    if (
        budget.deadline is not None
        or budget.max_steps is not None
        or budget.max_structures is not None
    ):
        governor = ResourceGovernor(
            deadline=budget.deadline,
            max_steps=budget.max_steps,
            max_structures=budget.max_structures,
        )
    try:
        report = session.certify(
            source, engine=engine, governor=governor, incremental_from=parent
        )
    except ResourceExhausted as error:
        return (
            "breached",
            str(error),
            error.breach,
            error.partial,
            governor.steps if governor is not None else 0,
        )
    return ("ok", report, governor.steps if governor is not None else 0)


def _pool_certify(
    spec_name: str,
    options: CertifyOptions,
    source: str,
    engine: str,
    budget: TenantBudget,
    parent: Optional[ConformanceCertificate],
):
    """Process-pool entry: :func:`_certify` on this worker's session."""
    return _certify(
        _proc_session(spec_name, options), source, engine, budget, parent
    )


class _SpecSession:
    """One warm (spec, options) analysis context shared by all tenants."""

    def __init__(self, spec, options: CertifyOptions) -> None:
        self.spec = spec
        self.options = options
        self.session = CertifySession(spec, options=options)
        self.checker = CertificateChecker()
        self.lock = threading.Lock()
        self.spec_hash = model.spec_hash(spec)
        self._abstraction_hashes: Dict[bool, Optional[str]] = {}

    def abstraction_hash(self, engine: str) -> Optional[str]:
        """The derived-abstraction hash relevant to ``engine`` (derives
        on first use; cached per flavour).  Generic engines run without
        a derived abstraction, and ``auto`` salts the request key with
        the standard flavour — both deterministic choices."""
        if engine in ("allocsite", "allocsite-recency", "shapegraph"):
            return None
        identity = engine == "interproc"
        if identity not in self._abstraction_hashes:
            abstraction = self.session.abstraction(identity_families=identity)
            self._abstraction_hashes[identity] = model.abstraction_hash(
                abstraction
            )
        return self._abstraction_hashes[identity]


@dataclass
class _Job:
    """One admitted request, queued for the worker pool."""

    kind: str  # "certify" | "check"
    tenant: str
    state: _TenantState
    future: "asyncio.Future"
    # certify fields
    entry: Optional[_SpecSession] = None
    source: Optional[str] = None
    engine: str = "auto"
    options: Optional[CertifyOptions] = None
    #: explicit warm-start parent (certificate hash) for incremental
    #: recertification; None falls back to the store's lineage index
    parent: Optional[str] = None
    # check fields
    certificate: Optional[ConformanceCertificate] = None
    cert_hash: Optional[str] = None
    queued_at: float = 0.0


class CertificationService:
    """The asyncio service core (transport-agnostic; see
    :class:`~repro.serve.http.ServeDaemon` for the HTTP front end)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        store: Optional[CertificateStore] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.store = (
            store
            if store is not None
            else CertificateStore(self.config.store_path)
        )
        self.started_at = time.monotonic()
        #: one warm context per (spec, request options); bounded, since
        #: every distinct set of client-chosen options adds one
        self._sessions = LRUCache(DEFAULT_CACHE_SIZE, name="serve-sessions")
        self._tenants: Dict[str, _TenantState] = {}
        self._tenants_lock = threading.Lock()
        if self.config.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"unknown worker_mode {self.config.worker_mode!r}; "
                "pick 'thread' or 'process'"
            )
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._supervisor: Optional[WorkerSupervisor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._breaker = StoreCircuitBreaker(
            failure_threshold=self.config.store_failure_threshold,
            cooldown=self.config.store_cooldown,
        )
        self._counters = {
            "received": 0,
            "completed": 0,
            "rejected": 0,
            "errors": 0,
            "checks": 0,
            "certifications": 0,
            "recertifications": 0,
            "incremental": 0,
            "poisoned": 0,
            "store_degraded": 0,
        }
        self._counters_lock = threading.Lock()
        self._spec_names = tuple(
            name.lower() for name in (self.config.specs or available_specs())
        )
        for name in self._spec_names:
            get_spec(name)  # fail fast on unknown configured specs

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Create the queue, worker tasks and executor on the running loop."""
        if self._queue is not None:
            return
        if (
            self.config.recover_on_start
            and self.store.root is not None
        ):
            # replay the write-ahead journal before serving: torn
            # objects are quarantined, never handed to a client
            self.store.recover()
        self._loop = asyncio.get_running_loop()
        self._draining = False
        self._queue = asyncio.Queue(maxsize=max(1, self.config.queue_limit))
        workers = max(1, self.config.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        if self.config.worker_mode == "process":
            self._supervisor = WorkerSupervisor(
                workers,
                crash_limit=POISON_THRESHOLD,
                heartbeat=self.config.heartbeat,
            )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(workers)
        ]

    async def stop(self) -> None:
        """Drain the queue, then tear down workers and the executor."""
        if self._queue is None:
            return
        await self._queue.join()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None
        if self._supervisor is not None:
            self._supervisor.shutdown()
            self._supervisor = None
        self.store.flush()
        self._queue = None

    # -- graceful drain -------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new requests; in-flight work keeps running.

        ``/healthz`` flips to ``draining`` so load balancers rotate the
        instance out; every HTTP response carries ``Connection: close``
        from here on (the front end checks :attr:`draining`).
        """
        self._draining = True

    async def drained(self) -> None:
        """Resolves once every admitted request has been answered."""
        if self._queue is not None:
            await self._queue.join()

    def prewarm(self) -> None:
        """Derive every configured spec's abstraction before traffic.

        Optional: sessions also warm lazily on first request; prewarming
        moves the one-time derivation cost to startup.
        """
        for name in self._spec_names:
            entry = self._entry(name, {})
            entry.abstraction_hash(self.config.default_engine)

    # -- shared state --------------------------------------------------------

    def _entry(self, spec_name: str, options: Dict[str, object]) -> _SpecSession:
        merged = self._merge_options(options)
        key = (
            spec_name,
            model.canonical_text(options_payload(merged)),
        )
        return self._sessions.get_or_create(
            key, lambda: _SpecSession(get_spec(spec_name), merged)
        )

    def _merge_options(self, overrides: Dict[str, object]) -> CertifyOptions:
        base = self.config.options
        fields = {
            "entry": base.entry,
            "prune_requires": base.prune_requires,
            "inline_depth": base.inline_depth,
        }
        for key, value in overrides.items():
            fields[key] = value
        return CertifyOptions(
            emit_certificate=True,
            entry=fields["entry"],
            prune_requires=bool(fields["prune_requires"]),
            inline_depth=int(fields["inline_depth"]),
            # execution strategy, not a semantic option: shared by every
            # tenant session so library summaries are paid for once
            summary_db=base.summary_db,
        )

    def _tenant(self, name: str) -> _TenantState:
        with self._tenants_lock:
            if name not in self._tenants:
                budget = self.config.tenants.get(
                    name, self.config.default_budget
                )
                self._tenants[name] = _TenantState(budget=budget)
            return self._tenants[name]

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[counter] += amount

    # -- admission -----------------------------------------------------------

    def _validate_certify(self, body: object) -> Dict[str, object]:
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        source = body.get("source")
        if not isinstance(source, str) or not source.strip():
            raise BadRequest("'source' (Jlite client text) is required")
        spec_name = str(body.get("spec", self._spec_names[0])).lower()
        if spec_name not in self._spec_names:
            raise BadRequest(
                f"spec {spec_name!r} not served; available: "
                f"{sorted(self._spec_names)}"
            )
        try:
            get_spec(spec_name)
        except UnknownSpecError as error:
            raise BadRequest(str(error)) from error
        engine = str(body.get("engine", self.config.default_engine))
        if engine not in ENGINES:
            raise BadRequest(
                f"unknown engine {engine!r}; pick one of {ENGINES}"
            )
        tenant = str(body.get("tenant", "anonymous"))
        options = body.get("options", {})
        if not isinstance(options, dict):
            raise BadRequest("'options' must be an object")
        unknown = set(options) - set(REQUEST_OPTION_KEYS)
        if unknown:
            raise BadRequest(
                f"unknown option(s) {sorted(unknown)}; "
                f"allowed: {sorted(REQUEST_OPTION_KEYS)}"
            )
        parent = body.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise BadRequest(
                "'parent' must be a certificate hash (string)"
            )
        return {
            "source": source,
            "spec": spec_name,
            "engine": engine,
            "tenant": tenant,
            "options": options,
            "parent": parent,
        }

    async def _admit(self, job: _Job) -> Optional[Tuple[int, Dict[str, object]]]:
        """Queue a job; a 429/503 refusal payload when admission fails."""
        self._bump("received")
        state = job.state
        if self._draining:
            with state.lock:
                state.rejected += 1
            self._bump("rejected")
            return 503, self._refusal(
                "service is draining; no new work admitted",
                reason="draining",
            )
        with state.lock:
            if state.quota_exhausted():
                state.rejected += 1
                self._bump("rejected")
                return 429, self._refusal(
                    f"tenant {job.tenant!r} exhausted its step quota "
                    f"({state.budget.quota_steps} steps)",
                    reason="quota",
                )
        assert self._queue is not None, "service not started"
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            with state.lock:
                state.rejected += 1
            self._bump("rejected")
            return 429, self._refusal(
                f"request queue full ({self.config.queue_limit} deep); "
                "retry later",
                reason="backpressure",
            )
        return None

    def _refusal(self, detail: str, *, reason: str) -> Dict[str, object]:
        payload = env.error_envelope(
            subject="?",
            engine="?",
            status="rejected",
            detail=detail,
        )
        payload["rejected"] = {
            "reason": reason,
            "retry_after": self.config.retry_after,
        }
        return payload

    # -- public entry points -------------------------------------------------

    async def certify(self, body: object) -> Tuple[int, Dict[str, object]]:
        """``POST /certify``: full certify-or-check-on-hit pipeline."""
        try:
            fieldsd = self._validate_certify(body)
        except BadRequest as error:
            self._bump("received")
            self._bump("errors")
            return 400, env.error_envelope(
                subject="?", engine="?", status="bad-request", detail=str(error)
            )
        state = self._tenant(fieldsd["tenant"])
        assert self._loop is not None, "service not started"
        job = _Job(
            kind="certify",
            tenant=fieldsd["tenant"],
            state=state,
            future=self._loop.create_future(),
            entry=self._entry(fieldsd["spec"], fieldsd["options"]),
            source=fieldsd["source"],
            engine=fieldsd["engine"],
            parent=fieldsd["parent"],
            queued_at=time.monotonic(),
        )
        refused = await self._admit(job)
        if refused is not None:
            return refused
        return await job.future

    async def check(self, body: object) -> Tuple[int, Dict[str, object]]:
        """``POST /check``: validate a supplied or stored certificate."""
        if not isinstance(body, dict):
            self._bump("received")
            self._bump("errors")
            return 400, env.error_envelope(
                subject="?",
                engine="?",
                status="bad-request",
                detail="request body must be a JSON object",
            )
        tenant = str(body.get("tenant", "anonymous"))
        certificate: Optional[ConformanceCertificate] = None
        cert_hash: Optional[str] = None
        if isinstance(body.get("certificate"), dict):
            certificate = ConformanceCertificate(body["certificate"])
        elif isinstance(body.get("hash"), str):
            cert_hash = body["hash"]
            certificate = self._store_op(
                lambda: self.store.get_by_hash(cert_hash)
            )
            if certificate is None:
                self._bump("received")
                self._bump("errors")
                return 404, env.error_envelope(
                    subject="?",
                    engine="?",
                    status="not-found",
                    detail=f"no stored certificate with hash {cert_hash}",
                )
        else:
            self._bump("received")
            self._bump("errors")
            return 400, env.error_envelope(
                subject="?",
                engine="?",
                status="bad-request",
                detail="provide 'certificate' (payload) or 'hash' (stored)",
            )
        spec_name = str(certificate.payload.get("spec", "")).lower()
        if spec_name not in self._spec_names:
            self._bump("received")
            self._bump("errors")
            return 400, env.error_envelope(
                subject=certificate.subject,
                engine=certificate.engine,
                status="bad-request",
                detail=f"certificate spec {spec_name!r} not served",
            )
        state = self._tenant(tenant)
        assert self._loop is not None, "service not started"
        job = _Job(
            kind="check",
            tenant=tenant,
            state=state,
            future=self._loop.create_future(),
            entry=self._entry(
                spec_name,
                {
                    key: value
                    for key, value in (
                        certificate.payload.get("options") or {}
                    ).items()
                    if key in REQUEST_OPTION_KEYS
                },
            ),
            certificate=certificate,
            cert_hash=cert_hash,
            queued_at=time.monotonic(),
        )
        refused = await self._admit(job)
        if refused is not None:
            return refused
        return await job.future

    def certificate_json(self, cert_hash: str) -> Optional[Dict[str, object]]:
        """``GET /certificates/<hash>``: the stored payload, or None."""
        cert = self._store_op(lambda: self.store.get_by_hash(cert_hash))
        return cert.payload if cert is not None else None

    def healthz(self) -> Dict[str, object]:
        state = "draining" if self._draining else "ok"
        return {
            "ok": state == "ok",
            "state": state,
            "specs": sorted(self._spec_names),
            "engines": list(ENGINES),
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "workers": self.config.workers,
            "worker_mode": self.config.worker_mode,
            "store_breaker": self._breaker.state,
        }

    def stats(self) -> Dict[str, object]:
        with self._counters_lock:
            counters = dict(self._counters)
        with self._tenants_lock:
            tenants = {
                name: state.to_json() for name, state in self._tenants.items()
            }
        sessions = [
            {
                "spec": key[0],
                "abstractions_derived": len(entry._abstraction_hashes),
            }
            for key, entry in sorted(self._sessions.items())
        ]
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "state": "draining" if self._draining else "ok",
            "queue": {
                "depth": self._queue.qsize() if self._queue is not None else 0,
                "limit": self.config.queue_limit,
                "workers": self.config.workers,
                "worker_mode": self.config.worker_mode,
            },
            "requests": counters,
            "store": self.store.to_json(),
            "store_breaker": self._breaker.to_json(),
            "supervisor": (
                self._supervisor.to_json()
                if self._supervisor is not None
                else None
            ),
            "sessions": sessions,
            "tenants": tenants,
        }

    # -- the worker pool -----------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            job = await self._queue.get()
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._process, job
                )
            except Exception as error:  # defensive: _process never raises
                result = (
                    500,
                    env.error_envelope(
                        subject="?",
                        engine=job.engine,
                        status="error",
                        detail=f"{type(error).__name__}: {error}",
                    ),
                )
                self._bump("errors")
            if not job.future.done():
                job.future.set_result(result)
            self._queue.task_done()

    # -- synchronous core (executor threads) ---------------------------------

    def _process(self, job: _Job) -> Tuple[int, Dict[str, object]]:
        state = job.state
        with state.lock:
            state.requests += 1
        if job.kind == "check":
            return self._process_check(job)
        return self._process_certify(job)

    def _account(
        self,
        state: _TenantState,
        *,
        seconds: float,
        steps: int = 0,
        hit: Optional[bool] = None,
        breached: bool = False,
    ) -> None:
        with state.lock:
            state.spent_seconds += seconds
            state.spent_steps += steps
            if hit is True:
                state.hits += 1
            elif hit is False:
                state.misses += 1
            if breached:
                state.breaches += 1

    def _request_key(self, job: _Job) -> str:
        entry = job.entry
        assert entry is not None and job.source is not None
        return request_key(
            spec_hash=entry.spec_hash,
            source_hash=model.sha256_text(job.source),
            fingerprint=model.options_fingerprint(
                job.engine, options_payload(entry.options)
            ),
            abstraction_hash=entry.abstraction_hash(job.engine),
        )

    def _store_op(self, operation, fallback=None):
        """One store operation behind the circuit breaker.

        An open breaker (or an ``OSError`` from the operation) yields
        ``fallback`` — the caller proceeds as if the store missed, so
        disk failures degrade the cache layer, never the verdicts.
        """
        skipped_before = (
            self._breaker.stats["skipped"] + self._breaker.stats["io_errors"]
        )
        result = self._breaker.call(operation, fallback=fallback)
        if (
            self._breaker.stats["skipped"] + self._breaker.stats["io_errors"]
        ) != skipped_before:
            self._bump("store_degraded")
        return result

    def _process_certify(self, job: _Job) -> Tuple[int, Dict[str, object]]:
        entry = job.entry
        assert entry is not None
        started = time.monotonic()
        tracer = CollectingTracer()
        try:
            with use_tracer(tracer):
                key = self._request_key(job)
                stored = self._store_op(lambda: self.store.get(key))
                if stored is not None:
                    payload = self._check_on_hit(job, key, stored, tracer, started)
                    if payload is not None:
                        return payload
                    # fall through: stored certificate failed its check;
                    # re-certify from scratch and repoint the index — a
                    # store that just served a forgery for this key does
                    # not get to supply the warm-start parent either
                return self._certify_on_miss(
                    job, key, tracer, started, warm_start=stored is None
                )
        except PoisonedRequest as error:
            # this request killed two workers; a clean 500, no retry loop
            self._bump("poisoned")
            self._bump("errors")
            self._account(job.state, seconds=time.monotonic() - started)
            return 500, env.error_envelope(
                subject="?",
                engine=job.engine,
                status="poisoned",
                detail=str(error),
            )
        except Exception as error:
            self._bump("errors")
            self._account(
                job.state,
                seconds=time.monotonic() - started,
            )
            return 500, env.error_envelope(
                subject="?",
                engine=job.engine,
                status="error",
                detail=f"{type(error).__name__}: {error}",
            )

    def _check_on_hit(
        self,
        job: _Job,
        key: str,
        stored: ConformanceCertificate,
        tracer: CollectingTracer,
        started: float,
    ) -> Optional[Tuple[int, Dict[str, object]]]:
        """Validate a store hit; None directs the caller to re-certify."""
        entry = job.entry
        assert entry is not None
        with entry.lock:
            result = entry.checker.check(stored, spec=entry.spec)
        seconds = time.monotonic() - started
        if not result.ok:
            # tampered/stale entry: count it, evict the index entry by
            # overwriting below, and let the miss path answer
            self._bump("recertifications")
            return None
        self._account(job.state, seconds=seconds, hit=True)
        self._bump("checks")
        self._bump("completed")
        # resolve()/object_size() are in-memory lookups; re-serializing
        # the certificate to re-derive them would cost more than the
        # linear check itself
        cert_hash = self.store.resolve(key)
        payload = env.check_envelope(
            result,
            certificate=stored,
            cached=True,
            seconds=seconds,
            events=tracer.events,
            cert_hash=cert_hash,
            cert_bytes=(
                self.store.object_size(cert_hash)
                if cert_hash is not None
                else None
            ),
        )
        payload["served"] = self._served_stanza(
            job, key, cert_hash, path="check", cached=True
        )
        return 200, payload

    def _certify_on_miss(
        self,
        job: _Job,
        key: str,
        tracer: CollectingTracer,
        started: float,
        warm_start: bool = True,
    ) -> Tuple[int, Dict[str, object]]:
        entry = job.entry
        assert entry is not None and job.source is not None
        parent = self._resolve_parent(job) if warm_start else None
        budget = job.state.budget
        if self._supervisor is not None:
            outcome = self._supervisor.submit(
                _pool_certify,
                entry.spec.name,
                entry.options,
                job.source,
                job.engine,
                budget,
                parent,
                key=key,
            )
        else:
            with entry.lock:
                outcome = _certify(
                    entry.session, job.source, job.engine, budget, parent
                )
        if outcome[0] == "breached":
            _, message, breach, partial, steps = outcome
            return self._breach_answer(
                job, key, message, breach, partial, steps, started
            )
        _, report, steps = outcome
        return self._certified_answer(job, key, report, steps, tracer, started)

    def _resolve_parent(self, job: _Job) -> Optional[ConformanceCertificate]:
        """The warm-start parent for a near-hit request, or None.

        An explicit ``parent`` hash wins; otherwise the store's lineage
        index supplies the latest certificate built under identical
        analysis inputs (spec, engine options, abstraction).
        ``engine="auto"`` requests only warm-start via an explicit
        parent: their lineage key fingerprints the unresolved name,
        while stored certificates fingerprint the engine that ran.
        """
        entry = job.entry
        assert entry is not None
        if job.parent is not None:
            return self._store_op(
                lambda: self.store.get_by_hash(job.parent)
            )
        return self._store_op(
            lambda: self.store.get_lineage(
                lineage_key(
                    spec_hash=entry.spec_hash,
                    fingerprint=model.options_fingerprint(
                        job.engine, options_payload(entry.options)
                    ),
                    abstraction_hash=entry.abstraction_hash(job.engine),
                )
            )
        )

    def _breach_answer(
        self,
        job: _Job,
        key: str,
        message: str,
        breach: str,
        partial,
        steps: int,
        started: float,
    ) -> Tuple[int, Dict[str, object]]:
        seconds = time.monotonic() - started
        self._account(
            job.state,
            seconds=seconds,
            steps=steps,
            hit=False,
            breached=True,
        )
        self._bump("completed")
        payload = env.error_envelope(
            subject=partial.subject if partial is not None else "?",
            engine=job.engine,
            status="breached",
            detail=message,
            governor=env.governor_section(
                breach=breach,
                salvaged=(
                    len(partial.alarms) if partial is not None else None
                ),
                unknown_sites=(
                    len(partial.unknown_sites)
                    if partial is not None
                    else None
                ),
            ),
            alarms=(
                model.alarms_to_json(partial.alarms)
                if partial is not None
                else ()
            ),
            seconds=seconds,
        )
        payload["served"] = self._served_stanza(
            job, key, None, path="certify", cached=False
        )
        return 200, payload

    def _certified_answer(
        self,
        job: _Job,
        key: str,
        report,
        steps: int,
        tracer: CollectingTracer,
        started: float,
    ) -> Tuple[int, Dict[str, object]]:
        seconds = time.monotonic() - started
        certificate = report.certificate
        cert_hash = (
            self._store_op(lambda: self.store.put(certificate, key))
            if certificate is not None
            else None
        )
        self._account(job.state, seconds=seconds, steps=steps, hit=False)
        self._bump("certifications")
        incremental = bool(report.stats.get("incremental"))
        if incremental:
            self._bump("incremental")
        self._bump("completed")
        # the store put already encoded the certificate once: its hash
        # and object size fill the certificate section without a second
        # encode
        payload = env.report_envelope(
            report,
            seconds=seconds,
            events=tracer.events,
            cached=False,
            cert_hash=cert_hash,
            cert_bytes=(
                self.store.object_size(cert_hash)
                if cert_hash is not None
                else None
            ),
        )
        payload["served"] = self._served_stanza(
            job,
            key,
            cert_hash,
            path="incremental" if incremental else "certify",
            cached=False,
        )
        return 200, payload

    def _process_check(self, job: _Job) -> Tuple[int, Dict[str, object]]:
        entry = job.entry
        assert entry is not None and job.certificate is not None
        started = time.monotonic()
        tracer = CollectingTracer()
        try:
            with use_tracer(tracer):
                with entry.lock:
                    result = entry.checker.check(
                        job.certificate, spec=entry.spec
                    )
        except Exception as error:
            self._bump("errors")
            return 500, env.error_envelope(
                subject=job.certificate.subject,
                engine=job.certificate.engine,
                status="error",
                detail=f"{type(error).__name__}: {error}",
            )
        seconds = time.monotonic() - started
        self._account(job.state, seconds=seconds)
        self._bump("checks")
        self._bump("completed")
        # a stored certificate is described by its content address; only
        # a posted payload is encoded to get one
        payload = env.check_envelope(
            result,
            certificate=job.certificate,
            cached=job.cert_hash is not None,
            seconds=seconds,
            events=tracer.events,
            cert_hash=job.cert_hash,
            cert_bytes=(
                self.store.object_size(job.cert_hash)
                if job.cert_hash is not None
                else None
            ),
        )
        payload["served"] = {
            "tenant": job.tenant,
            "path": "check",
            "cached": job.cert_hash is not None,
            "hash": job.cert_hash,
            "key": None,
            "queued_seconds": round(started - job.queued_at, 6),
        }
        return 200, payload

    def _served_stanza(
        self,
        job: _Job,
        key: str,
        cert_hash: Optional[str],
        *,
        path: str,
        cached: bool,
    ) -> Dict[str, object]:
        return {
            "tenant": job.tenant,
            "path": path,
            "cached": cached,
            "hash": cert_hash,
            "key": key,
            "queued_seconds": round(
                max(0.0, time.monotonic() - job.queued_at), 6
            ),
        }
