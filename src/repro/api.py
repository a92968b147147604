"""High-level facade over the staged-certification pipeline.

The paper's workflow in three calls::

    spec = cmp_spec()                        # the component author's Easl spec
    session = CertifySession(spec)           # certifier-generation time
    report = session.certify(client_source)  # certify a client

:class:`CertifySession` is the primary API: it owns the expensive
per-specification state — the derived abstraction and inlining results —
in *bounded*, stats-reporting LRU caches, so the staging amortization of
Section 1.3 (derive once, certify many clients) is explicit rather than
hidden in module-global state.  ``certify_many`` certifies a batch of
clients against the same spec; the batch runtime
(:mod:`repro.runtime.batch`) runs one session per worker job.

Engines (``session.certify(...)`` picks one):

========================  =====================================================
engine                    what runs
========================  =====================================================
``"auto"``                interproc for shallow clients, TVLA otherwise
``"fds"``                 intraprocedural FDS on the inlined program (§4.3)
``"relational"``          relational solver on the inlined program
``"interproc"``           the §8 summary-based context-sensitive solver
``"tvla-relational"``     specialized first-order abstraction + TVLA (§5)
``"tvla-independent"``    same, independent-attribute mode
``"allocsite"``           generic baseline: allocation-site points-to (§3)
``"allocsite-recency"``   generic baseline with recency (ablation)
``"shapegraph"``          generic baseline: storage shape graphs (§3, Fig. 7)
========================  =====================================================
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.certifier.fds import certify_fds
from repro.certifier.interproc import InterproceduralCertifier
from repro.certifier.relational import certify_relational
from repro.certifier.report import CertificationReport
from repro.certifier.transform import ClientTransformer, TransformError
from repro.derivation import DerivedAbstraction, derive
from repro.easl.spec import ComponentSpec
from repro.generic_analysis import (
    AllocSiteDomain,
    ShapeGraphDomain,
    analyze_generic,
)
from repro.lang.inline import InlinedProgram, inline_program
from repro.lang.types import Program, parse_program
from repro.logic import packed as packed_kernel
from repro.runtime.cache import (
    DEFAULT_CACHE_SIZE,
    CacheStats,
    LRUCache,
    stable_key,
)
from repro.runtime.gcpause import collector_paused
from repro.runtime.guard import (
    DegradationLadder,
    ResourceExhausted,
    ResourceGovernor,
    SiteLedger,
)
from repro.runtime.trace import (
    Tracer,
    current_tracer,
    note,
    phase,
    use_tracer,
)
from repro.tvla.engine import TvlaEngine
from repro.tvp.specialize import specialized_translation

ENGINES = (
    "auto",
    "fds",
    "relational",
    "interproc",
    "tvla-relational",
    "tvla-independent",
    "allocsite",
    "allocsite-recency",
    "shapegraph",
)


def _identity_memo(cache: LRUCache, obj, extra, factory):
    """Memoize ``factory()`` per (object identity, extra key).

    Entries store the keyed object; a hit requires the stored object to
    *be* the argument, so a recycled ``id`` after garbage collection can
    never return a stale value.
    """
    key = (id(obj), extra)
    entry = cache.get(key)
    if entry is not None and entry[0] is obj:
        return entry[1]
    value = factory()
    cache.put(key, (obj, value))
    return value


def _abstraction_key(
    spec_name: str, identity_families: bool, kwargs: dict
) -> tuple:
    # stable_key normalizes unhashable kwarg values (lists, dicts, ...)
    # instead of letting the cache lookup raise TypeError.
    return (spec_name, bool(identity_families), stable_key(kwargs))


def _cached_abstraction(
    cache: LRUCache,
    spec: ComponentSpec,
    identity_families: bool,
    kwargs: dict,
) -> DerivedAbstraction:
    key = _abstraction_key(spec.name, identity_families, kwargs)
    ran = False

    def factory() -> DerivedAbstraction:
        nonlocal ran
        ran = True
        return derive(spec, identity_families=identity_families, **kwargs)

    # On a miss, derive() emits the authoritative "derive" event itself;
    # on a hit, emit a near-zero "derive" event marked cached so every
    # certification job still shows the full phase sequence.
    with phase("derive", spec=spec.name) as meta:
        value = cache.get_or_create(key, factory)
        meta["cached"] = not ran
        if ran:
            meta["families"] = value.stats.families
    return value


@dataclass(frozen=True)
class CertifyOptions:
    """Client-side knobs shared by every engine.

    ``entry``
        entry method (default: the program's ``main``);
    ``prune_requires``
        assume a passing ``requires`` afterwards (the A2 ablation
        toggles this off);
    ``inline_depth``
        recursion cut-off for the whole-program inliner.

    Every engine runs one configuration: reverse-postorder worklists
    (:mod:`repro.util.worklist`), and for TVLA the bit-plane structure
    kernel with compiled formulas (:mod:`repro.logic.packed`) and
    transfers memoized per (action, canonical key).

    Resource governance (see :mod:`repro.runtime.guard`):

    ``deadline``
        wall-clock seconds for one certification (the whole ladder);
    ``max_steps``
        fixpoint-iteration budget per engine run;
    ``max_structures``
        abstract-structure/state-count budget per engine run;
    ``ladder``
        what to do when a budget breaches: ``None``/``False`` re-raise
        :class:`~repro.runtime.guard.ResourceExhausted`; ``True`` retries
        the unknown residue down the engine's default degradation tail;
        a tuple of engine names is an explicit ladder.

    Certificates (see :mod:`repro.cert`):

    ``emit_certificate``
        record the post-fixpoint per-node abstract states into a
        :class:`~repro.cert.ConformanceCertificate` attached to
        ``report.certificate``.  Requires certifying from source text
        (:meth:`CertifySession.certify`), since the certificate embeds
        the client source it proves something about.
    """

    entry: Optional[str] = None
    prune_requires: bool = True
    inline_depth: int = 12
    deadline: Optional[float] = None
    max_steps: Optional[int] = None
    max_structures: Optional[int] = None
    ladder: Union[None, bool, Tuple[str, ...]] = None
    emit_certificate: bool = False
    #: parent :class:`~repro.cert.ConformanceCertificate` to recertify
    #: incrementally from (see :mod:`repro.incr`).  Deliberately *not*
    #: part of the recorded options payload or the fingerprint: an
    #: incremental run's certificate is byte-identical to the cold one,
    #: so the parent is an execution strategy, not a semantic option.
    incremental_from: Optional[object] = None
    #: path to a persistent interprocedural summary database
    #: (:class:`repro.store.summary.SummaryStore`): ``interproc``
    #: certifications load procedure summaries from it (behind a linear
    #: validity re-check) and persist freshly computed ones.  Like
    #: ``incremental_from``, deliberately *not* part of the recorded
    #: options payload or the fingerprint — a warm run's certificate is
    #: byte-identical to the cold one, so the database is an execution
    #: strategy, not a semantic option.
    summary_db: Optional[str] = None


def packed_enabled() -> bool:
    """Whether the TVLA engines run the bit-plane state kernel: always,
    since it is the only structure representation.  Kept for callers
    that record it as run metadata."""
    return True


class CertifySession:
    """Reusable certification context for one component specification.

    A session makes spec-level reuse explicit: the derived abstraction
    is computed once per (session, derivation-parameter) combination and
    inlining results are memoized per source, both in bounded LRU caches
    whose counters :meth:`cache_stats` reports.

    ::

        session = CertifySession(
            cmp_spec(),
            engine="auto",
            options=CertifyOptions(prune_requires=True, inline_depth=12),
        )
        report = session.certify(source)
        reports = session.certify_many(sources)

    A ``tracer`` (see :mod:`repro.runtime.trace`) receives per-phase
    events for every certification run through the session; by default
    the session inherits whatever tracer is ambient.
    """

    def __init__(
        self,
        spec: ComponentSpec,
        engine: str = "auto",
        options: Optional[CertifyOptions] = None,
        *,
        tracer: Optional[Tracer] = None,
        cache: Optional[LRUCache] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; pick one of {ENGINES}"
            )
        self.spec = spec
        self.engine = engine
        self.options = options or CertifyOptions()
        self._tracer = tracer
        self._abstractions = (
            cache
            if cache is not None
            else LRUCache(cache_size, name=f"abstractions[{spec.name}]")
        )
        self._inlined = LRUCache(cache_size, name=f"inlined[{spec.name}]")
        #: identity-keyed memos: certify_program is called repeatedly
        #: with the same parsed Program (the bench harness runs every
        #: engine over one parse), so inlining and TVP translation are
        #: amortized per object.  Entries carry the keyed object and are
        #: verified by identity, so id reuse can never alias.
        self._inlined_by_obj = LRUCache(
            cache_size, name=f"inlined-by-obj[{spec.name}]"
        )
        self._tvp_by_obj = LRUCache(
            cache_size, name=f"tvp-by-obj[{spec.name}]"
        )
        #: TVLA engines are kept per (TVP, engine options): the
        #: per-(action, canonical-key) transfer memo lives on the
        #: engine, so repeated certifications replay recorded transfers
        self._engine_by_obj = LRUCache(
            cache_size, name=f"tvla-engine-by-obj[{spec.name}]"
        )
        #: lazily opened persistent summary database (options.summary_db)
        self._summary_db_obj = None

    def _summary_store(self):
        """The session's persistent summary database, or None.

        Opened lazily from ``options.summary_db`` and shared by every
        interproc certification in the session.  The write-ahead journal
        is replayed on first open, so a database torn by a crashed
        sibling is repaired (torn objects quarantined) before any
        summary is served from it.
        """
        path = self.options.summary_db
        if path is None:
            return None
        if (
            self._summary_db_obj is None
            or self._summary_db_obj.root != path
        ):
            from repro.store.summary import SummaryStore

            store = SummaryStore(path)
            store.recover()
            self._summary_db_obj = store
        return self._summary_db_obj

    # -- traced execution ------------------------------------------------------

    @contextlib.contextmanager
    def _activated(self) -> Iterator[Tracer]:
        """Install the session tracer; inherit the ambient one if unset."""
        if self._tracer is None:
            yield current_tracer()
        else:
            with use_tracer(self._tracer) as tracer:
                yield tracer

    # -- cached building blocks ------------------------------------------------

    def abstraction(
        self, *, identity_families: bool = False, **kwargs
    ) -> DerivedAbstraction:
        """The session's derived abstraction (cached per parameters)."""
        with self._activated():
            return _cached_abstraction(
                self._abstractions, self.spec, identity_families, kwargs
            )

    def prewarm(self, engines: Sequence[str] = ("auto",)) -> None:
        """Derive every abstraction flavour the given engines may need.

        The batch runtime calls this in the parent before forking its
        worker pool, so workers inherit a warm cache.
        """
        flavours = set()
        for engine in engines:
            if engine in ("auto", "interproc"):
                flavours.add(True)
            if engine != "interproc":
                flavours.add(False)
        for identity in sorted(flavours):
            self.abstraction(identity_families=identity)

    def _inline(self, program: Program, source_key=None) -> InlinedProgram:
        options = self.options
        if source_key is None:
            return _identity_memo(
                self._inlined_by_obj,
                program,
                (options.entry, options.inline_depth),
                lambda: inline_program(
                    program, options.entry, max_depth=options.inline_depth
                ),
            )
        key = (source_key, options.entry, options.inline_depth)
        return self._inlined.get_or_create(
            key,
            lambda: inline_program(
                program, options.entry, max_depth=options.inline_depth
            ),
        )

    def _specialize_tvp(self, inlined: InlinedProgram, abstraction):
        """Memoized specialized translation (per inlined program).

        Action formulas are precompiled here, at specialize time, so a
        first ("cold") certification does not pay formula compilation
        inside the fixpoint — compiled closures live in process-wide
        caches keyed by interned formula and are shared by every engine
        constructed over this TVP.
        """

        def build():
            tvp = specialized_translation(inlined, abstraction)
            packed_kernel.precompile_tvp(tvp)
            return tvp

        return _identity_memo(
            self._tvp_by_obj, inlined, id(abstraction), build
        )

    # -- certification ---------------------------------------------------------

    def certify(
        self,
        source: str,
        engine: Optional[str] = None,
        *,
        governor: Optional[ResourceGovernor] = None,
        incremental_from: Optional[object] = None,
    ) -> CertificationReport:
        """Parse a Jlite client and certify it against the session spec.

        ``incremental_from`` (or ``options.incremental_from``) names a
        parent certificate to seed the fixpoint from (:mod:`repro.incr`);
        when the parent is unusable — different engine or options, a
        changed variable universe, a tampered payload — the session
        silently falls back to full certification, so the result is the
        same either way (byte-identically so, when emitting).
        """
        parent = (
            incremental_from
            if incremental_from is not None
            else self.options.incremental_from
        )
        with collector_paused(), self._activated():
            with phase("parse", spec=self.spec.name) as meta:
                program = parse_program(source, self.spec)
                meta["methods"] = len(program.methods)
            if parent is not None:
                from repro.incr import recertify

                report = recertify(
                    self, program, source, engine, parent, governor=governor
                )
                if report is not None:
                    return report
            return self._dispatch(
                program, engine, source_key=source, governor=governor
            )

    def certify_many(
        self, sources: Iterable[str], engine: Optional[str] = None
    ) -> List[CertificationReport]:
        """Certify several clients, reusing the session's abstraction.

        For pool-parallel execution with timeouts and fallbacks, use
        :class:`repro.runtime.batch.BatchRunner` instead.
        """
        return [self.certify(source, engine) for source in sources]

    def certify_program(
        self,
        program: Program,
        engine: Optional[str] = None,
        *,
        governor: Optional[ResourceGovernor] = None,
    ) -> CertificationReport:
        """Certify an already-parsed client."""
        if program.spec is not self.spec and program.spec.name != self.spec.name:
            raise ValueError(
                f"program was parsed against spec {program.spec.name!r}, "
                f"session is for {self.spec.name!r}"
            )
        with collector_paused(), self._activated():
            return self._dispatch(
                program, engine, source_key=None, governor=governor
            )

    # -- engine dispatch -------------------------------------------------------

    def _make_governor(self) -> Optional[ResourceGovernor]:
        """A governor from the session options (None if no budget set)."""
        options = self.options
        if (
            options.deadline is None
            and options.max_steps is None
            and options.max_structures is None
        ):
            return None
        return ResourceGovernor(
            deadline=options.deadline,
            max_steps=options.max_steps,
            max_structures=options.max_structures,
        )

    def _dispatch(
        self,
        program: Program,
        engine: Optional[str],
        source_key,
        governor: Optional[ResourceGovernor] = None,
    ) -> CertificationReport:
        engine = engine or self.engine
        if engine == "auto":
            engine = "interproc" if program.is_shallow() else "tvla-relational"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; pick one of {ENGINES}"
            )
        if governor is None:
            governor = self._make_governor()
        ladder = DegradationLadder.from_option(self.options.ladder, engine)
        if ladder is not None:
            for rung in ladder.rungs_from(engine):
                if rung not in ENGINES or rung == "auto":
                    raise ValueError(
                        f"unknown ladder rung {rung!r}; "
                        f"pick concrete engines from {ENGINES}"
                    )
        try:
            return self._run_engine(program, engine, source_key, governor)
        except ResourceExhausted as error:
            note(
                "breach",
                engine=engine,
                subject=(
                    error.partial.subject
                    if error.partial is not None
                    else self.spec.name
                ),
                breach=error.breach,
                message=str(error),
            )
            if ladder is None or error.partial is None:
                raise
            return self._degrade(
                program, engine, source_key, governor, ladder, error
            )

    def _degrade(
        self,
        program: Program,
        engine: str,
        source_key,
        governor: Optional[ResourceGovernor],
        ladder: DegradationLadder,
        error: ResourceExhausted,
    ) -> CertificationReport:
        """Re-run the unknown residue down the ladder, merging per site."""
        partial = error.partial
        assert partial is not None
        ledger = SiteLedger(partial.unknown_sites)
        salvaged = ledger.absorb_partial(partial)
        note(
            "salvage",
            engine=engine,
            subject=partial.subject,
            sites=salvaged,
            breach=error.breach,
        )
        attempted: List[str] = []
        completed: Optional[str] = None
        for rung in ladder.rungs_from(engine)[1:]:
            if not ledger.unresolved():
                break  # every site already resolved by salvaged alarms
            attempted.append(rung)
            note(
                "degrade",
                engine=engine,
                subject=partial.subject,
                to=rung,
                open_sites=len(ledger.unresolved()),
            )
            rung_governor = (
                governor.descend() if governor is not None else None
            )
            try:
                report = self._run_engine(
                    program, rung, source_key, rung_governor
                )
            except TransformError as skip:
                # the rung cannot express this program (e.g. an SCMP
                # solver on a heap client): skip it rather than lose
                # the salvage already banked — the residue continues
                # down the ladder or folds into conservative alarms
                attempted.pop()
                note(
                    "warning",
                    engine=engine,
                    subject=partial.subject,
                    rung=rung,
                    reason=str(skip),
                )
                continue
            except ResourceExhausted as rung_error:
                if rung_error.partial is not None:
                    fresh = ledger.absorb_partial(rung_error.partial)
                    note(
                        "salvage",
                        engine=rung,
                        subject=partial.subject,
                        sites=fresh,
                        breach=rung_error.breach,
                    )
                continue
            ledger.absorb_report(report)
            completed = rung
            break
        stats = {
            "partial": bool(ledger.unresolved()),
            "breach": error.breach,
            "ladder": list(ladder.rungs_from(engine)),
            "degraded_to": attempted[-1] if attempted else None,
            "completed_rung": completed,
            "salvaged": len(ledger.salvaged),
            "sites_resolved": len(ledger.resolved_sites()),
            "sites_unresolved": len(ledger.unresolved()),
            "nodes_analyzed": partial.nodes_analyzed,
            "nodes_total": partial.nodes_total,
        }
        report = CertificationReport(
            subject=partial.subject,
            engine=engine,
            alarms=ledger.final_alarms(),
            stats=stats,
        )
        if self.options.emit_certificate:
            # a breached-and-salvaged run has no fixpoint annotation to
            # carry; emit a partial certificate (annotation: null, salvage
            # metadata in the verdict) that the checker rejects as
            # unverifiable rather than silently passing
            from repro.cert.emit import build_partial_certificate

            if not isinstance(source_key, str):
                raise ValueError(
                    "emit_certificate requires certifying from source text "
                    "(CertifySession.certify), since the certificate embeds "
                    "the client source"
                )
            with phase("emit", engine=engine):
                report.certificate = build_partial_certificate(
                    spec=self.spec,
                    engine=engine,
                    options=self.options,
                    source=source_key,
                    report=report,
                )
        return report

    def artifacts(self, program: Program, engine: str, source_key=None) -> dict:
        """Build the engine-specific analysis artifacts — abstraction,
        transformed boolean program, specialized TVP + engine object, or
        inlined program + heap domain.

        Shared by the fixpoint path (:meth:`_run_engine`) and the
        certificate checker (:class:`repro.cert.CertificateChecker`), so
        both interpret the client through exactly the same construction.
        """
        options = self.options
        if engine == "interproc":
            return {"abstraction": self.abstraction(identity_families=True)}
        inlined = self._inline(program, source_key)
        if engine in ("fds", "relational"):
            abstraction = self.abstraction()
            boolprog = ClientTransformer(
                program, abstraction
            ).transform_inlined(inlined)
            return {"abstraction": abstraction, "boolprog": boolprog}
        if engine.startswith("tvla-"):
            abstraction = self.abstraction()
            tvp = self._specialize_tvp(inlined, abstraction)
            mode = engine.split("-", 1)[1]
            engine_obj = _identity_memo(
                self._engine_by_obj,
                tvp,
                (mode, options.prune_requires),
                lambda: TvlaEngine(
                    tvp, mode=mode, prune_requires=options.prune_requires
                ),
            )
            return {
                "abstraction": abstraction,
                "tvp": tvp,
                "engine_obj": engine_obj,
                "mode": mode,
            }
        if engine == "allocsite":
            domain = AllocSiteDomain()
        elif engine == "allocsite-recency":
            domain = AllocSiteDomain(recency=True)
        elif engine == "shapegraph":
            domain = ShapeGraphDomain()
        else:
            raise AssertionError("unreachable")
        return {"abstraction": None, "inlined": inlined, "domain": domain}

    def _attach_certificate(
        self, report: CertificationReport, engine: str, source_key, arts, capture
    ) -> None:
        from repro.cert.emit import build_certificate

        if not isinstance(source_key, str):
            raise ValueError(
                "emit_certificate requires certifying from source text "
                "(CertifySession.certify), since the certificate embeds "
                "the client source"
            )
        with phase("emit", engine=engine):
            certificate = build_certificate(
                spec=self.spec,
                engine=engine,
                options=self.options,
                abstraction=arts.get("abstraction"),
                source=source_key,
                report=report,
                arts=arts,
                capture=capture,
            )
        report.certificate = certificate

    def _run_engine(
        self,
        program: Program,
        engine: str,
        source_key,
        governor: Optional[ResourceGovernor] = None,
    ) -> CertificationReport:
        options = self.options
        arts = self.artifacts(program, engine, source_key)
        if engine == "interproc":
            certifier = InterproceduralCertifier(
                program,
                arts["abstraction"],
                prune_requires=options.prune_requires,
                governor=governor,
                summary_store=self._summary_store(),
            )
            report = certifier.certify(options.entry)
            capture = {"certifier": certifier}
        else:
            report, capture = self._fixpoint(engine, arts, governor)
        if options.emit_certificate:
            self._attach_certificate(report, engine, source_key, arts, capture)
        return report

    def _fixpoint(self, engine: str, arts: dict, governor=None, seed=None):
        """Run a non-interproc engine over built ``arts``, warm from
        ``seed`` when given (:mod:`repro.incr`); returns the report and
        what certificate emission reads."""
        if engine in ("fds", "relational"):
            sink: list = []
            certify = certify_fds if engine == "fds" else certify_relational
            report = certify(
                arts["boolprog"],
                prune_requires=self.options.prune_requires,
                governor=governor,
                result_sink=sink,
                seed=seed,
            )
            return report, {"result": sink[0]}
        if engine.startswith("tvla-"):
            result = arts["engine_obj"].run(governor, seed)
        else:
            result = analyze_generic(
                arts["inlined"], arts["domain"], engine, governor=governor,
                seed=seed,
            )
        return result.report, {"result": result}

    # -- observability ---------------------------------------------------------

    def cache_stats(self) -> List[CacheStats]:
        return [
            self._abstractions.stats(),
            self._inlined.stats(),
            self._inlined_by_obj.stats(),
            self._tvp_by_obj.stats(),
            self._engine_by_obj.stats(),
        ]
