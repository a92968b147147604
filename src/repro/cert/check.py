"""The lightweight independent certificate checker.

:class:`CertificateChecker` validates a :class:`ConformanceCertificate`
without running any fixpoint: because the annotation claims to *be* a
fixpoint, one linear pass over the CFG edges suffices —

1. **inductive**: each node's recorded state subsumes the transfer of
   every annotated predecessor (the transfer functions are the engines'
   own, including the compiled formula evaluators, so checker and
   analyzer agree on semantics by construction);
2. **covering**: the annotated node set is transfer-closed and contains
   the entry with its initial state, so it over-approximates every
   reachable node;
3. **entailing**: replaying the per-edge checks over the recorded states
   reproduces the claimed alarm set exactly (at a fixpoint, every edge
   was last evaluated on its source's final state, so the replay sees
   precisely what the analyzer saw).

For fds and interproc the first two steps are
:func:`repro.certifier.boolprog.replay`, the pass the summary database
runs on every stored context; interproc looks each callee context up in
the certificate and requires every exit mask within its summary.  No
SCMP fixpoint engine is imported: those checks read only
:mod:`repro.certifier.boolprog` and :mod:`repro.certifier.spaces`.  The
other families decode their annotation with the decoder incremental
recertification uses too (:mod:`repro.cert.model`) and run one of two
passes with their own transfer: a *set-shaped* pass (relational,
tvla-relational: every transferred element is in the successor's set)
or a *join-shaped* one (tvla-independent, allocsite, allocsite-recency,
shapegraph: a missing successor is ``coverage``, a join that moves it
``not-inductive``).

Accept/reject is typed (:class:`CheckResult`); a reject carries the
first violating edge.  The checker keeps the derived abstractions per
spec and flavour, deriving each once, and per recent client only what
its replay reads (the boolean program, or the fact spaces with their
call plans): a re-check parses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.api import (
    DEFAULT_CACHE_SIZE,
    ENGINES,
    CertifyOptions,
    CertifySession,
)
from repro.cert import model
from repro.cert.model import CertificateError, ConformanceCertificate
from repro.certifier.boolprog import (
    Violation,
    collect_alarms,
    record_alarms,
    replay,
    valuation_alarms,
    valuation_transfer,
)
from repro.certifier.spaces import FactSpaces
from repro.easl.library import UnknownSpecError, get_spec
from repro.easl.spec import ComponentSpec
from repro.generic_analysis.framework import (
    _SpecRunner,
    _transfer as generic_transfer,
    alarms_from_checks,
)
from repro.logic.packed import PackedStructure
from repro.runtime.cache import LRUCache
from repro.runtime.gcpause import collector_paused
from repro.runtime.trace import phase
from repro.tvla.engine import _alarm_list


@dataclass
class CheckResult:
    """Typed accept/reject verdict for one certificate."""

    ok: bool
    kind: str  # "accepted" or a reject kind
    detail: str = ""
    engine: str = ""
    subject: str = ""
    #: first violating edge (src, dst) for inductiveness rejects;
    #: interproc prefixes the context method
    edge: Optional[Tuple] = None
    nodes: int = 0
    edges: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        verdict = "ACCEPT" if self.ok else f"REJECT[{self.kind}]"
        text = f"{verdict} {self.subject} ({self.engine})"
        if self.ok:
            text += f": {self.nodes} node(s), {self.edges} edge transfer(s)"
        else:
            if self.detail:
                text += f": {self.detail}"
            if self.edge is not None:
                text += f" (first violating edge {self.edge})"
        return text


class _Reject(Exception):
    def __init__(self, kind: str, detail: str, edge: Optional[Tuple] = None):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.edge = edge


class CertificateChecker:
    """Validates fixpoint certificates in one linear pass per edge set.

    Reusable: derived abstractions are cached per spec and flavour in
    one bounded cache, so checking a batch of certificates against one
    spec derives once, whatever options the certificates name.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ComponentSpec] = {}
        # derivation reads no CertifyOptions, so the sessions of every
        # options set share one cache
        self._abstractions = LRUCache(
            DEFAULT_CACHE_SIZE, name="checker-abstractions"
        )
        # what a replay reads is a deterministic function of (spec,
        # options, engine, source); the source hash is verified against
        # the embedded text before it is used as a key, so memoizing it
        # does not extend the trusted base — it only lets a re-check of
        # a recent client skip parsing.  Bounded, so a long-lived checker
        # does not grow with every client it sees
        self._builds = LRUCache(DEFAULT_CACHE_SIZE, name="checker-builds")
        self._spec_hashes: Dict[str, str] = {}

    # -- session plumbing ---------------------------------------------------

    def _resolve_spec(self, name: str, spec: Optional[ComponentSpec]):
        if spec is not None:
            return spec
        if name not in self._specs:
            try:
                self._specs[name] = get_spec(name)
            except UnknownSpecError:
                raise _Reject(
                    "malformed",
                    f"unknown spec {name!r} (not in the library; pass spec=)",
                ) from None
        return self._specs[name]

    def _session(self, spec: ComponentSpec, opts: Dict[str, object]):
        """A session for one check, over the checker's derived
        abstractions.  Its inline and TVP memos die with it: the build
        cache keeps what a replay reads, and a memo entry would pin the
        parsed program of every client checked."""
        return CertifySession(
            spec,
            options=CertifyOptions(
                entry=opts.get("entry"),
                prune_requires=bool(opts.get("prune_requires", True)),
                inline_depth=int(opts.get("inline_depth", 12)),
            ),
            cache=self._abstractions,
        )

    # -- entry point --------------------------------------------------------

    def check(
        self,
        certificate,
        *,
        spec: Optional[ComponentSpec] = None,
    ) -> CheckResult:
        """Validate one certificate (a :class:`ConformanceCertificate`,
        or its payload dict)."""
        payload = (
            certificate.payload
            if isinstance(certificate, ConformanceCertificate)
            else certificate
        )
        engine = str(payload.get("engine", "?")) if isinstance(payload, dict) else "?"
        subject = str(payload.get("subject", "?")) if isinstance(payload, dict) else "?"
        with collector_paused(), phase("check", engine=engine) as meta:
            try:
                result = self._check(payload, spec, meta)
            except Exception as error:
                reject = error
                if isinstance(error, CertificateError):
                    reject = _Reject("malformed", str(error))
                elif not isinstance(error, _Reject):
                    # a tampered annotation can crash the engines' own
                    # transfer functions; an adversarial certificate
                    # must never crash the checker
                    reject = _Reject(
                        "malformed", f"{type(error).__name__}: {error}"
                    )
                result = CheckResult(
                    ok=False,
                    kind=reject.kind,
                    detail=reject.detail,
                    engine=engine,
                    subject=subject,
                    edge=reject.edge,
                )
            meta["ok"] = result.ok
            meta["kind"] = result.kind
        return result

    def _check(
        self, payload, spec: Optional[ComponentSpec], meta: Dict[str, object]
    ) -> CheckResult:
        if not isinstance(payload, dict):
            raise _Reject("malformed", "certificate is not a JSON object")
        if payload.get("format") != model.CERT_FORMAT:
            raise _Reject(
                "malformed", f"unknown format {payload.get('format')!r}"
            )
        if payload.get("version") != model.CERT_VERSION:
            raise _Reject(
                "version-mismatch",
                f"certificate version {payload.get('version')!r}, "
                f"checker speaks {model.CERT_VERSION}",
            )
        engine = payload.get("engine")
        if engine not in ENGINES or engine == "auto":
            raise _Reject("malformed", f"unknown engine {engine!r}")
        subject = str(payload.get("subject", "?"))

        spec_obj = self._resolve_spec(str(payload.get("spec")), spec)
        if payload.get("spec") != spec_obj.name:
            raise _Reject(
                "spec-mismatch",
                f"certificate is for spec {payload.get('spec')!r}, "
                f"checking against {spec_obj.name!r}",
            )
        if spec_obj.name not in self._spec_hashes:
            self._spec_hashes[spec_obj.name] = model.spec_hash(spec_obj)
        if payload.get("spec_hash") != self._spec_hashes[spec_obj.name]:
            raise _Reject(
                "spec-hash-mismatch",
                "specification hash disagrees with the checker's spec",
            )

        source = payload.get("source")
        if not isinstance(source, str):
            raise _Reject("malformed", "certificate carries no client source")
        if payload.get("source_hash") != model.sha256_text(source):
            raise _Reject(
                "source-hash-mismatch",
                "embedded source does not match its recorded hash",
            )

        opts = payload.get("options")
        if not isinstance(opts, dict):
            raise _Reject("malformed", "certificate carries no options")
        if payload.get("fingerprint") != model.options_fingerprint(
            engine, opts
        ):
            raise _Reject(
                "fingerprint-mismatch",
                "engine/options fingerprint disagrees with recorded options",
            )
        if opts.get("worklist") != model.WORKLIST:
            # every engine schedules in reverse postorder; a certificate
            # claiming another order was not emitted by this pipeline
            raise _Reject(
                "malformed",
                f"options record worklist {opts.get('worklist')!r}, "
                f"the engines only run {model.WORKLIST!r}",
            )

        verdict = payload.get("verdict")
        if not isinstance(verdict, dict):
            raise _Reject("malformed", "certificate carries no verdict")
        if verdict.get("partial"):
            raise _Reject(
                "partial",
                "partial (salvaged) certificate carries no fixpoint "
                "annotation and cannot be independently verified",
            )
        annotation = payload.get("annotation")
        if not isinstance(annotation, dict):
            raise _Reject("malformed", "certificate carries no annotation")

        session = self._session(spec_obj, opts)
        build_key = (
            spec_obj.name,
            model.canonical_text(opts),
            str(engine),
            str(payload.get("source_hash")),
        )
        build = self._builds.get(build_key)
        if build is None:
            build = self._build(session, spec_obj, str(engine), source, meta)
            self._builds.put(build_key, build)
        built, derived_hash = build

        recorded_hash = payload.get("abstraction_hash")
        if recorded_hash != derived_hash:
            raise _Reject(
                "abstraction-hash-mismatch",
                "derived-abstraction hash disagrees with this derivation",
            )

        if engine == "fds":
            alarms, nodes, edges = self._check_fds(session, built, annotation)
        elif engine == "interproc":
            alarms, nodes, edges = self._check_interproc(
                session, built, annotation
            )
        else:
            alarms, nodes, edges = self._check_states(
                session, spec_obj, engine, built, annotation
            )

        recorded = verdict.get("alarms")
        computed = model.alarms_to_json(alarms)
        if recorded != computed:
            raise _Reject(
                "alarm-mismatch",
                f"annotation entails {len(computed)} alarm(s), "
                f"certificate claims {len(recorded or [])}",
            )
        if bool(verdict.get("certified")) != (not computed):
            raise _Reject(
                "alarm-mismatch", "certified flag contradicts the alarm list"
            )
        return CheckResult(
            ok=True,
            kind="accepted",
            engine=engine,
            subject=subject,
            nodes=nodes,
            edges=edges,
        )

    def _build(self, session, spec, engine, source, meta):
        """What the family's replay reads, built from the embedded
        source, and the hash of the abstraction it was built under."""
        try:
            from repro.lang.types import parse_program

            program = parse_program(source, spec)
            arts = session.artifacts(program, engine, source_key=source)
        except Exception as error:  # parse/transform failure on the
            # embedded source: the certificate cannot describe this
            # client
            raise _Reject(
                "malformed",
                f"embedded source does not build for {engine}: {error}",
            )
        derived_hash = model.abstraction_hash(arts.get("abstraction"))
        if engine in ("fds", "relational"):
            return arts["boolprog"], derived_hash
        if engine.startswith("tvla-"):
            return arts, derived_hash
        if engine != "interproc":
            return (arts["inlined"].cfg, arts["domain"]), derived_hash
        facts = FactSpaces(program, arts["abstraction"])
        entry = session.options.entry
        root = (program.method(entry) if entry else program.entry).qualified
        spaces = facts.compile()
        meta.update(facts.plan_stats)
        return (root, spaces), derived_hash

    # -- family passes ------------------------------------------------------

    def _check_fds(self, session, boolprog, annotation):
        if annotation.get("kind") != "fds":
            raise _Reject("malformed", "annotation kind is not 'fds'")
        if annotation.get("num_vars") != boolprog.num_vars:
            raise _Reject(
                "malformed",
                f"annotation has {annotation.get('num_vars')} variables, "
                f"transformation produced {boolprog.num_vars}",
            )
        masks = model.decode_masks(annotation["nodes"])
        init_one = boolprog.initial_mask()
        init_zero = ((1 << boolprog.num_vars) - 1) & ~init_one
        prune = session.options.prune_requires
        outcome = replay(boolprog, masks, init_one, init_zero, prune)
        if isinstance(outcome, Violation):
            raise _Reject(*outcome)
        alarms = collect_alarms(boolprog, masks)
        return alarms, len(masks), boolprog.edges_leaving(masks)

    def _check_interproc(self, session, build, annotation):
        if annotation.get("kind") != "interproc":
            raise _Reject("malformed", "annotation kind is not 'interproc'")
        root_method, spaces = build
        prune = session.options.prune_requires
        try:
            contexts: Dict[Tuple[str, int], tuple] = {}
            for ctx in annotation["contexts"]:
                key = (str(ctx["method"]), int(ctx["entry"], 16))
                contexts[key] = (
                    model.decode_masks(ctx["nodes"]),
                    int(ctx["summary"], 16),
                    ctx["num_vars"],
                )
        except (KeyError, TypeError, ValueError) as error:
            raise _Reject("malformed", f"bad interproc context: {error}")
        root = (root_method, spaces[root_method].default_mask)
        if root not in contexts:
            raise _Reject(
                "entry",
                f"root context {root_method} with the initial "
                "vector is not annotated",
            )
        alarms: Dict[Tuple[int, str], object] = {}
        total_nodes = 0
        checked = 0
        for (method, entry_vector), context in sorted(contexts.items()):
            masks, summary, num_vars = context
            space = spaces.get(method)
            if space is None:
                raise _Reject(
                    "malformed", f"unknown context method {method!r}"
                )
            boolprog = space.boolprog
            if num_vars != boolprog.num_vars:
                raise _Reject(
                    "malformed", f"variable count mismatch in {method}"
                )

            def callee_summary(edge, stm, mask):
                # no plan (a KeyError, so malformed): the callee's space
                # does not build
                plan = space.plans[(edge.src, edge.dst)]
                callee = contexts.get((stm.callee, plan.entry(mask)))
                if callee is None:
                    return None
                return plan.ret(mask, callee[1])

            all_vars = (1 << boolprog.num_vars) - 1
            if (method, entry_vector) == root:
                entry_zero = all_vars & ~entry_vector
            else:
                entry_zero = all_vars
            outcome = replay(
                boolprog, masks, entry_vector, entry_zero, prune,
                space.call_map(), callee_summary,
                partial(record_alarms, boolprog, method, alarms, prune),
            )
            if isinstance(outcome, Violation):
                kind, detail, edge = outcome
                raise _Reject(
                    kind, f"{method}: {detail}", edge and (method, *edge)
                )
            if outcome & ~summary:
                raise _Reject(
                    "not-inductive",
                    f"{method}: summary does not cover the exit annotation",
                    edge=(method, boolprog.exit),
                )
            total_nodes += len(masks)
            checked += boolprog.edges_leaving(masks)
        alarm_list = sorted(
            alarms.values(), key=lambda a: (a.site_id, a.instance)
        )
        return alarm_list, total_nodes, checked

    def _check_states(self, session, spec, engine, built, annotation):
        """relational, tvla and generic-heap certificates: decode the
        family's annotation, then run its shape of pass with its own
        transfer."""
        if engine == "relational":
            boolprog = built
            if annotation.get("kind") != "relational":
                raise _Reject(
                    "malformed", "annotation kind is not 'relational'"
                )
            if annotation.get("num_vars") != boolprog.num_vars:
                raise _Reject("malformed", "variable count mismatch")
            states = model.decode_valuations(
                annotation, boolprog.num_vars, set(boolprog.nodes())
            )
            prune = session.options.prune_requires
            hits: Dict[Tuple[int, int], List[bool]] = {}
            checked = _set_pass(
                boolprog,
                boolprog.edges,
                states,
                boolprog.initial_mask(),
                lambda edge, values: (
                    valuation_transfer(edge, values, hits, prune),
                ),
                "valuation",
            )
            return valuation_alarms(boolprog, hits), len(states), checked
        if engine.startswith("tvla-"):
            engine_obj = built["engine_obj"]
            tvp = built["tvp"]
            if annotation.get("kind") != "tvla" or annotation.get(
                "mode"
            ) != built["mode"]:
                raise _Reject("malformed", "annotation kind/mode mismatch")
            preds = engine_obj.abstraction_preds
            # canonical keys are recomputed from the decoded pool
            # (canonicalizing defensively), never trusted from the file
            states = model.decode_structures(
                annotation, preds, set(tvp.nodes())
            )
            initial = engine_obj.initial_structure().canonicalize(preds)
            sink: Dict[Tuple[int, str], object] = {}
            if built["mode"] == "relational":

                def transfer(edge, bucket):
                    for structure in bucket.values():
                        yield [
                            out.canonical_key(preds)
                            for out in engine_obj.apply(
                                structure, edge.action, sink
                            )
                        ]

                checked = _set_pass(
                    tvp,
                    _by_node(tvp, states),
                    states,
                    initial.canonical_key(preds),
                    transfer,
                    "structure",
                )
            else:
                checked = _join_pass(
                    tvp,
                    states,
                    initial,
                    lambda edge, structure: engine_obj.apply(
                        structure, edge.action, sink
                    ),
                    lambda old, new: PackedStructure.join(old, new, preds)
                    .canonicalize(preds)
                    .canonical_key(preds)
                    == old.canonical_key(preds),
                    "structure",
                )
            return _alarm_list(sink), len(states), checked
        cfg, domain = built
        if annotation.get("kind") != "generic":
            raise _Reject("malformed", "annotation kind is not 'generic'")
        states = model.decode_heap_states(annotation, domain, set(cfg.nodes()))
        runner = _SpecRunner(spec, domain)
        # one application per edge serves both purposes: the successor
        # states prove inductiveness, and the checks sink replays the
        # requires clauses
        checks: List[Tuple[int, int, str, bool]] = []
        checked = _join_pass(
            cfg,
            states,
            domain.initial(),
            lambda edge, state: generic_transfer(
                edge.stm, state, domain, runner, checks
            ),
            lambda old, new: domain.join(old, new) == old,
            "state",
        )
        return alarms_from_checks(checks), len(states), checked


def _by_node(graph, states):
    """The edges leaving annotated nodes, node by node in id order."""
    return [edge for node in sorted(states) for edge in graph.out_edges(node)]


def _set_pass(graph, edges, states, initial, transfer, what: str) -> int:
    """The set-shaped pass (relational, tvla-relational): the entry's
    set holds ``initial``, and every element ``transfer(edge, set)``
    yields along an edge leaving an annotated node is in the successor's
    annotated set.  ``edges`` fixes the order, so which violation is
    reported first; ``transfer`` yields one collection of (keys of)
    elements per application.  Returns the application count."""
    if initial not in states.get(graph.entry, ()):
        raise _Reject(
            "entry", f"entry annotation does not contain the initial {what}"
        )
    checked = 0
    for edge in edges:
        if edge.src not in states:
            continue
        target = states.get(edge.dst, ())
        for outs in transfer(edge, states[edge.src]):
            checked += 1
            for out in outs:
                if out not in target:
                    raise _Reject(
                        "not-inductive",
                        f"a {what} transferred along edge {edge.src}->"
                        f"{edge.dst} is not in the successor annotation",
                        edge=(edge.src, edge.dst),
                    )
    return checked


def _join_pass(graph, states, initial, transfer, subsumes, what: str) -> int:
    """The join-shaped pass (tvla-independent, the generic heap
    domains): one state per node, the entry's subsumes ``initial``, and
    every state ``transfer(edge, state)`` yields along an edge leaving an
    annotated node, node by node in id order, is subsumed by the
    successor's — a successor without a state is ``coverage``, one the
    join would move ``not-inductive``.  Returns the edge count."""
    entry_state = states.get(graph.entry)
    if entry_state is None:
        raise _Reject("entry", "entry node is not annotated")
    if not subsumes(entry_state, initial):
        raise _Reject(
            "entry", f"entry annotation does not subsume the initial {what}"
        )
    checked = 0
    for edge in _by_node(graph, states):
        checked += 1
        for out in transfer(edge, states[edge.src]):
            old = states.get(edge.dst)
            if old is None:
                raise _Reject(
                    "coverage",
                    f"node {edge.dst} is reachable but not annotated",
                    edge=(edge.src, edge.dst),
                )
            if not subsumes(old, out):
                raise _Reject(
                    "not-inductive",
                    f"transfer along edge {edge.src}->{edge.dst} is not "
                    "subsumed by the successor annotation",
                    edge=(edge.src, edge.dst),
                )
    return checked
