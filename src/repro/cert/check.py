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

Accept/reject is typed (:class:`CheckResult`); a reject carries the
first violating edge.  The checker keeps an internal
:class:`~repro.api.CertifySession` per (spec, options) so that checking
many certificates amortizes derivation and transformation the same way
emission did — that, plus skipping the fixpoint, is where the check-time
advantage comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import (
    DEFAULT_CACHE_SIZE,
    ENGINES,
    CertifyOptions,
    CertifySession,
)
from repro.cert import model
from repro.cert.model import CertificateError, ConformanceCertificate
from repro.certifier.fds import FdsSolver
from repro.certifier.interproc import InterproceduralCertifier
from repro.certifier.relational import RelationalSolver
from repro.certifier.report import Alarm
from repro.easl.library import UnknownSpecError, get_spec
from repro.easl.spec import ComponentSpec
from repro.generic_analysis.framework import (
    _SpecRunner,
    _transfer as generic_transfer,
)
from repro.logic.packed import PackedStructure
from repro.runtime.cache import LRUCache
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

    Reusable: sessions (and thus derived abstractions, inlining, and
    client transformations) are cached per (spec, options fingerprint),
    so checking a batch of certificates against one spec derives once.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ComponentSpec] = {}
        self._sessions: Dict[Tuple[str, str], CertifySession] = {}
        # parse/transform/derivation results are deterministic functions
        # of (spec, options, engine, source); the source hash is verified
        # against the embedded text before it is used as a key, so
        # memoizing them does not extend the trusted base — it only
        # lets a re-check of a recent client skip parsing.  Bounded, so a
        # long-lived checker does not grow with every client it sees
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
        key = (spec.name, model.canonical_text(opts))
        if key not in self._sessions:
            self._sessions[key] = CertifySession(
                spec,
                options=CertifyOptions(
                    entry=opts.get("entry"),
                    prune_requires=bool(opts.get("prune_requires", True)),
                    inline_depth=int(opts.get("inline_depth", 12)),
                ),
            )
        return self._sessions[key]

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
        with phase("check", engine=engine) as meta:
            try:
                result = self._check(payload, spec, meta)
            except _Reject as reject:
                result = CheckResult(
                    ok=False,
                    kind=reject.kind,
                    detail=reject.detail,
                    engine=engine,
                    subject=subject,
                    edge=reject.edge,
                )
            except CertificateError as error:
                result = CheckResult(
                    ok=False,
                    kind="malformed",
                    detail=str(error),
                    engine=engine,
                    subject=subject,
                )
            except Exception as error:
                # a tampered annotation can crash the engines' own
                # transfer functions; an adversarial certificate must
                # never crash the checker
                result = CheckResult(
                    ok=False,
                    kind="malformed",
                    detail=f"{type(error).__name__}: {error}",
                    engine=engine,
                    subject=subject,
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
            try:
                from repro.lang.types import parse_program

                program = parse_program(source, spec_obj)
                arts = session.artifacts(program, engine, source_key=source)
            except _Reject:
                raise
            except Exception as error:  # parse/transform failure on the
                # embedded source: the certificate cannot describe this
                # client
                raise _Reject(
                    "malformed",
                    f"embedded source does not build for {engine}: {error}",
                )
            build = (
                program,
                arts,
                model.abstraction_hash(arts.get("abstraction")),
            )
            self._builds.put(build_key, build)
        program, arts, derived_hash = build

        recorded_hash = payload.get("abstraction_hash")
        if recorded_hash != derived_hash:
            raise _Reject(
                "abstraction-hash-mismatch",
                "derived-abstraction hash disagrees with this derivation",
            )

        if engine == "fds":
            alarms, nodes, edges = self._check_fds(session, arts, annotation)
        elif engine == "relational":
            alarms, nodes, edges = self._check_relational(
                session, arts, annotation
            )
        elif engine == "interproc":
            alarms, nodes, edges = self._check_interproc(
                session, program, arts, annotation, meta
            )
        elif engine.startswith("tvla-"):
            alarms, nodes, edges = self._check_tvla(arts, annotation)
        else:
            alarms, nodes, edges = self._check_generic(
                spec_obj, arts, annotation
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

    # -- family passes ------------------------------------------------------

    def _decode_boolprog_masks(self, boolprog, annotation):
        if annotation.get("num_vars") != boolprog.num_vars:
            raise _Reject(
                "malformed",
                f"annotation has {annotation.get('num_vars')} variables, "
                f"transformation produced {boolprog.num_vars}",
            )
        masks = model.decode_masks(annotation["nodes"])
        limit = 1 << boolprog.num_vars
        valid = set(boolprog.nodes())
        for node, (one, zero) in masks.items():
            if node not in valid:
                raise _Reject("malformed", f"annotation names unknown node {node}")
            if one >= limit or zero >= limit:
                raise _Reject(
                    "malformed", f"mask bits beyond num_vars at node {node}"
                )
        return masks

    def _check_fds(self, session, arts, annotation):
        boolprog = arts["boolprog"]
        if annotation.get("kind") != "fds":
            raise _Reject("malformed", "annotation kind is not 'fds'")
        masks = self._decode_boolprog_masks(boolprog, annotation)
        may_one = {node: pair[0] for node, pair in masks.items()}
        may_zero = {node: pair[1] for node, pair in masks.items()}
        all_vars = (1 << boolprog.num_vars) - 1
        init_one = boolprog.initial_mask()
        init_zero = all_vars & ~init_one
        if init_one & ~may_one.get(boolprog.entry, 0) or init_zero & ~may_zero.get(
            boolprog.entry, 0
        ):
            raise _Reject(
                "entry", "entry annotation does not cover the initial valuation"
            )
        solver = FdsSolver(prune_requires=session.options.prune_requires)
        checked = 0
        for edge in boolprog.edges:
            if edge.src not in masks:
                continue  # claimed unreachable; closure makes this sound
            transferred = solver._transfer(
                edge, may_one[edge.src], may_zero[edge.src]
            )
            checked += 1
            if transferred is None:
                continue  # the edge definitely throws: no flow to subsume
            new_one, new_zero = transferred
            if new_one & ~may_one.get(edge.dst, 0) or new_zero & ~may_zero.get(
                edge.dst, 0
            ):
                raise _Reject(
                    "not-inductive",
                    f"transfer along edge {edge.src}->{edge.dst} is not "
                    "subsumed by the successor annotation",
                    edge=(edge.src, edge.dst),
                )
        alarms = solver._collect_alarms(boolprog, may_one, may_zero, None)
        return alarms, len(masks), checked

    def _check_relational(self, session, arts, annotation):
        boolprog = arts["boolprog"]
        if annotation.get("kind") != "relational":
            raise _Reject("malformed", "annotation kind is not 'relational'")
        if annotation.get("num_vars") != boolprog.num_vars:
            raise _Reject("malformed", "variable count mismatch")
        states = model.decode_int_sets(annotation["nodes"])
        limit = 1 << boolprog.num_vars
        valid = set(boolprog.nodes())
        for node, values in states.items():
            if node not in valid:
                raise _Reject("malformed", f"annotation names unknown node {node}")
            if any(v < 0 or v >= limit for v in values):
                raise _Reject(
                    "malformed", f"valuation beyond num_vars at node {node}"
                )
        if boolprog.initial_mask() not in states.get(boolprog.entry, frozenset()):
            raise _Reject(
                "entry", "entry annotation does not contain the initial valuation"
            )
        solver = RelationalSolver(
            prune_requires=session.options.prune_requires
        )
        alarm_hits: Dict[Tuple[int, int], List[bool]] = {}
        checked = 0
        for edge in boolprog.edges:
            if edge.src not in states:
                continue
            outgoing = solver._transfer(edge, states[edge.src], alarm_hits)
            checked += 1
            extra = outgoing - states.get(edge.dst, frozenset())
            if extra:
                raise _Reject(
                    "not-inductive",
                    f"{len(extra)} valuation(s) along edge "
                    f"{edge.src}->{edge.dst} escape the successor annotation",
                    edge=(edge.src, edge.dst),
                )
        alarms = solver._collect_alarms(boolprog, alarm_hits)
        return alarms, len(states), checked

    def _check_interproc(self, session, program, arts, annotation, meta):
        if annotation.get("kind") != "interproc":
            raise _Reject("malformed", "annotation kind is not 'interproc'")
        # a fresh certifier per check: its fact spaces are rebuilt from
        # the abstraction's transform memo, so none outlive the check,
        # and its call-site plans come from that memo too
        certifier = InterproceduralCertifier(
            program,
            arts["abstraction"],
            prune_requires=session.options.prune_requires,
        )
        try:
            return self._replay_interproc(session, certifier, annotation)
        finally:
            meta.update(certifier.plan_stats)

    def _replay_interproc(self, session, certifier, annotation):
        try:
            contexts: Dict[Tuple[str, int], dict] = {}
            for ctx in annotation["contexts"]:
                key = (str(ctx["method"]), int(ctx["entry"], 16))
                contexts[key] = {
                    "masks": model.decode_masks(ctx["nodes"]),
                    "summary": int(ctx["summary"], 16),
                    "num_vars": ctx["num_vars"],
                }
        except (KeyError, TypeError, ValueError) as error:
            raise _Reject("malformed", f"bad interproc context: {error}")
        entry_name = session.options.entry
        entry_method = (
            certifier.program.method(entry_name)
            if entry_name
            else certifier.program.entry
        )
        entry_space = certifier.space(entry_method.qualified)
        root = (entry_method.qualified, entry_space.default_mask)
        if root not in contexts:
            raise _Reject(
                "entry",
                f"root context {entry_method.qualified} with the initial "
                "vector is not annotated",
            )
        alarms: Dict[Tuple[int, str], object] = {}
        total_nodes = 0
        checked = 0
        for (method, entry_vector), data in sorted(contexts.items()):
            try:
                space = certifier.space(method)
            except Exception as error:
                raise _Reject(
                    "malformed", f"unknown context method {method!r}: {error}"
                )
            boolprog = space.boolprog
            all_vars = (1 << boolprog.num_vars) - 1
            if data["num_vars"] != boolprog.num_vars:
                raise _Reject(
                    "malformed", f"variable count mismatch in {method}"
                )
            masks = data["masks"]
            valid = set(boolprog.nodes())
            for node, (one, zero) in masks.items():
                if node not in valid or one > all_vars or zero > all_vars:
                    raise _Reject(
                        "malformed", f"bad node annotation {node} in {method}"
                    )
            total_nodes += len(masks)
            states = {node: pair[0] for node, pair in masks.items()}
            zeros = {node: pair[1] for node, pair in masks.items()}
            if entry_vector & ~states.get(boolprog.entry, 0):
                raise _Reject(
                    "entry",
                    f"context {method} entry annotation does not cover its "
                    "entry vector",
                )
            init_zero = (
                all_vars & ~entry_vector
                if (method, entry_vector) == root
                else all_vars
            )
            if init_zero & ~zeros.get(boolprog.entry, 0):
                raise _Reject(
                    "entry",
                    f"context {method} entry annotation drops may-0 bits",
                )
            calls = {(src, dst): stm for src, dst, stm in space.call_edges}
            for edge in boolprog.edges:
                if edge.src not in masks:
                    continue
                mask = states[edge.src]
                zmask = zeros[edge.src]
                stm = calls.get((edge.src, edge.dst))
                if stm is not None:
                    plan = certifier.call_plan(space, edge.src, edge.dst, stm)
                    callee_key = (stm.callee, plan.entry(mask))
                    callee = contexts.get(callee_key)
                    if callee is None:
                        raise _Reject(
                            "coverage",
                            f"callee context {stm.callee} (from {method}) "
                            "is not annotated",
                            edge=(method, edge.src, edge.dst),
                        )
                    out = plan.ret(mask, callee["summary"])
                    zout = all_vars
                else:
                    transferred = certifier.edge_transfer(
                        boolprog, method, edge, mask, zmask, alarms
                    )
                    if transferred is None:
                        checked += 1
                        continue
                    out, zout = transferred
                checked += 1
                if out & ~states.get(edge.dst, 0) or zout & ~zeros.get(
                    edge.dst, 0
                ):
                    raise _Reject(
                        "not-inductive",
                        f"{method}: transfer along edge "
                        f"{edge.src}->{edge.dst} is not subsumed",
                        edge=(method, edge.src, edge.dst),
                    )
            exit_mask = states.get(boolprog.exit, 0)
            if exit_mask & ~data["summary"]:
                raise _Reject(
                    "not-inductive",
                    f"{method}: summary does not cover the exit annotation",
                    edge=(method, boolprog.exit),
                )
        alarm_list = sorted(
            alarms.values(), key=lambda a: (a.site_id, a.instance)
        )
        return alarm_list, total_nodes, checked

    def _check_tvla(self, arts, annotation):
        engine_obj = arts["engine_obj"]
        tvp = arts["tvp"]
        if annotation.get("kind") != "tvla" or annotation.get("mode") != arts[
            "mode"
        ]:
            raise _Reject("malformed", "annotation kind/mode mismatch")
        preds = engine_obj.abstraction_preds
        # the checker recomputes canonical keys itself from the decoded
        # pool (canonicalizing defensively): internal consistency, never
        # trust recorded keys
        pool = [
            model.structure_from_json(entry).canonicalize(preds)
            for entry in annotation.get("pool", [])
        ]
        keys = [structure.canonical_key(preds) for structure in pool]
        valid_nodes = set(tvp.nodes())
        alarms: Dict[Tuple[int, str], object] = {}
        initial = engine_obj.initial_structure().canonicalize(preds)
        checked = 0
        if arts["mode"] == "relational":
            id_sets = model.decode_int_sets(annotation["nodes"])
            for node, ids in id_sets.items():
                if node not in valid_nodes or any(
                    i < 0 or i >= len(pool) for i in ids
                ):
                    raise _Reject(
                        "malformed", f"bad structure ids at node {node}"
                    )
            node_keys = {
                node: {keys[i] for i in ids}
                for node, ids in id_sets.items()
            }
            if initial.canonical_key(preds) not in node_keys.get(
                tvp.entry, set()
            ):
                raise _Reject(
                    "entry",
                    "entry annotation does not contain the initial structure",
                )
            for node in sorted(id_sets):
                for edge in tvp.out_edges(node):
                    dst_keys = node_keys.get(edge.dst, set())
                    for i in sorted(id_sets[node]):
                        outs = engine_obj.apply(pool[i], edge.action, alarms)
                        checked += 1
                        for out in outs:
                            if out.canonical_key(preds) not in dst_keys:
                                raise _Reject(
                                    "not-inductive",
                                    f"a structure transferred along edge "
                                    f"{node}->{edge.dst} is not in the "
                                    "successor annotation",
                                    edge=(node, edge.dst),
                                )
            count = len(id_sets)
        else:
            try:
                singles = {
                    int(node): pool[i] for node, i in annotation["nodes"]
                }
                single_keys = {
                    int(node): keys[i] for node, i in annotation["nodes"]
                }
            except (TypeError, ValueError, IndexError) as error:
                raise _Reject("malformed", f"bad node annotation: {error}")
            if any(node not in valid_nodes for node in singles):
                raise _Reject("malformed", "annotation names unknown node")
            entry_structure = singles.get(tvp.entry)
            if entry_structure is None:
                raise _Reject("entry", "entry node is not annotated")
            joined = PackedStructure.join(
                entry_structure, initial, preds
            ).canonicalize(preds)
            if joined.canonical_key(preds) != single_keys[tvp.entry]:
                raise _Reject(
                    "entry",
                    "entry annotation does not subsume the initial structure",
                )
            for node in sorted(singles):
                structure = singles[node]
                for edge in tvp.out_edges(node):
                    outs = engine_obj.apply(structure, edge.action, alarms)
                    checked += 1
                    for out in outs:
                        old = singles.get(edge.dst)
                        if old is None:
                            raise _Reject(
                                "coverage",
                                f"node {edge.dst} is reachable but not "
                                "annotated",
                                edge=(node, edge.dst),
                            )
                        merged = PackedStructure.join(
                            old, out, preds
                        ).canonicalize(preds)
                        if merged.canonical_key(preds) != single_keys[edge.dst]:
                            raise _Reject(
                                "not-inductive",
                                f"transfer along edge {node}->{edge.dst} "
                                "is not subsumed by the successor annotation",
                                edge=(node, edge.dst),
                            )
            count = len(singles)
        return _alarm_list(alarms), count, checked

    def _check_generic(self, spec, arts, annotation):
        domain = arts["domain"]
        cfg = arts["inlined"].cfg
        if annotation.get("kind") != "generic":
            raise _Reject("malformed", "annotation kind is not 'generic'")
        pool_payload = annotation.get("pool", [])
        try:
            pool = [domain.state_from_json(entry) for entry in pool_payload]
            states = {
                int(node): pool[i] for node, i in annotation["nodes"]
            }
        except _Reject:
            raise
        except Exception as error:
            raise _Reject("malformed", f"bad heap-state annotation: {error}")
        valid = {cfg.entry}
        for edge in cfg.edges:
            valid.add(edge.src)
            valid.add(edge.dst)
        if any(node not in valid for node in states):
            raise _Reject("malformed", "annotation names unknown node")
        entry_state = states.get(cfg.entry)
        if entry_state is None:
            raise _Reject("entry", "entry node is not annotated")
        if domain.join(entry_state, domain.initial()) != entry_state:
            raise _Reject(
                "entry", "entry annotation does not subsume the initial state"
            )
        runner = _SpecRunner(spec, domain)
        checked = 0
        # one application per edge serves both purposes: the successor
        # states prove inductiveness, and the checks sink replays the
        # requires clauses (what _collect_alarms would recompute in a
        # second sweep over the same states)
        checks = []
        for node in sorted(states):
            state = states[node]
            for edge in cfg.out_edges(node):
                successors = generic_transfer(
                    edge.stm, state, domain, runner, checks
                )
                checked += 1
                for successor in successors:
                    old = states.get(edge.dst)
                    if old is None:
                        raise _Reject(
                            "coverage",
                            f"node {edge.dst} is reachable but not annotated",
                            edge=(node, edge.dst),
                        )
                    if domain.join(old, successor) != old:
                        raise _Reject(
                            "not-inductive",
                            f"transfer along edge {node}->{edge.dst} is not "
                            "subsumed by the successor annotation",
                            edge=(node, edge.dst),
                        )
        alarms = []
        seen = set()
        for site_id, line, op_key, ok in checks:
            if ok or site_id in seen:
                continue
            seen.add(site_id)
            alarms.append(
                Alarm(
                    site_id=site_id,
                    line=line,
                    op_key=op_key,
                    instance="<heap must-alias check>",
                )
            )
        alarms.sort(key=lambda a: a.site_id)
        return alarms, len(states), checked
