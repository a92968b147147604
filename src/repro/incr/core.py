"""Incremental recertification: seed the fixpoint from a parent certificate.

Given a parent :class:`~repro.cert.ConformanceCertificate` and an edited
client, :func:`recertify` re-certifies the client **byte-identically** to
a from-scratch run while re-iterating only the dirty region:

1. rebuild the parent's engine-level graph from the source embedded in
   the certificate (the same deterministic construction the checker
   uses), and the edited client's graph;
2. align the two with :func:`repro.incr.dirty.match_graphs` and take the
   predecessor-closed clean region — node-by-node, the parent's fixpoint
   annotation *is* the new fixpoint there;
3. decode the parent annotation on the clean region, seed the engine's
   worklist solver with it, schedule only the clean frontier (plus the
   entry when dirty), and iterate to closure;
4. recover the alarm set by the engines' post-hoc / replay passes over
   the final states, which coincide with cold-run accumulation.

Every guard failure (engine or fingerprint mismatch, partial parent,
tampered source, annotation that does not decode, a changed variable or
predicate universe...) returns ``None``: the caller falls back to the
ordinary full certification, so incrementality is strictly an
optimization, never a soundness risk.  ``interproc`` always falls back —
its context-tabulated memo keys entry vectors that a local dirty region
cannot be cut against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cert import model
from repro.cert.model import ConformanceCertificate
from repro.certifier.fds import BitmaskSeed, certify_fds
from repro.certifier.relational import RelationalSeed, certify_relational
from repro.certifier.report import CertificationReport
from repro.generic_analysis.framework import GenericSeed, analyze_generic
from repro.incr.dirty import (
    bool_edge_label,
    cfg_edge_label,
    clean_frontier,
    match_graphs,
    tvp_edge_label,
)
from repro.lang.types import parse_program
from repro.runtime.trace import note, phase
from repro.tvla.engine import TvlaSeed


class _Fallback(Exception):
    """Internal: abandon the incremental path (caller runs full)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _parent_cache(session, parent: ConformanceCertificate) -> dict:
    """Per-session memo of *parent-derived* work (parsed parent source,
    decoded annotation pools): a daemon replays one parent against many
    edited children, so this pays off across requests.  Nothing derived
    from the child is cached here — graph matching stays per-request.

    Keyed by certificate object identity; the entry pins the parent so
    a recycled ``id()`` can never alias.  Bounded FIFO."""
    cache = getattr(session, "_incr_parent_cache", None)
    if cache is None:
        cache = session._incr_parent_cache = {}
    entry = cache.get(id(parent))
    if entry is None or entry["parent"] is not parent:
        while len(cache) >= 4:
            cache.pop(next(iter(cache)))
        entry = cache[id(parent)] = {"parent": parent}
    return entry


def _resolve_engine(session, program, engine: Optional[str]) -> str:
    engine = engine or session.engine
    if engine == "auto":
        # mirror CertifySession._dispatch exactly, so the incremental
        # path certifies with the same engine the cold path would
        engine = "interproc" if program.is_shallow() else "tvla-relational"
    return engine


def _guard_parent(session, engine: str, parent: ConformanceCertificate):
    from repro.cert.emit import options_payload

    payload = parent.payload
    if payload.get("format") != model.CERT_FORMAT:
        raise _Fallback("parent-format")
    if payload.get("version") != model.CERT_VERSION:
        raise _Fallback("parent-version")
    if parent.partial or payload.get("annotation") is None:
        raise _Fallback("parent-partial")
    if payload.get("engine") != engine:
        raise _Fallback("engine-mismatch")
    if engine == "interproc":
        raise _Fallback("interproc")
    if payload.get("spec") != session.spec.name or payload.get(
        "spec_hash"
    ) != model.spec_hash(session.spec):
        raise _Fallback("spec-mismatch")
    opts = options_payload(session.options)
    if payload.get("fingerprint") != model.options_fingerprint(engine, opts):
        raise _Fallback("options-mismatch")
    source = payload.get("source")
    if not isinstance(source, str) or model.sha256_text(source) != payload.get(
        "source_hash"
    ):
        raise _Fallback("parent-source-hash")
    return source


def recertify(
    session,
    program,
    source: str,
    engine: Optional[str],
    parent: ConformanceCertificate,
    *,
    governor=None,
) -> Optional[CertificationReport]:
    """Certify ``program`` seeded from ``parent``; ``None`` means the
    incremental path declined and the caller should run from scratch."""
    try:
        engine = _resolve_engine(session, program, engine)
        parent_source = _guard_parent(session, engine, parent)
        with phase("incremental", engine=engine) as meta:
            arts = session.artifacts(program, engine, source_key=source)
            if model.abstraction_hash(arts.get("abstraction")) != parent.payload.get(
                "abstraction_hash"
            ):
                raise _Fallback("abstraction-mismatch")
            cache = _parent_cache(session, parent)
            parent_program = cache.get("program")
            if parent_program is None:
                try:
                    parent_program = parse_program(
                        parent_source, session.spec
                    )
                except Exception:
                    raise _Fallback("parent-parse")
                cache["program"] = parent_program
            parent_arts = session.artifacts(
                parent_program, engine, source_key=parent_source
            )
            if governor is None:
                governor = session._make_governor()
            annotation = parent.payload["annotation"]
            if engine in ("fds", "relational"):
                report, capture, clean, total = _recertify_bool(
                    session, engine, arts, parent_arts, annotation, governor
                )
            elif engine.startswith("tvla-"):
                report, capture, clean, total = _recertify_tvla(
                    session, arts, parent_arts, annotation, governor, cache
                )
            else:
                report, capture, clean, total = _recertify_generic(
                    session, engine, arts, parent_arts, annotation, governor,
                    cache,
                )
            meta.update(clean_nodes=clean, total_nodes=total)
        report.stats["incremental"] = {
            "clean_nodes": clean,
            "total_nodes": total,
        }
        if session.options.emit_certificate:
            session._attach_certificate(report, engine, source, arts, capture)
        return report
    except _Fallback as fallback:
        note("incremental-fallback", engine=engine, reason=fallback.reason)
        return None


# -- family drivers ---------------------------------------------------------


def _recertify_bool(session, engine, arts, parent_arts, annotation, governor):
    boolprog = arts["boolprog"]
    old = parent_arts["boolprog"]
    if annotation.get("kind") != engine:
        raise _Fallback("annotation-kind")
    if annotation.get("num_vars") != boolprog.num_vars:
        raise _Fallback("universe-mismatch")
    if old.num_vars != boolprog.num_vars or tuple(
        str(i) for i in old.instances()
    ) != tuple(str(i) for i in boolprog.instances()):
        raise _Fallback("universe-mismatch")
    if old.initial_mask() != boolprog.initial_mask():
        raise _Fallback("universe-mismatch")
    mapping, clean = match_graphs(
        old.entry,
        [(e.src, e.dst, bool_edge_label(e)) for e in old.edges],
        boolprog.entry,
        [(e.src, e.dst, bool_edge_label(e)) for e in boolprog.edges],
    )
    new_edges = [
        (e.src, e.dst, bool_edge_label(e)) for e in boolprog.edges
    ]
    options = session.options
    if engine == "fds":
        try:
            masks = model.decode_masks(annotation["nodes"])
        except Exception:
            raise _Fallback("annotation-decode")
        may_one: Dict[int, int] = {}
        may_zero: Dict[int, int] = {}
        for node in clean:
            pair = masks.get(mapping[node])
            if pair is not None:
                may_one[node], may_zero[node] = pair
        seed = BitmaskSeed(
            may_one,
            may_zero,
            tuple(
                n
                for n in clean_frontier(clean, new_edges)
                if n in may_one
            ),
        )
        sink: List[object] = []
        report = certify_fds(
            boolprog,
            prune_requires=options.prune_requires,
            governor=governor,
            result_sink=sink,
            seed=seed,
        )
    else:
        try:
            sets = model.decode_int_sets(annotation["nodes"])
        except Exception:
            raise _Fallback("annotation-decode")
        states = {
            node: sets[mapping[node]]
            for node in clean
            if mapping[node] in sets
        }
        seed = RelationalSeed(
            states,
            tuple(
                n
                for n in clean_frontier(clean, new_edges)
                if states.get(n)
            ),
        )
        sink = []
        report = certify_relational(
            boolprog,
            prune_requires=options.prune_requires,
            governor=governor,
            result_sink=sink,
            seed=seed,
        )
    return report, {"result": sink[0]}, len(clean), len(set(boolprog.nodes()))


def _recertify_tvla(session, arts, parent_arts, annotation, governor, cache):
    engine_obj = arts["engine_obj"]
    tvp = arts["tvp"]
    old = parent_arts["tvp"]
    mode = arts["mode"]
    if annotation.get("kind") != "tvla" or annotation.get("mode") != mode:
        raise _Fallback("annotation-kind")
    if old.predicates != tvp.predicates:
        raise _Fallback("universe-mismatch")
    if getattr(old, "initially_true_nullary", None) != getattr(
        tvp, "initially_true_nullary", None
    ):
        raise _Fallback("universe-mismatch")
    mapping, clean = match_graphs(
        old.entry,
        [(e.src, e.dst, tvp_edge_label(e)) for e in old.edges],
        tvp.entry,
        [(e.src, e.dst, tvp_edge_label(e)) for e in tvp.edges],
    )
    new_edges = [(e.src, e.dst, tvp_edge_label(e)) for e in tvp.edges]
    preds = engine_obj.abstraction_preds
    cached = cache.get("tvla_pool")
    if cached is None:
        try:
            pool = [
                model.structure_from_json(entry).canonicalize(preds)
                for entry in annotation.get("pool", [])
            ]
        except Exception:
            raise _Fallback("annotation-decode")
        keys = [structure.canonical_key(preds) for structure in pool]
        cache["tvla_pool"] = (pool, keys)
    else:
        pool, keys = cached
    if mode == "relational":
        try:
            id_sets = model.decode_int_sets(annotation["nodes"])
        except Exception:
            raise _Fallback("annotation-decode")
        if any(
            i < 0 or i >= len(pool) for ids in id_sets.values() for i in ids
        ):
            raise _Fallback("annotation-decode")
        states = {}
        for node in clean:
            ids = id_sets.get(mapping[node])
            if ids is not None:
                states[node] = {keys[i]: pool[i] for i in sorted(ids)}
        seed = TvlaSeed(
            states=states,
            frontier=tuple(
                n
                for n in clean_frontier(clean, new_edges)
                if states.get(n)
            ),
        )
    else:
        try:
            singles = {
                int(node): pool[i] for node, i in annotation["nodes"]
            }
        except Exception:
            raise _Fallback("annotation-decode")
        single = {
            node: singles[mapping[node]]
            for node in clean
            if mapping[node] in singles
        }
        seed = TvlaSeed(
            single=single,
            frontier=tuple(
                n
                for n in clean_frontier(clean, new_edges)
                if n in single
            ),
        )
    result = engine_obj.run(governor, seed)
    report = result.report
    return report, {"result": result}, len(clean), len(set(tvp.nodes()))


def _recertify_generic(
    session, engine, arts, parent_arts, annotation, governor, cache
):
    domain = arts["domain"]
    cfg = arts["inlined"].cfg
    old_cfg = parent_arts["inlined"].cfg
    if annotation.get("kind") != "generic" or annotation.get("domain") != engine:
        raise _Fallback("annotation-kind")
    mapping, clean = match_graphs(
        old_cfg.entry,
        [(e.src, e.dst, cfg_edge_label(e)) for e in old_cfg.edges],
        cfg.entry,
        [(e.src, e.dst, cfg_edge_label(e)) for e in cfg.edges],
    )
    new_edges = [(e.src, e.dst, cfg_edge_label(e)) for e in cfg.edges]
    old_states = cache.get("generic_states")
    if old_states is None:
        try:
            pool = [
                domain.state_from_json(entry)
                for entry in annotation.get("pool", [])
            ]
            old_states = {
                int(node): pool[i] for node, i in annotation["nodes"]
            }
        except Exception:
            raise _Fallback("annotation-decode")
        cache["generic_states"] = old_states
    states = {
        node: old_states[mapping[node]]
        for node in clean
        if mapping[node] in old_states
    }
    seed = GenericSeed(
        states,
        tuple(
            n for n in clean_frontier(clean, new_edges) if n in states
        ),
    )
    result = analyze_generic(
        arts["inlined"],
        domain,
        engine,
        governor=governor,
        seed=seed,
    )
    report = result.report
    return report, {"result": result}, len(clean), len(set(cfg.nodes()))
