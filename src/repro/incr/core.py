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
3. decode the parent annotation with the checker's own decoder for the
   family (:mod:`repro.cert.model`), restrict it to the clean region as
   a :class:`~repro.util.worklist.Seed`, and run the engine's ordinary
   fixpoint from it: the one worklist driver
   (:class:`~repro.util.worklist.Schedule`) pops only the clean frontier
   (plus the entry when dirty) first and iterates to closure;
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

from typing import Optional

from repro.cert import model
from repro.cert.model import ConformanceCertificate
from repro.certifier.report import CertificationReport
from repro.incr.dirty import (
    bool_edge_label,
    cfg_edge_label,
    clean_frontier,
    match_graphs,
    tvp_edge_label,
)
from repro.lang.types import parse_program
from repro.runtime.trace import note, phase
from repro.util.worklist import Seed


class _Fallback(Exception):
    """Internal: abandon the incremental path (caller runs full)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _parent_cache(session, parent: ConformanceCertificate) -> dict:
    """Per-session memo of *parent-derived* work (parsed parent source,
    decoded annotation): a daemon replays one parent against many
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
            annotation = parent.payload["annotation"]
            # decline a parent from another universe before paying for
            # its parse and build
            _guard_universe(engine, arts, annotation)
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
            if engine in ("fds", "relational"):
                family = _bool_family
            elif engine.startswith("tvla-"):
                family = _tvla_family
            else:
                family = _generic_family
            graph, old, label, decode = family(engine, arts, parent_arts)
            new_edges = [(e.src, e.dst, label(e)) for e in graph.edges]
            mapping, clean = match_graphs(
                old.entry,
                [(e.src, e.dst, label(e)) for e in old.edges],
                graph.entry,
                new_edges,
            )
            parent_states = cache.get("states")
            if parent_states is None:
                try:
                    parent_states = decode(annotation, set(old.nodes()))
                except Exception:
                    raise _Fallback("annotation-decode")
                cache["states"] = parent_states
            seed = Seed(
                {
                    node: parent_states[mapping[node]]
                    for node in clean
                    if mapping[node] in parent_states
                },
                tuple(clean_frontier(clean, new_edges)),
            )
            report, capture = session._fixpoint(engine, arts, governor, seed)
            clean, total = len(clean), len(set(graph.nodes()))
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


def _guard_universe(engine: str, arts, annotation) -> None:
    """The checks that need only the child's artifacts and the parent's
    annotation: its kind (and mode or domain), and its universe — the
    variable count (fds, relational) or the predicates its TVLA pool
    names.  A malformed pool is left to the decoding step, which reports
    it."""
    if engine in ("fds", "relational"):
        if annotation.get("kind") != engine:
            raise _Fallback("annotation-kind")
        if annotation.get("num_vars") != arts["boolprog"].num_vars:
            raise _Fallback("universe-mismatch")
    elif engine.startswith("tvla-"):
        if annotation.get("kind") != "tvla" or annotation.get(
            "mode"
        ) != arts["mode"]:
            raise _Fallback("annotation-kind")
        try:
            named = {
                entry[0]
                for structure in annotation.get("pool", [])
                for table in ("nullary", "unary", "binary")
                for entry in structure[table]
            }
        except (KeyError, TypeError, IndexError):
            return
        if not named <= arts["tvp"].predicates.keys():
            raise _Fallback("universe-mismatch")
    elif annotation.get("kind") != "generic" or annotation.get(
        "domain"
    ) != engine:
        raise _Fallback("annotation-kind")


# -- families ---------------------------------------------------------------
#
# A family names the child's and the parent's graph, how their edges are
# labelled for matching, and how the parent's annotation decodes into
# the engine's states — everything else is shared.


def _bool_family(engine, arts, parent_arts):
    boolprog = arts["boolprog"]
    old = parent_arts["boolprog"]
    if old.num_vars != boolprog.num_vars or tuple(
        str(i) for i in old.instances()
    ) != tuple(str(i) for i in boolprog.instances()):
        raise _Fallback("universe-mismatch")
    if old.initial_mask() != boolprog.initial_mask():
        raise _Fallback("universe-mismatch")
    if engine == "fds":

        def decode(annotation, nodes):
            return model.decode_masks(annotation["nodes"])

    else:

        def decode(annotation, nodes):
            return model.decode_valuations(
                annotation, boolprog.num_vars, nodes
            )

    return boolprog, old, bool_edge_label, decode


def _tvla_family(engine, arts, parent_arts):
    tvp = arts["tvp"]
    old = parent_arts["tvp"]
    if old.predicates != tvp.predicates:
        raise _Fallback("universe-mismatch")
    if getattr(old, "initially_true_nullary", None) != getattr(
        tvp, "initially_true_nullary", None
    ):
        raise _Fallback("universe-mismatch")
    preds = arts["engine_obj"].abstraction_preds
    return (
        tvp, old, tvp_edge_label,
        lambda annotation, nodes: model.decode_structures(
            annotation, preds, nodes
        ),
    )


def _generic_family(engine, arts, parent_arts):
    domain = arts["domain"]
    return (
        arts["inlined"].cfg, parent_arts["inlined"].cfg, cfg_edge_label,
        lambda annotation, nodes: model.decode_heap_states(
            annotation, domain, nodes
        ),
    )
