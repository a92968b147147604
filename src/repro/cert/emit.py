"""Certificate emission: turn a completed fixpoint into an annotation.

Each engine family records its post-fixpoint per-node abstract states:

========================  ====================================================
family                    annotation payload
========================  ====================================================
fds                       per-node (may-1, may-0) bitmasks, XOR-delta coded
relational                per-node valuation sets, add/drop-delta coded
interproc                 per-(method, entry-vector) context: node masks +
                          the summary table
tvla                      hash-consed pool of canonical three-valued
                          structures; per-node id sets (relational mode) or
                          a single id (independent mode)
generic                   hash-consed pool of serialized heap states;
                          one id per node
========================  ====================================================

Everything is keyed canonically and serialized deterministically so two
emission runs produce byte-identical certificates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cert import model
from repro.cert.model import ConformanceCertificate, Pool


def options_payload(options) -> Dict[str, object]:
    """The semantically relevant option fields recorded (and
    fingerprinted) in a certificate.  The checker rebuilds its session
    from exactly these."""
    return {
        "entry": options.entry,
        "prune_requires": options.prune_requires,
        "inline_depth": options.inline_depth,
        "worklist": model.WORKLIST,
    }


def _stats_payload(stats: Dict[str, object]) -> Dict[str, object]:
    return {
        key: stats[key] for key in model.DETERMINISTIC_STATS if key in stats
    }


def _edge_preds(edges) -> Dict[int, List[int]]:
    preds: Dict[int, List[int]] = {}
    for edge in edges:
        preds.setdefault(edge.dst, []).append(edge.src)
    return preds


# -- per-family annotation builders -----------------------------------------


def _fds_annotation(arts, result) -> Dict[str, object]:
    boolprog = arts["boolprog"]
    preds = _edge_preds(boolprog.edges)
    masks = {
        node: (one, result.may_zero.get(node, 0))
        for node, one in result.may_one.items()
    }
    return {
        "kind": "fds",
        "num_vars": boolprog.num_vars,
        "nodes": model.encode_masks(masks, preds),
    }


def _relational_annotation(arts, result) -> Dict[str, object]:
    boolprog = arts["boolprog"]
    preds = _edge_preds(boolprog.edges)
    return {
        "kind": "relational",
        "num_vars": boolprog.num_vars,
        "nodes": model.encode_int_sets(result.states, preds),
    }


def _interproc_annotation(capture) -> Dict[str, object]:
    certifier = capture["certifier"]
    fixpoint = certifier.fixpoint
    contexts = []
    for key in sorted(fixpoint["memo"]):
        method, entry_vector = key
        boolprog = certifier.facts.space(method).boolprog
        preds = _edge_preds(boolprog.edges)
        states = fixpoint["node_states"].get(key, {})
        zeros = fixpoint["node_zeros"].get(key, {})
        masks = {
            node: (states.get(node, 0), zeros.get(node, 0))
            for node in set(states) | set(zeros)
        }
        contexts.append(
            {
                "method": method,
                "entry": format(entry_vector, "x"),
                "num_vars": boolprog.num_vars,
                "nodes": model.encode_masks(masks, preds),
                "summary": format(fixpoint["memo"][key], "x"),
            }
        )
    root_method, root_vector = fixpoint["root"]
    return {
        "kind": "interproc",
        "entry_method": fixpoint["entry"],
        "root": [root_method, format(root_vector, "x")],
        "contexts": contexts,
    }


def _tvla_annotation(arts, result) -> Dict[str, object]:
    engine_obj = arts["engine_obj"]
    tvp = arts["tvp"]
    preds = engine_obj.abstraction_preds
    cfg_preds = _edge_preds(tvp.edges)
    pool = Pool()
    # equal canonical keys number the nodes in the same canonical order
    # and so serialize equally: each distinct structure is serialized
    # (and pooled) once per emission, however many nodes hold it
    by_key: Dict[object, int] = {}

    def pool_id(key, structure) -> int:
        found = by_key.get(key)
        if found is None:
            found = by_key[key] = pool.add(
                model.structure_to_json(structure, preds)
            )
        return found

    if arts["mode"] == "relational":
        # relational buckets are keyed by canonical key already
        raw_sets = {
            node: {pool_id(key, structure) for key, structure in bucket.items()}
            for node, bucket in result.node_states.items()
        }
        entries, remap = pool.finish()
        id_sets = {
            node: frozenset(remap[i] for i in ids)
            for node, ids in raw_sets.items()
        }
        return {
            "kind": "tvla",
            "mode": "relational",
            "pool": entries,
            "nodes": model.encode_int_sets(id_sets, cfg_preds),
        }
    raw_ids = {
        node: pool_id(structure.canonical_key(preds), structure)
        for node, structure in result.node_states.items()
    }
    entries, remap = pool.finish()
    return {
        "kind": "tvla",
        "mode": "independent",
        "pool": entries,
        "nodes": sorted([node, remap[i]] for node, i in raw_ids.items()),
    }


def _generic_annotation(engine: str, arts, result) -> Dict[str, object]:
    domain = arts["domain"]
    pool = Pool()
    raw_ids = {
        node: pool.add(domain.state_to_json(state))
        for node, state in result.node_states.items()
    }
    entries, remap = pool.finish()
    return {
        "kind": "generic",
        "domain": engine,
        "pool": entries,
        "nodes": sorted([node, remap[i]] for node, i in raw_ids.items()),
    }


def build_annotation(engine: str, arts, capture) -> Dict[str, object]:
    if engine == "fds":
        return _fds_annotation(arts, capture["result"])
    if engine == "relational":
        return _relational_annotation(arts, capture["result"])
    if engine == "interproc":
        return _interproc_annotation(capture)
    if engine.startswith("tvla-"):
        return _tvla_annotation(arts, capture["result"])
    return _generic_annotation(engine, arts, capture["result"])


# -- whole-certificate assembly ---------------------------------------------


def _base_payload(
    *, spec, engine: str, options, abstraction, source: str, report
) -> Dict[str, object]:
    opts = options_payload(options)
    return {
        "format": model.CERT_FORMAT,
        "version": model.CERT_VERSION,
        "spec": spec.name,
        "spec_hash": model.spec_hash(spec),
        "abstraction_hash": model.abstraction_hash(abstraction),
        "engine": engine,
        "options": opts,
        "fingerprint": model.options_fingerprint(engine, opts),
        "subject": report.subject,
        "source": source,
        "source_hash": model.sha256_text(source),
        "stats": _stats_payload(report.stats),
    }


def build_certificate(
    *, spec, engine, options, abstraction, source, report, arts, capture
) -> ConformanceCertificate:
    payload = _base_payload(
        spec=spec,
        engine=engine,
        options=options,
        abstraction=abstraction,
        source=source,
        report=report,
    )
    payload["verdict"] = {
        "certified": report.certified,
        "partial": False,
        "alarms": model.alarms_to_json(report.alarms),
        "salvage": None,
    }
    payload["annotation"] = build_annotation(engine, arts, capture)
    return ConformanceCertificate(payload)


def build_partial_certificate(
    *, spec, engine, options, source, report
) -> ConformanceCertificate:
    """A breached-and-salvaged run: no fixpoint annotation exists, so the
    certificate records the salvage metadata and ``annotation: null``.
    The checker rejects it as unverifiable (kind ``"partial"``)."""
    stats = report.stats
    payload = _base_payload(
        spec=spec,
        engine=engine,
        options=options,
        abstraction=None,
        source=source,
        report=report,
    )
    payload["verdict"] = {
        "certified": report.certified,
        "partial": True,
        "alarms": model.alarms_to_json(report.alarms),
        "salvage": {
            "breach": stats.get("breach"),
            "ladder": stats.get("ladder"),
            "degraded_to": stats.get("degraded_to"),
            "completed_rung": stats.get("completed_rung"),
            "salvaged": stats.get("salvaged"),
            "sites_resolved": stats.get("sites_resolved"),
            "sites_unresolved": stats.get("sites_unresolved"),
        },
    }
    payload["annotation"] = None
    return ConformanceCertificate(payload)
