"""Certificate data model: canonical JSON, hashing, and delta codecs.

Everything that touches certificate *bytes* lives here so that emission
and checking share one definition of canonical form.  A certificate is a
plain JSON document (``sort_keys`` everywhere, node lists sorted, pools
sorted by serialized text) so that two emission runs over the same
program produce byte-identical artifacts — the CI gate diffs them.

Abstract states are stored per CFG node, hash-consed into a shared pool
where states repeat (TVLA structures, heap-domain states), and
delta-encoded against an already-encoded CFG predecessor where that is
smaller (bit masks XOR, sets as add/drop lists).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.certifier.report import Alarm
from repro.logic.kleene import Kleene
from repro.logic.packed import PackedStructure

CERT_FORMAT = "repro-cert"
CERT_VERSION = 1

#: the worklist order recorded in every certificate's options.  The
#: engines only schedule in reverse postorder, so this is a constant; it
#: stays in the payload to keep certificate bytes and the format version
#: stable, and the checker rejects any other value
WORKLIST = "rpo"

#: Engine stats that are deterministic functions of (spec, program,
#: options) and therefore safe to embed in a byte-stable artifact.
#: Wall-clock ("seconds") and session-memo counters (transfer_hits /
#: transfer_misses depend on what else the session analyzed first) are
#: deliberately excluded, and so are *schedule-dependent* counters
#: ("iterations", "edge_visits", "summary_updates"): an incremental
#: re-certification (:mod:`repro.incr`) reaches the same fixpoint in
#: fewer steps, and its certificate must still be byte-identical to the
#: from-scratch one.  "max_structures" stays: per-node structure sets
#: only grow, so the running maximum equals the final maximum and is a
#: function of the fixpoint itself.
DETERMINISTIC_STATS = (
    "abstraction_preds",
    "breach",
    "completed_rung",
    "contexts",
    "degraded_to",
    "edges",
    "ladder",
    "max_structures",
    "nodes_analyzed",
    "nodes_total",
    "partial",
    "salvaged",
    "sites_resolved",
    "sites_unresolved",
    "variables",
)


class CertificateError(Exception):
    """Raised for structurally malformed certificates."""


# -- canonical JSON and hashing ---------------------------------------------


def canonical_text(payload: object) -> str:
    """The canonical serialization used for hashing and byte-stable pools."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_hash(spec) -> str:
    """Hash of a canonical rendering of the component specification.

    ``ComponentSpec`` has no serializer of its own, so the rendering is
    built here from the stable pieces the analysis actually consumes:
    class fields and the operation signatures.
    """
    classes = []
    for name in sorted(spec.classes):
        decl = spec.classes[name]
        classes.append([name, sorted(decl.fields.items())])
    operations = sorted([op.key, str(op)] for op in spec.operations())
    return sha256_text(
        canonical_text({"name": spec.name, "classes": classes, "operations": operations})
    )


def abstraction_hash(abstraction) -> Optional[str]:
    """Hash of the derived abstraction's textual description.

    ``None`` for the generic heap engines, which run directly on the
    client program without a derived abstraction.
    """
    if abstraction is None:
        return None
    return sha256_text(abstraction.describe())


def options_fingerprint(engine: str, options: Mapping[str, object]) -> str:
    return sha256_text(canonical_text({"engine": engine, "options": dict(options)}))


# -- alarms -----------------------------------------------------------------


def alarm_to_json(alarm: Alarm) -> Dict[str, object]:
    return {
        "site_id": alarm.site_id,
        "line": alarm.line,
        "op_key": alarm.op_key,
        "instance": alarm.instance,
        "definite": bool(alarm.definite),
        "context": alarm.context,
    }


def alarm_sort_key(entry: Mapping[str, object]) -> Tuple:
    return (
        entry["site_id"],
        entry["instance"],
        entry["context"] or "",
        entry["line"],
        entry["op_key"],
        entry["definite"],
    )


def alarms_to_json(alarms: Iterable[Alarm]) -> List[Dict[str, object]]:
    return sorted((alarm_to_json(a) for a in alarms), key=alarm_sort_key)


# -- bit-mask codec (fds / interproc) ---------------------------------------
#
# Node entry is either absolute {"one": hex, "zero": hex} or a delta
# {"ref": pred, "one_x": hex, "zero_x": hex} XORed against the first
# already-encoded CFG predecessor, whichever serializes shorter.


def encode_masks(
    masks: Mapping[int, Tuple[int, int]],
    preds: Mapping[int, List[int]],
    *,
    delta: bool = True,
) -> List[List[object]]:
    out: List[List[object]] = []
    encoded: set = set()
    for node in sorted(masks):
        one, zero = masks[node]
        entry: Dict[str, object] = {"one": format(one, "x"), "zero": format(zero, "x")}
        if delta:
            for pred in preds.get(node, ()):
                if pred in encoded:
                    pone, pzero = masks[pred]
                    candidate = {
                        "ref": pred,
                        "one_x": format(one ^ pone, "x"),
                        "zero_x": format(zero ^ pzero, "x"),
                    }
                    # compare full serialized cost, not just hex digits:
                    # the delta form carries an extra key and longer key
                    # names, which narrow masks never amortize
                    if len(json.dumps(candidate)) < len(json.dumps(entry)):
                        entry = candidate
                    break
        out.append([node, entry])
        encoded.add(node)
    return out


def decode_masks(payload: List[List[object]]) -> Dict[int, Tuple[int, int]]:
    masks: Dict[int, Tuple[int, int]] = {}
    try:
        for node, entry in payload:
            if "ref" in entry:
                ref = entry["ref"]
                if ref not in masks:
                    raise CertificateError(
                        f"mask delta at node {node} references undecoded node {ref}"
                    )
                pone, pzero = masks[ref]
                masks[node] = (pone ^ int(entry["one_x"], 16), pzero ^ int(entry["zero_x"], 16))
            else:
                masks[node] = (int(entry["one"], 16), int(entry["zero"], 16))
    except (TypeError, ValueError, KeyError) as exc:
        raise CertificateError(f"malformed mask annotation: {exc}") from exc
    return masks


# -- integer-set codec (relational valuations, tvla structure ids) ----------
#
# Node entry is either absolute {"vals": [...]} or {"ref": pred,
# "add": [...], "drop": [...]} relative to the first already-encoded
# predecessor, whichever holds fewer integers.


def encode_int_sets(
    sets: Mapping[int, FrozenSet[int]],
    preds: Mapping[int, List[int]],
    *,
    delta: bool = True,
) -> List[List[object]]:
    out: List[List[object]] = []
    encoded: set = set()
    for node in sorted(sets):
        values = sets[node]
        entry: Dict[str, object] = {"vals": sorted(values)}
        if delta:
            for pred in preds.get(node, ()):
                if pred in encoded:
                    base = sets[pred]
                    add = sorted(values - base)
                    drop = sorted(base - values)
                    candidate = {"ref": pred, "add": add, "drop": drop}
                    if len(json.dumps(candidate)) < len(json.dumps(entry)):
                        entry = candidate
                    break
        out.append([node, entry])
        encoded.add(node)
    return out


def decode_int_sets(payload: List[List[object]]) -> Dict[int, FrozenSet[int]]:
    sets: Dict[int, FrozenSet[int]] = {}
    try:
        for node, entry in payload:
            if "ref" in entry:
                ref = entry["ref"]
                if ref not in sets:
                    raise CertificateError(
                        f"set delta at node {node} references undecoded node {ref}"
                    )
                sets[node] = (sets[ref] | frozenset(entry["add"])) - frozenset(entry["drop"])
            else:
                sets[node] = frozenset(entry["vals"])
    except (TypeError, KeyError) as exc:
        raise CertificateError(f"malformed set annotation: {exc}") from exc
    return sets


# -- state annotations (relational, tvla, generic) -------------------------
#
# One decoder per family, shared by the certificate checker and by
# incremental recertification.  Each returns node -> the engine's own
# state type and raises CertificateError for a node outside ``nodes``
# (the graph the annotation describes), a pool id outside the pool, or a
# valuation outside the variable universe.


def decode_valuations(
    annotation: Mapping[str, object], num_vars: int, nodes
) -> Dict[int, FrozenSet[int]]:
    """relational: node -> set of valuations (bit vectors over
    ``num_vars`` variables)."""
    sets = decode_int_sets(annotation.get("nodes"))
    limit = 1 << num_vars
    for node, values in sets.items():
        if node not in nodes:
            raise CertificateError(f"annotation names unknown node {node}")
        if any(value < 0 or value >= limit for value in values):
            raise CertificateError(f"valuation beyond num_vars at node {node}")
    return sets


def decode_structures(
    annotation: Mapping[str, object], preds, nodes
) -> Dict[int, object]:
    """tvla: the pool, canonicalized under the abstraction predicates
    ``preds``, resolved per node — in relational mode to a bucket
    {canonical key: structure} filled in ascending id order, in
    independent mode to the node's one structure."""
    pool = [
        structure_from_json(entry).canonicalize(preds)
        for entry in annotation.get("pool", [])
    ]
    if annotation.get("mode") != "relational":
        return _resolve(annotation, pool, nodes)
    keys = [structure.canonical_key(preds) for structure in pool]
    return {
        node: {keys[i]: pool[i] for i in sorted(ids)}
        for node, ids in _pool_ids(
            decode_int_sets(annotation.get("nodes")), len(pool), nodes
        ).items()
    }


def decode_heap_states(
    annotation: Mapping[str, object], domain, nodes
) -> Dict[int, object]:
    """generic: node -> heap state, through ``domain.state_from_json``."""
    try:
        pool = [
            domain.state_from_json(entry)
            for entry in annotation.get("pool", [])
        ]
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise CertificateError(f"malformed heap state: {exc}") from exc
    return _resolve(annotation, pool, nodes)


def _resolve(annotation, pool, nodes) -> Dict[int, object]:
    """node -> pool entry for a one-state-per-node annotation."""
    try:
        ids = {int(node): {i} for node, i in annotation["nodes"]}
    except (TypeError, ValueError, KeyError) as exc:
        raise CertificateError(f"malformed node annotation: {exc}") from exc
    return {
        node: pool[i]
        for node, (i,) in _pool_ids(ids, len(pool), nodes).items()
    }


def _pool_ids(ids, size: int, nodes):
    """``ids`` (node -> pool ids), once every node is in ``nodes`` and
    every id is an int in ``0 .. size - 1``."""
    for node, entry in ids.items():
        if node not in nodes:
            raise CertificateError(f"annotation names unknown node {node}")
        if not all(type(i) is int and 0 <= i < size for i in entry):
            raise CertificateError(f"bad pool ids at node {node}")
    return ids


def absolute_annotation(annotation: Mapping[str, object]) -> Dict[str, object]:
    """Re-encode an annotation with delta encoding *and* structure
    sharing disabled (for size comparisons in EXPERIMENTS.md E11).

    Pooled annotations (tvla, generic) get each node's structures
    inlined in place of pool indices; delta-encoded node entries are
    flattened to absolute form.  The result is a size baseline, not a
    checkable certificate.
    """
    result = dict(annotation)
    kind = annotation.get("kind")
    if kind in ("tvla", "generic"):
        pool = annotation.get("pool", [])
        if kind == "tvla" and annotation.get("mode") == "relational":
            sets = decode_int_sets(annotation["nodes"])
            result["nodes"] = [
                [node, [pool[i] for i in sorted(sets[node])]]
                for node in sorted(sets)
            ]
        else:
            result["nodes"] = [
                [node, pool[i]] for node, i in annotation["nodes"]
            ]
        result.pop("pool", None)
    elif kind in ("fds", "relational"):
        if kind == "fds":
            masks = decode_masks(annotation["nodes"])
            result["nodes"] = encode_masks(masks, {}, delta=False)
        else:
            sets = decode_int_sets(annotation["nodes"])
            result["nodes"] = encode_int_sets(sets, {}, delta=False)
    elif kind == "interproc":
        contexts = []
        for ctx in annotation["contexts"]:
            ctx = dict(ctx)
            ctx["nodes"] = encode_masks(decode_masks(ctx["nodes"]), {}, delta=False)
            contexts.append(ctx)
        result["contexts"] = contexts
    return result


# -- three-valued structure codec -------------------------------------------
#
# Nodes are renumbered 0..k-1 in the structure's canonical order (vector
# of Kleene values, then summary bit, then position), which is total on
# canonicalized structures: canonicalization leaves at most one node per
# canonical vector.  Kleene values serialize as their enum ints
# (FALSE=0, TRUE=1, HALF=2), read straight off the bit planes.


def _bits(plane: int) -> Iterable[int]:
    while plane:
        low = plane & -plane
        yield low.bit_length() - 1
        plane ^= low


def structure_to_json(structure: PackedStructure, preds) -> Dict[str, object]:
    order = structure.canonical_order(preds)
    index = {node: i for i, node in enumerate(order)}
    shift = structure._shift
    column = structure._width - 1
    # absent means 0, so the serialization is a normal form regardless
    # of how the planes were mutated
    nullary = sorted(
        [pred, value._value_]
        for pred, value in structure.nullary.items()
        if value._value_ != 0
    )
    unary = sorted(
        [pred, index[node], code]
        for code, planes in ((1, structure.u_t), (2, structure.u_h))
        for pred, plane in planes.items()
        for node in _bits(plane)
    )
    binary = sorted(
        [pred, index[pos >> shift], index[pos & column], code]
        for code, planes in ((1, structure.b_t), (2, structure.b_h))
        for pred, plane in planes.items()
        for pos in _bits(plane)
    )
    return {
        "nodes": len(order),
        "summary": [1 if structure.summary[n] else 0 for n in order],
        "nullary": nullary,
        "unary": unary,
        "binary": binary,
    }


def structure_from_json(payload: Mapping[str, object]) -> PackedStructure:
    try:
        structure = PackedStructure()
        nodes = [
            structure.new_node(summary=bool(bit)) for bit in payload["summary"]
        ]
        if len(nodes) != payload["nodes"]:
            raise CertificateError("structure node count disagrees with summary bits")
        for pred, value in payload["nullary"]:
            structure.set(pred, (), Kleene(value))
        for pred, i, value in payload["unary"]:
            structure.set(pred, (nodes[i],), Kleene(value))
        for pred, i, j, value in payload["binary"]:
            structure.set(pred, (nodes[i], nodes[j]), Kleene(value))
        return structure
    except CertificateError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise CertificateError(f"malformed structure: {exc}") from exc


# -- hash-consed pools ------------------------------------------------------


class Pool:
    """Hash-consed pool of serialized states, sorted by canonical text so
    pool indices are deterministic."""

    def __init__(self) -> None:
        self._entries: List[object] = []
        self._texts: List[str] = []
        self._index: Dict[str, int] = {}

    def add(self, payload: object) -> int:
        text = canonical_text(payload)
        if text not in self._index:
            self._index[text] = len(self._entries)
            self._entries.append(payload)
            self._texts.append(text)
        return self._index[text]

    def finish(self) -> Tuple[List[object], Dict[int, int]]:
        """Sort entries by text; returns (entries, old index -> new index)."""
        order = sorted(range(len(self._entries)), key=lambda i: self._texts[i])
        remap = {old: new for new, old in enumerate(order)}
        return [self._entries[i] for i in order], remap


# -- certificate wrapper ----------------------------------------------------


@dataclass
class ConformanceCertificate:
    """A versioned, deterministic, JSON-serializable fixpoint certificate."""

    payload: Dict[str, object]

    @property
    def engine(self) -> str:
        return self.payload.get("engine", "?")

    @property
    def subject(self) -> str:
        return self.payload.get("subject", "?")

    @property
    def partial(self) -> bool:
        return bool(self.payload.get("verdict", {}).get("partial"))

    def to_json(self) -> Dict[str, object]:
        return self.payload

    def text(self) -> str:
        """The one serialization: :func:`canonical_text` of the payload
        plus a trailing newline.  It is what ``--emit-cert`` writes, what
        the store addresses by sha256 and what the served path ships;
        read it with ``python -m json.tool``.  :meth:`load` parses any
        JSON rendering, so certificates written indented still load."""
        return canonical_text(self.payload) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.text())

    @staticmethod
    def load(path: str) -> "ConformanceCertificate":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise CertificateError(f"{path}: certificate is not a JSON object")
        return ConformanceCertificate(payload)
