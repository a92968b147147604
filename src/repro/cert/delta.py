"""Cert-to-cert delta certificates.

A *delta certificate* encodes a child :class:`ConformanceCertificate`
against a parent certificate, generalizing the intra-certificate codecs
in :mod:`repro.cert.model` (masks XOR against a CFG predecessor, int
sets as add/drop lists, hash-consed pools) to the cert-to-cert axis:
after a small client edit, most of the payload — spec fingerprinting,
options, the bulk of the source text, and most pool entries — is
unchanged, so shipping only the difference is the certificate-size
analogue of incremental recertification (Albert et al., "Certificate
Size Reduction in Abstraction-Carrying Code").

The encoding is exact and self-validating: it records the sha256 of the
parent's canonical text and of the child's, so materialization fails
loudly on a tampered or mismatched parent, and a materialized child is
bit-for-bit the original (the hash check proves it).  Checking a delta
is therefore: verify the parent hash, materialize, and hand the child to
the ordinary linear-pass :class:`repro.cert.check.CertificateChecker` —
the delta layer adds no trusted code beyond two hash comparisons.

Layout (shown indented; on disk it is compact canonical JSON, sorted
keys and no whitespace, like the certificates themselves)::

    {
      "format": "repro-cert-delta",
      "version": 2,
      "parent_hash": "<sha256 of parent.text()>",
      "child_hash":  "<sha256 of child.text()>",
      "ops": {
        "drop":   ["key", ...],                # top-level keys removed
        "set":    {"key": <absolute value>},   # changed, no special codec
        "source": [["=", i1, i2], ["+", ["line\n", ...]], ...],
        "annotation": {
          "drop": [...], "set": {...},
          "pool": [["=", i1, i2], ["+", [<entries>]], ...]
        }
      }
    }

``source`` ops splice the child source from parent source lines (keep
ranges) plus inserted lines; ``pool`` ops do the same over the parent's
sorted state pool — both stay valid because pools are sorted by
canonical text on both sides, so shared entries appear as runs.

Version 2 hashes the compact canonical certificate text; a version-1
delta hashed the indented rendering that certificates used to be written
in, so its hashes can match no current certificate and it is refused as
an unsupported version.
"""

from __future__ import annotations

import copy
import difflib
import json
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cert.model import (
    CertificateError,
    ConformanceCertificate,
    canonical_text,
    sha256_text,
)

DELTA_FORMAT = "repro-cert-delta"
DELTA_VERSION = 2

_MISSING = object()


def certificate_hash(certificate: ConformanceCertificate) -> str:
    """sha256 of the byte-stable serialization (what the store indexes)."""
    return sha256_text(certificate.text())


# -- splice ops (shared by the source and pool codecs) ----------------------


def _encode_splice(old: List[object], new: List[object]) -> List[List[object]]:
    """Encode ``new`` as keep-ranges over ``old`` plus inserted runs."""
    old_keys = [canonical_text(item) for item in old]
    new_keys = [canonical_text(item) for item in new]
    matcher = difflib.SequenceMatcher(a=old_keys, b=new_keys, autojunk=False)
    ops: List[List[object]] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            ops.append(["=", i1, i2])
        elif tag in ("replace", "insert"):
            ops.append(["+", list(new[j1:j2])])
        # "delete": parent-only run, nothing to emit
    return ops


def _apply_splice(old: List[object], ops: object) -> List[object]:
    if not isinstance(ops, list):
        raise CertificateError("delta: splice ops must be a list")
    out: List[object] = []
    for op in ops:
        if not isinstance(op, list) or not op:
            raise CertificateError("delta: malformed splice op")
        if op[0] == "=":
            if len(op) != 3:
                raise CertificateError("delta: malformed keep op")
            i1, i2 = op[1], op[2]
            if not (isinstance(i1, int) and isinstance(i2, int)):
                raise CertificateError("delta: keep op indices must be ints")
            if not (0 <= i1 <= i2 <= len(old)):
                raise CertificateError("delta: keep op out of range")
            out.extend(old[i1:i2])
        elif op[0] == "+":
            if len(op) != 2 or not isinstance(op[1], list):
                raise CertificateError("delta: malformed insert op")
            out.extend(op[1])
        else:
            raise CertificateError(f"delta: unknown splice op {op[0]!r}")
    return out


# -- annotation delta -------------------------------------------------------


def _encode_annotation(parent: Mapping[str, object], child: Mapping[str, object]):
    ops: Dict[str, object] = {}
    drop = sorted(k for k in parent if k not in child)
    if drop:
        ops["drop"] = drop
    absolute: Dict[str, object] = {}
    for key in sorted(child):
        old = parent.get(key, _MISSING)
        new = child[key]
        if old is not _MISSING and canonical_text(old) == canonical_text(new):
            continue
        if (
            key == "pool"
            and isinstance(old, list)
            and isinstance(new, list)
        ):
            ops["pool"] = _encode_splice(old, new)
        else:
            absolute[key] = new
    if absolute:
        ops["set"] = absolute
    return ops


def _apply_annotation(parent: Dict[str, object], ops: Mapping[str, object]):
    result = dict(parent)
    for key in ops.get("drop", []):
        result.pop(key, None)
    if "pool" in ops:
        old_pool = parent.get("pool")
        if not isinstance(old_pool, list):
            raise CertificateError("delta: pool ops but parent has no pool")
        result["pool"] = _apply_splice(old_pool, ops["pool"])
    set_ops = ops.get("set", {})
    if not isinstance(set_ops, Mapping):
        raise CertificateError("delta: annotation set ops must be an object")
    result.update(set_ops)
    return result


# -- encode / materialize ---------------------------------------------------


def encode_delta(
    parent: ConformanceCertificate,
    child: ConformanceCertificate,
    child_hash: Optional[str] = None,
) -> Dict[str, object]:
    """Encode ``child`` as a delta against ``parent``.

    Works for any certificate pair (worst case everything lands in
    ``set``); pays off when the pair shares spec/options/engine and most
    of the source and annotation, i.e. parent/child of a small edit.
    A caller that has already encoded the child passes its
    :func:`certificate_hash` as ``child_hash`` instead of paying for a
    second encoding; :func:`materialize_delta` still checks it.
    """
    ops: Dict[str, object] = {}
    drop = sorted(k for k in parent.payload if k not in child.payload)
    if drop:
        ops["drop"] = drop
    absolute: Dict[str, object] = {}
    for key in sorted(child.payload):
        old = parent.payload.get(key, _MISSING)
        new = child.payload[key]
        if old is not _MISSING and canonical_text(old) == canonical_text(new):
            continue
        if key == "source" and isinstance(old, str) and isinstance(new, str):
            ops["source"] = _encode_splice(
                old.splitlines(keepends=True), new.splitlines(keepends=True)
            )
        elif (
            key == "annotation"
            and isinstance(old, Mapping)
            and isinstance(new, Mapping)
        ):
            ops["annotation"] = _encode_annotation(old, new)
        else:
            absolute[key] = new
    if absolute:
        ops["set"] = absolute
    return {
        "format": DELTA_FORMAT,
        "version": DELTA_VERSION,
        "parent_hash": certificate_hash(parent),
        "child_hash": child_hash or certificate_hash(child),
        "ops": ops,
    }


def materialize_delta(
    parent: ConformanceCertificate, delta: Mapping[str, object]
) -> ConformanceCertificate:
    """Rebuild the child certificate; raises ``CertificateError`` if the
    parent is not the one the delta was encoded against (hash mismatch —
    this is the tamper check) or the rebuilt child fails its own hash."""
    if delta.get("format") != DELTA_FORMAT:
        raise CertificateError(
            f"delta: unknown format {delta.get('format')!r}"
        )
    if delta.get("version") != DELTA_VERSION:
        raise CertificateError(
            f"delta: unsupported version {delta.get('version')!r}"
        )
    parent_hash = certificate_hash(parent)
    if delta.get("parent_hash") != parent_hash:
        raise CertificateError(
            "delta: parent certificate does not match parent_hash "
            f"(expected {delta.get('parent_hash')}, have {parent_hash})"
        )
    ops = delta.get("ops", {})
    if not isinstance(ops, Mapping):
        raise CertificateError("delta: ops must be an object")
    payload = copy.deepcopy(parent.payload)
    for key in ops.get("drop", []):
        payload.pop(key, None)
    if "source" in ops:
        old_source = parent.payload.get("source")
        if not isinstance(old_source, str):
            raise CertificateError("delta: source ops but parent source is not text")
        payload["source"] = "".join(
            str(piece)
            for piece in _apply_splice(old_source.splitlines(keepends=True), ops["source"])
        )
    if "annotation" in ops:
        old_annotation = parent.payload.get("annotation")
        if not isinstance(old_annotation, Mapping):
            raise CertificateError(
                "delta: annotation ops but parent annotation is not an object"
            )
        ann_ops = ops["annotation"]
        if not isinstance(ann_ops, Mapping):
            raise CertificateError("delta: annotation ops must be an object")
        payload["annotation"] = _apply_annotation(dict(old_annotation), ann_ops)
    set_ops = ops.get("set", {})
    if not isinstance(set_ops, Mapping):
        raise CertificateError("delta: set ops must be an object")
    payload.update(copy.deepcopy(dict(set_ops)))
    child = ConformanceCertificate(payload)
    child_hash = certificate_hash(child)
    if delta.get("child_hash") != child_hash:
        raise CertificateError(
            "delta: materialized child does not match child_hash "
            f"(expected {delta.get('child_hash')}, have {child_hash})"
        )
    return child


# -- serialization ----------------------------------------------------------


def delta_text(delta: Mapping[str, object]) -> str:
    """Byte-stable serialization, mirroring ``ConformanceCertificate.text``."""
    return canonical_text(delta) + "\n"


def write_delta(delta: Mapping[str, object], path: str) -> str:
    """Write the delta's text to ``path`` and return that text."""
    text = delta_text(delta)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def load_delta(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise CertificateError(f"{path}: delta certificate is not a JSON object")
    return payload


def check_delta(
    parent: ConformanceCertificate,
    delta: Mapping[str, object],
    checker,
    *,
    spec=None,
) -> Tuple[object, Optional[ConformanceCertificate]]:
    """Materialize parent+delta and run the independent checker.

    Returns ``(CheckResult, child_or_None)``.  Materialization failures
    (tampered parent, malformed ops, child-hash mismatch) come back as a
    typed reject with ``kind="delta-mismatch"`` and no child.
    """
    from repro.cert.check import CheckResult

    try:
        child = materialize_delta(parent, delta)
    except CertificateError as exc:
        return (
            CheckResult(
                ok=False,
                kind="delta-mismatch",
                detail=str(exc),
                engine=str(delta.get("engine", parent.engine)),
                subject=parent.subject,
            ),
            None,
        )
    return checker.check(child, spec=spec), child
