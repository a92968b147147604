"""The content-addressed certificate store.

Two address spaces, both SHA-256 hex:

* **certificate hash** — the hash of the certificate's byte-stable text
  (:meth:`~repro.cert.ConformanceCertificate.text`).  Objects live under
  ``objects/<h2>/<hash>.cert.json`` and are immutable.

* **request key** — the hash of the canonical request instance
  ``{spec_hash, source_hash, fingerprint[, abstraction_hash]}`` (the
  hashes the certificates already embed).  The index under
  ``index/<k2>/<key>`` maps a request key to the certificate hash that
  answered it, so a service can resolve "have we certified exactly this
  before?" without touching analyzer state.  The lineage index under
  ``lineage/<k2>/<key>`` drops the source hash and maps to the latest
  certificate built under the same analysis inputs.

:class:`CertificateStore` is a typed front end over
:class:`~repro.store.core.ContentStore`, which owns the objects, the
two pointer tables, the write-ahead journal, recovery, quarantine and
LRU gc; the front end derives the keys and parses certificates.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from repro.cert import model
from repro.cert.model import ConformanceCertificate
from repro.runtime.cache import DEFAULT_CACHE_SIZE, LRUCache
from repro.store.core import ContentStore
from repro.store.io import StoreIO


def request_key(
    *,
    spec_hash: str,
    source_hash: str,
    fingerprint: str,
    abstraction_hash: Optional[str] = None,
) -> str:
    """The content address of one certification *request* instance.

    ``fingerprint`` is :func:`repro.cert.model.options_fingerprint` over
    the requested engine and option payload, so two requests collide
    exactly when every analysis-relevant input coincides.
    ``abstraction_hash`` is redundant given (spec_hash, fingerprint) —
    derivation is deterministic — but callers that have already derived
    include it so a derivation-rule change invalidates old entries.
    """
    return model.sha256_text(
        model.canonical_text(
            {
                "abstraction_hash": abstraction_hash,
                "fingerprint": fingerprint,
                "source_hash": source_hash,
                "spec_hash": spec_hash,
            }
        )
    )


def certificate_request_key(cert: ConformanceCertificate) -> str:
    """The request key a certificate answers, from its own hashes."""
    payload = cert.payload
    return request_key(
        spec_hash=str(payload.get("spec_hash")),
        source_hash=str(payload.get("source_hash")),
        fingerprint=str(payload.get("fingerprint")),
        abstraction_hash=payload.get("abstraction_hash"),
    )


def lineage_key(
    *,
    spec_hash: str,
    fingerprint: str,
    abstraction_hash: Optional[str] = None,
) -> str:
    """The content address of a certification *lineage*: every request
    that differs only in the client source.  The lineage index maps this
    to the most recently stored certificate with these hashes — the
    natural warm-start parent for an edited client whose exact request
    key misses (:mod:`repro.incr`)."""
    return model.sha256_text(
        model.canonical_text(
            {
                "abstraction_hash": abstraction_hash,
                "fingerprint": fingerprint,
                "spec_hash": spec_hash,
            }
        )
    )


def certificate_lineage_key(cert: ConformanceCertificate) -> str:
    """The lineage a certificate belongs to, from its own hashes."""
    payload = cert.payload
    return lineage_key(
        spec_hash=str(payload.get("spec_hash")),
        fingerprint=str(payload.get("fingerprint")),
        abstraction_hash=payload.get("abstraction_hash"),
    )


class CertificateStore(ContentStore):
    """Content-addressed storage of conformance certificates.

    ``root=None`` keeps everything in process memory; a path persists
    objects, the request index and the lineage index under ``root``
    (created on demand).  The object/pointer/journal machinery is
    :class:`~repro.store.core.ContentStore`'s; this front end derives
    the keys and parses certificates.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        *,
        io: Optional[StoreIO] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        super().__init__(
            root,
            io=io,
            clock=clock,
            suffix=".cert.json",
            tables=("index", "lineage"),
        )
        # parsed-object cache: objects are immutable, so a payload parsed
        # once (or supplied to put()) serves every later hit without a
        # JSON decode on the hot path; callers must treat it read-only.
        # Bounded: an evicted certificate is re-parsed from its text
        self._parsed = LRUCache(DEFAULT_CACHE_SIZE, name="parsed-certs")

    def put(
        self, cert: ConformanceCertificate, key: Optional[str] = None
    ) -> str:
        """Store a certificate; returns its content hash.

        ``key`` is the request key to index it under (defaults to the
        key derived from the certificate's own embedded hashes).  The
        lineage index is repointed at it too, so near-miss requests find
        a warm-start parent certified under identical analysis inputs.
        Re-putting a different certificate under the same key repoints
        the index (e.g. after a tampered object was evicted and
        re-certified).
        """
        key = key if key is not None else certificate_request_key(cert)
        cert_hash = self._put(
            cert.text(),
            {"index": key, "lineage": certificate_lineage_key(cert)},
        )
        self._parsed.put(cert_hash, cert)
        return cert_hash

    def resolve(self, key: str) -> Optional[str]:
        """The certificate hash indexed under a request key, or None."""
        return self._resolve("index", key)

    def resolve_lineage(self, key: str) -> Optional[str]:
        """The latest certificate hash in a lineage, or None."""
        return self._resolve("lineage", key)

    def get(self, key: str) -> Optional[ConformanceCertificate]:
        """Look up a request key; integrity-verified hit or None.

        A hit means: the index knows this exact request instance AND the
        stored object's bytes still hash to their address.  Anything
        else — unknown key, missing object, tampered object — is a miss
        (tampering additionally bumps ``stats.corrupt``).
        """
        found = self._fetch("index", key)
        self._count(found is not None)
        return self._parse(*found) if found is not None else None

    def get_lineage(self, key: str) -> Optional[ConformanceCertificate]:
        """The latest certificate in a lineage (integrity-verified), or
        None.  A dangling or corrupt latest object drops the lineage
        entry — a fresh full certification will repoint it."""
        found = self._fetch("lineage", key)
        return self._parse(*found) if found is not None else None

    def get_by_hash(self, cert_hash: str) -> Optional[ConformanceCertificate]:
        """Fetch a certificate by content hash (integrity-verified)."""
        text = self._load_object(cert_hash)
        return self._parse(cert_hash, text) if text is not None else None

    def _parse(self, cert_hash: str, text: str) -> ConformanceCertificate:
        """Parsed certificate for already-verified text (cached: the
        object layer is immutable, so one decode serves every hit)."""
        return self._parsed.get_or_create(
            cert_hash, lambda: ConformanceCertificate(_loads(text))
        )

    def _forget(self, object_hash: Optional[str] = None) -> None:
        super()._forget(object_hash)
        if object_hash is None:
            self._parsed.clear()
        else:
            self._parsed.pop(object_hash, None)

    def object_size(self, cert_hash: str) -> Optional[int]:
        """Byte length of a stored object's text, without parsing it."""
        with self._lock:
            text = self._objects.get(cert_hash)
        if text is None and self.root is not None:
            try:
                return os.path.getsize(self.object_path(cert_hash))
            except OSError:
                return None
        return len(text) if text is not None else None


def _loads(text: str) -> Dict[str, object]:
    import json

    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise model.CertificateError("stored certificate is not a JSON object")
    return payload
