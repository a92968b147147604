"""The two content-addressed store front ends, driven one way.

Store safety tests take the ``store_kind`` fixture (``conftest.py``),
which runs them once over :class:`~repro.store.CertificateStore` and
once over :class:`~repro.store.SummaryStore`, so both are held to the
same crash, tamper and gc guarantees.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cert import ConformanceCertificate
from repro.cert.model import canonical_text, sha256_text
from repro.store import CertificateStore, SummaryStore
from repro.store.cas import certificate_request_key


@dataclass(frozen=True)
class Sample:
    """One object as a test puts it: its key, the exact text the store
    keeps for it, and the put itself."""

    key: str
    text: str
    put: Callable[[object], str]


def _synthetic_certificate(tag: str) -> ConformanceCertificate:
    """A minimal distinct certificate; gc cares only about bytes/recency."""
    return ConformanceCertificate(
        payload={"format": "test", "tag": tag, "body": "x" * 64}
    )


class CertificateKind:
    name = "certificate"
    store = CertificateStore
    suffix = ".cert.json"
    #: a put journals (and recovery rewrites) a lineage pointer
    has_lineage = True

    def sample(
        self,
        tag: str,
        key: Optional[str] = None,
        certificate: Optional[ConformanceCertificate] = None,
    ) -> Sample:
        """``certificate`` (default: a synthetic one named by ``tag``)
        under ``key`` (default: its own request key)."""
        cert = certificate or _synthetic_certificate(tag)
        key = key if key is not None else certificate_request_key(cert)
        return Sample(key, cert.text(), lambda store: store.put(cert, key))

    def get_text(self, store, key: str) -> Optional[str]:
        got = store.get(key)
        return None if got is None else got.text()


class SummaryKind:
    name = "summary"
    store = SummaryStore
    suffix = ".summary.json"
    has_lineage = False

    def sample(
        self,
        tag: str,
        key: Optional[str] = None,
        certificate: Optional[ConformanceCertificate] = None,
    ) -> Sample:
        """A context-summary payload named by ``tag`` under ``key``
        (default: the hash of ``tag``); ``certificate`` is ignored."""
        payload = {"tag": tag, "exit": "3", "masks": ["1", "3"], "body": "x" * 64}
        key = key if key is not None else sha256_text(tag)
        return Sample(
            key, canonical_text(payload), lambda store: store.put(key, payload)
        )

    def get_text(self, store, key: str) -> Optional[str]:
        got = store.get(key)
        return None if got is None else canonical_text(got)


KINDS = (CertificateKind(), SummaryKind())
