"""Content-addressed stores: certificates and interprocedural summaries.

The serving model (DCert / abstraction-carrying code): a heavyweight
analyzer certifies a client *once*, and every later request for the same
(spec, source, engine, options) instance revalidates the stored
certificate with the linear-pass checker instead of re-running the
fixpoint.  The store is the piece that makes "same instance" precise —
requests are keyed by the hashes the certificate already carries.

A second *lineage* index drops the source hash from the key: a request
whose exact instance misses can still find the latest certificate built
under identical analysis inputs and warm-start from it
(:mod:`repro.incr`).

The persistent summary database (:class:`SummaryStore`) reuses the
same storage core (:mod:`repro.store.core`) with its own object suffix
and a single index.  See :class:`CertificateStore`.
"""

from repro.store.cas import CertificateStore, lineage_key, request_key
from repro.store.core import StoreStats
from repro.store.io import StoreIO, atomic_write_text
from repro.store.summary import (
    SummaryStore,
    summary_analysis_key,
    summary_context_key,
)
from repro.store.wal import RecoveryReport, WriteAheadLog

__all__ = [
    "CertificateStore",
    "RecoveryReport",
    "StoreIO",
    "StoreStats",
    "SummaryStore",
    "WriteAheadLog",
    "atomic_write_text",
    "lineage_key",
    "request_key",
    "summary_analysis_key",
    "summary_context_key",
]
