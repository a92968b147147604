"""Proof-carrying conformance certificates.

The analyzer runs an (expensive) abstract fixpoint; the *certificate* it
emits is the fixpoint annotation itself — the post-fixpoint abstract state
at every reachable CFG node — together with enough fingerprinting (spec
hash, derived-abstraction hash, engine/options fingerprint, source hash)
to pin down exactly which analysis instance it witnesses.  A third party
re-validates the verdict with :class:`CertificateChecker` in one linear
pass over the edges, *without* running any fixpoint: at a fixpoint every
edge's transfer is already subsumed by the successor's recorded state, so
inductiveness + entry coverage + alarm entailment are each a single sweep.

This is the abstraction-carrying-code split (Albert et al.; Seghir 2018)
applied to the paper's conformance certifiers: certify once, check
everywhere.
"""

import importlib

from repro.cert.model import (
    CERT_FORMAT,
    CERT_VERSION,
    CertificateError,
    ConformanceCertificate,
)
from repro.cert.check import CertificateChecker, CheckResult

#: names loaded from their module on first use (PEP 562), so that a
#: consumer importing the checker loads neither the delta codec nor the
#: certificate mutator
_LAZY = {
    **dict.fromkeys(
        [
            "DELTA_FORMAT",
            "DELTA_VERSION",
            "certificate_hash",
            "check_delta",
            "delta_text",
            "encode_delta",
            "load_delta",
            "materialize_delta",
            "write_delta",
        ],
        "repro.cert.delta",
    ),
    "mutate_certificate": "repro.cert.mutate",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "CERT_FORMAT",
    "CERT_VERSION",
    "DELTA_FORMAT",
    "DELTA_VERSION",
    "CertificateError",
    "CertificateChecker",
    "CheckResult",
    "ConformanceCertificate",
    "certificate_hash",
    "check_delta",
    "delta_text",
    "encode_delta",
    "load_delta",
    "materialize_delta",
    "mutate_certificate",
    "write_delta",
]
