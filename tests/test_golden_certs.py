"""Golden certificate hashes for the whole suite.

``tests/data/suite_cert_hashes.json`` records the SHA-256 of the
certificate every suite program emits under every engine that applies
to it (the ``repro certify --all-suite`` matrix).  The hashes were
recorded on the dict-of-tuples structures and checked equal to the bytes
of the packed kernel and of the packed kernel with the interpreted
formula evaluator and unmemoized TVLA transfers, so this one comparison
now stands in for those runtime differentials: the single remaining
configuration must keep emitting exactly those certificates.  (FIFO
worklists recorded a different ``worklist`` option and so never shared
these bytes; their equivalence with reverse postorder was shown on
fixpoint results only, and needs no showing now that FIFO is gone.)

Regenerate only for a deliberate certificate-format change::

    PYTHONPATH=src python tests/test_golden_certs.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.harness import HEAP_ENGINES, SHALLOW_ENGINES
from repro.easl.library import cmp_spec
from repro.suite import all_programs

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "suite_cert_hashes.json"
)


def suite_matrix():
    """Every (program, engine) pair the suite certifies, sorted."""
    return [
        (bench, engine)
        for bench in sorted(all_programs(), key=lambda b: b.name)
        for engine in (SHALLOW_ENGINES if bench.shallow else HEAP_ENGINES)
    ]


def certificate_hash(session: CertifySession, source: str, engine: str) -> str:
    try:
        report = session.certify(source, engine=engine)
    except Exception as error:  # recorded, so a new failure shows too
        return f"error: {type(error).__name__}"
    text = report.certificate.text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def emit_hashes() -> dict:
    session = CertifySession(
        cmp_spec(), options=CertifyOptions(emit_certificate=True)
    )
    return {
        f"{bench.name}/{engine}": certificate_hash(
            session, bench.source, engine
        )
        for bench, engine in suite_matrix()
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def session():
    return CertifySession(
        cmp_spec(), options=CertifyOptions(emit_certificate=True)
    )


def test_golden_file_covers_the_suite_matrix(golden):
    expected = {f"{b.name}/{e}" for b, e in suite_matrix()}
    assert set(golden) == expected
    # the matrix certifies: a golden file of recorded errors proves little
    assert not [key for key, value in golden.items() if value.startswith("error")]


@pytest.mark.parametrize(
    "bench,engine",
    suite_matrix(),
    ids=[f"{b.name}/{e}" for b, e in suite_matrix()],
)
def test_certificate_bytes_match_golden_hash(golden, session, bench, engine):
    assert (
        certificate_hash(session, bench.source, engine)
        == golden[f"{bench.name}/{engine}"]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(emit_hashes(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
