"""Work-repeat self-test of the benchmark.

Each workload runs twice at a small size with the same seed; the work it
did must repeat exactly (certificate hashes, contexts, iterations, served
paths, summary-database objects, certificate size), so that only timing
noise separates two runs.  Batch certificates must also be byte-identical
to cold in-process ``interproc`` certificates of the same clients.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SEED = 7
SECONDS = 1.0
WORKLOADS = ("interproc-library", "tvla-heap", "serve-mixed", "library-batch")


def _run(workload: str, out: str):
    done = subprocess.run(
        [
            sys.executable,
            RUN,
            "--workload",
            workload,
            "--seed",
            str(SEED),
            "--seconds",
            str(SECONDS),
            "--trace",
            "0",
            "--work-out",
            out,
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(out, "r", encoding="utf-8") as handle:
        return result, json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache = {}

    def get(workload: str):
        if workload not in cache:
            folder = tmp_path_factory.mktemp(workload)
            cache[workload] = (
                _run(workload, str(folder / "first.json")),
                _run(workload, str(folder / "second.json")),
            )
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_repeats_exactly(runs, workload):
    (first_result, first), (second_result, second) = runs(workload)
    assert first_result["failed"] == 0 and first_result["correct"]
    assert second_result["failed"] == 0 and second_result["correct"]
    assert first_result["attempted"] == second_result["attempted"]
    assert first["cert_sha256"], "no certificates recorded"
    assert first == second


def test_batch_certificates_match_cold_in_process(runs):
    (_result, work), _second = runs("library-batch")
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import batched
        from common import sha256_text
        from repro.api import CertifyOptions, CertifySession
        from repro.easl.library import get_spec

        spec = get_spec("cmp")
        _prime, base, near = batched.make_inputs(SEED, SECONDS, spec)
        cold = [
            sha256_text(
                CertifySession(spec, "interproc", CertifyOptions(emit_certificate=True))
                .certify(source)
                .certificate.text()
            )
            for source in base + near
        ]
    finally:
        del sys.path[:2]
    assert work["sources_sha256"] == [sha256_text(s) for s in base + near]
    assert work["cert_sha256"] == cold
