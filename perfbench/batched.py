"""The ``library-batch`` workload: ``BatchRunner`` over a shared library.

Every client shares one fixed library and differs in its callers.
Set-up primes a summary database with three clients outside the measured
set, so both pool workers read the library's summaries instead of racing
to compute them.  The measured phase runs two batches with 2
workers and the checkpoint journal on: the base clients, then one edit
of every second of them (*near* jobs, whose unchanged procedures all hit
the database).  Each job emits a certificate; afterwards one held
checker checks them all.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import time
from typing import List

from common import (
    GcMeter,
    Spans,
    between,
    distinct_sources,
    fixed_order,
    mean,
    median,
    missed_errors,
    near_edit,
    percentile,
    ru_maxrss_mb,
    scaled,
    sha256_text,
    sub_seed,
    work_root,
)

WORKERS = 2
CLIENT_STMTS = 1000
LIBRARY_SEED = 0
#: priming clients (outside the measured set): enough that the measured
#: jobs rarely meet a library entry context the database lacks, so the
#: two workers seldom race to compute the same library summary
PRIME_CLIENTS = [10**6 + k for k in range(3)]
#: base jobs per measured second on a 2-CPU x86 host
JOBS_PER_SECOND = 0.55
NEAR_EVERY = 2
#: checks between two host-speed samples
CHECKS_PER_SAMPLE = 3


def client(i: int) -> str:
    from repro.bench.synthetic import make_shared_library

    return make_shared_library(CLIENT_STMTS, seed=LIBRARY_SEED, client_seed=i)


def make_inputs(seed: int, seconds: float, spec):
    """(priming clients, base clients, near clients).

    Fixed clients and edits in a fixed order, as in inproc; the priming
    clients are fixed too, since their summaries are in the database.
    The seed changes nothing here: set-up has no warm-up client."""
    prime = [client(i) for i in PRIME_CLIENTS]
    taken = set(prime)
    count = max(4, round(seconds * JOBS_PER_SECOND))
    base = distinct_sources(client, count, taken)
    near = [
        near_edit(base[i], sub_seed(0, "edit", i), spec, taken)
        for i in range(0, count, NEAR_EVERY)
    ]
    base, near = fixed_order(base), fixed_order(near)
    return prime, base, near


def _jobs(sources: List[str], prefix: str, db: str):
    from repro.api import CertifyOptions
    from repro.runtime.batch import JobSpec

    options = CertifyOptions(emit_certificate=True, summary_db=db)
    return [
        JobSpec(
            name=f"{prefix}{i:03d}",
            spec="cmp",
            source=source,
            engine="interproc",
            options=options,
        )
        for i, source in enumerate(sources)
    ]


def _run_batch(jobs, workers: int, workdir: str, tag: str):
    from repro.runtime.batch import BatchRunner

    runner = BatchRunner(
        jobs,
        max_workers=workers,
        emit_certs_dir=os.path.join(workdir, f"certs-{tag}"),
        checkpoint_dir=os.path.join(workdir, f"journal-{tag}"),
    )
    return runner.run()


def setup(workdir: str, prime: List[str], spec):
    """Prime the summary DB (open + recover + the priming clients) and
    warm the held checker on a priming certificate."""
    from repro.cert.check import CertificateChecker
    from repro.cert.model import ConformanceCertificate

    db = os.path.join(workdir, "summaries")
    started = time.perf_counter()
    primed = _run_batch(_jobs(prime, "prime", db), 1, workdir, "prime")
    prime_s = time.perf_counter() - started
    for result in primed.results:
        if not result.ok or result.certificate_path is None:
            raise RuntimeError(f"priming job failed: {result.error}")
    checker = CertificateChecker()
    certificate = ConformanceCertificate.load(primed.results[0].certificate_path)
    if not checker.check(certificate, spec=spec).ok:
        raise RuntimeError("priming certificate rejected")
    return db, checker, prime_s


def run(workload: str, seed: int, seconds: float, traced: bool, clock, speed) -> dict:
    from repro.cert.model import ConformanceCertificate
    from repro.easl.library import get_spec
    from repro.store.summary import SummaryStore

    spec = get_spec("cmp")
    clock.pause()
    prime, base, near = make_inputs(seed, seconds, spec)
    workdir = tempfile.mkdtemp(prefix="batch-", dir=work_root())
    try:
        clock.resume()
        db, checker, prime_s = setup(workdir, prime, spec)
        clock.pause()
        spans = Spans(traced)
        # the host's speed is sampled between batches (on every CPU, as
        # the pool uses them all) and groups of checks; each is scaled by
        # the mean factor of the samples around it
        before = speed.sample_cpus()
        measured_started, sampling = time.perf_counter(), speed.spent
        with GcMeter() as gc_meter, spans.span("measured"):
            with spans.span("runtime.batch"):
                base_result = _run_batch(_jobs(base, "base", db), WORKERS, workdir, "base")
            with spans.span("host.sample"):
                middle = speed.sample_cpus()
            with spans.span("runtime.batch"):
                near_result = _run_batch(_jobs(near, "near", db), WORKERS, workdir, "near")
            with spans.span("host.sample"):
                after = speed.sample_cpus()
                check_factors = [speed.sample()]
            results = list(base_result.results) + list(near_result.results)
            check_s: List[float] = []
            #: per check, the index of the sample before it
            check_group: List[int] = []
            cert_bytes: List[int] = []
            hashes: List[str] = []
            failures: List[str] = []
            for index, result in enumerate(results):
                if index and index % CHECKS_PER_SAMPLE == 0:
                    with spans.span("host.sample"):
                        check_factors.append(speed.sample())
                if not result.ok or result.certificate_path is None:
                    failures.append("batch job not ok")
                    continue
                with open(result.certificate_path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                cert_bytes.append(len(text.encode("utf-8")))
                hashes.append(sha256_text(text))
                started = time.perf_counter()
                with spans.span("cert.check"):
                    ok = checker.check(ConformanceCertificate.load(result.certificate_path), spec=spec).ok
                check_s.append(time.perf_counter() - started)
                check_group.append(len(check_factors) - 1)
                if not ok:
                    failures.append("checker rejected a certificate")
            with spans.span("host.sample"):
                check_factors.append(speed.sample())
        measured_s = time.perf_counter() - measured_started - (speed.spent - sampling)
        db_objects = len(SummaryStore(db))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for source, result in zip(base + near, results):  # untimed: ground truth
        sites = {alarm["site_id"] for alarm in result.alarm_json}
        if missed_errors(source, spec, sites):
            failures.append("alarm set misses a ground-truth error")

    base_s = [r.seconds for r in base_result.results]
    near_s = [r.seconds for r in near_result.results]
    batch_wall = base_result.seconds + near_result.seconds
    attempted = len(results) * 2

    def timings(base_f: float, near_f: float, checks: List[float], rest_f: float):
        batches = base_result.seconds * base_f + near_result.seconds * near_f
        # reading certificates and results between the checks
        rest = measured_s - batch_wall - sum(check_s)
        return {
            "certify_per_s": len(results) / batches,
            "check_per_s": len(checks) / sum(checks),
            "req_per_s": attempted / (batches + sum(checks) + rest * rest_f),
            "hit_ms": 1000.0 * mean(checks),
            "miss_ms": 1000.0 * mean(base_s) * base_f,
            "near_ms": 1000.0 * mean(near_s) * near_f,
        }

    check_f = [between(check_factors)[group] for group in check_group]
    e2e = timings(
        (before + middle) / 2,
        (middle + after) / 2,
        scaled(check_s, check_f),
        median(check_factors),
    )
    e2e["cert_kb"] = sum(cert_bytes) / max(1, len(cert_bytes)) / 1024.0
    e2e["peak_rss_mb"] = max(ru_maxrss_mb(), ru_maxrss_mb(resource.RUSAGE_CHILDREN))
    phases = {}
    for result in results:
        for name, seconds_ in result.phase_seconds().items():
            phases[name] = phases.get(name, 0.0) + seconds_
    jobs = len(results)
    lowest, uncovered = spans.root_coverage()
    # the per-layer metrics are as measured
    layers = timings(1.0, 1.0, check_s, 1.0)
    layers.update({
        "hit_p50_ms": 1000.0 * median(check_s),
        "miss_p50_ms": 1000.0 * median(base_s),
        "near_p50_ms": 1000.0 * median(near_s),
        "serve.hit_p90_ms": 1000.0 * percentile(check_s, 90),
        "lang.parse_s": phases.get("parse", 0.0) / jobs,
        "certifier.fixpoint_s": phases.get("fixpoint", 0.0) / jobs,
        "cert.emit_s": phases.get("emit", 0.0) / jobs,
        "cert.kb": e2e["cert_kb"],
        "cert.check_s": median(check_s),
        "cert.check_over_certify": sum(check_s) / sum(base_s + near_s),
        "summary.db_objects": db_objects,
        "summary.prime_s": prime_s,
        "runtime.job_s": median(base_s + near_s),
        "runtime.pool_idle_s": WORKERS * batch_wall - sum(base_s + near_s),
        "gc.s_per_op": gc_meter.seconds / attempted,
        "gc.share": gc_meter.seconds / measured_s,
        "trace.coverage": lowest,
        "trace.overhead": uncovered,
    })
    return {
        "attempted": attempted,
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "work": {
            "cert_sha256": hashes,
            "sources_sha256": [sha256_text(s) for s in base + near],
            "summary.db_objects": db_objects,
            "cert.kb": round(e2e["cert_kb"], 6),
        },
    }


def setup_only(workload: str, seed: int, seconds: float, clock) -> None:
    from repro.easl.library import get_spec

    spec = get_spec("cmp")
    clock.pause()
    prime = [client(i) for i in PRIME_CLIENTS]
    workdir = tempfile.mkdtemp(prefix="batch-", dir=work_root())
    try:
        clock.resume()
        setup(workdir, prime, spec)
        clock.pause()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
