"""The in-process workloads: ``interproc-library`` and ``tvla-heap``.

One process holds one certifying session and one checker.  Each client
is certified with emission and its certificate encoded (a *miss*), then
edited once and re-certified from its parent certificate (a *near*),
and then the held checker decodes and checks both certificate texts (two
*hits*), as a consumer would after its producer.  Each client's block of
ops starts with an untimed full collection, so where a collection of
the checker's growing memos lands does not depend on what ran before,
and with a host-speed sample.  Every source is distinct, and the
clients, edits and their order are a fixed function of ``--seconds``, so
every run does the same work; the seed picks the warm-up client.

Rates and latencies are totals and means over all ops of a class, with
the in-op collector pauses wherever they fell: over 10 runs they
repeated better than medians, which jump when a pause lands in the
middle op.  Medians are reported as per-layer metrics.
"""
from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from typing import Dict, List

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
)

#: workload -> (engine, clients per measured second on a 2-CPU x86 host)
WORKLOADS = {
    "interproc-library": ("interproc", 0.6),
    "tvla-heap": ("tvla-relational", 1.1),
}
LIBRARY_STMTS = 1000
LIBRARY_SEED = 0
WARMUP_LIBRARY_STMTS = 300
HEAP_STMTS = 24  # two allocation loops: ~0.2 s per certification


@dataclass
class Inputs:
    warmup: str
    clients: List[str]
    #: client source -> its edited variant
    near: Dict[str, str]


def warmup_source(workload: str, seed: int, taken: set) -> str:
    """The warm-up client: same family, outside the measured set."""
    from repro.bench.synthetic import make_heap_chain, make_shared_library

    if workload == "interproc-library":
        make = lambda i: make_shared_library(  # noqa: E731
            WARMUP_LIBRARY_STMTS, seed=sub_seed(seed, "warmup", i)
        )
    else:
        make = lambda i: make_heap_chain(  # noqa: E731
            HEAP_STMTS, seed=sub_seed(seed, "warmup", i)
        )
    return distinct_sources(make, 1, taken)[0]


def make_inputs(workload: str, seed: int, seconds: float, spec) -> Inputs:
    from repro.bench.synthetic import make_heap_chain, make_shared_library

    _engine, rate = WORKLOADS[workload]
    count = max(3, round(seconds * rate))
    taken: set = set()
    # Every run certifies the same clients with the same edits in the same
    # order; the seed picks the warm-up client.  Client costs differ ~2x
    # (the two-loop heap-chain family has only 81 members), so seeded
    # samples would make the work, not just the timing, differ by seed.
    if workload == "interproc-library":
        make = lambda i: make_shared_library(  # noqa: E731
            LIBRARY_STMTS, seed=LIBRARY_SEED, client_seed=i
        )
    else:
        make = lambda i: make_heap_chain(HEAP_STMTS, seed=i)  # noqa: E731
    clients = distinct_sources(make, count, taken)
    near = {
        client: near_edit(client, sub_seed(0, "edit", i), spec, taken)
        for i, client in enumerate(clients)
    }
    warmup = warmup_source(workload, seed, taken)
    clients = fixed_order(clients)
    return Inputs(warmup=warmup, clients=clients, near=near)


class Held:
    """The set-up state: sessions, the held checker, derivation time."""

    def __init__(self, spec, engine: str, traced: bool) -> None:
        from repro.api import CertifyOptions, CertifySession
        from repro.cert.check import CertificateChecker
        from repro.runtime.cache import LRUCache

        self.spec = spec
        self.engine = engine
        abstractions = LRUCache(8, name="bench-abstractions")
        self.session = CertifySession(
            spec, engine, CertifyOptions(emit_certificate=True), cache=abstractions
        )
        #: the traced run's emission-free twin, sharing the derivation
        self.plain = (
            CertifySession(spec, engine, CertifyOptions(), cache=abstractions)
            if traced
            else None
        )
        self.checker = CertificateChecker()
        started = time.perf_counter()
        self.session.abstraction(identity_families=engine == "interproc")
        self.derive_s = time.perf_counter() - started

    def warm_up(self, source: str) -> None:
        """One untimed-by-metrics op outside the measured set: compiles
        the formula caches and derives the checker's abstraction."""
        report = self.session.certify(source)
        if not self.checker.check(report.certificate).ok:
            raise RuntimeError("warm-up certificate rejected")
        if self.plain is not None:
            from repro.lang.types import parse_program

            program = parse_program(source, self.spec)
            self.plain.artifacts(program, self.engine)
            self.plain.certify_program(program)


def setup(workload: str, spec, warmup: str, traced: bool) -> Held:
    engine, _rate = WORKLOADS[workload]
    held = Held(spec, engine, traced)
    held.warm_up(warmup)
    return held


def _miss(held: Held, source: str, spans: Spans, counters: dict):
    """Certify with emission and encode; in the traced run, split the
    same client into parse / build / fixpoint calls first."""
    from repro.bench.synthetic import count_statements
    from repro.lang.types import parse_program

    if spans.enabled:
        with spans.span("lang.parse"):
            program = parse_program(source, held.spec)
        with spans.span("tvp.build" if held.engine != "interproc" else "derivation.lookup"):
            held.plain.artifacts(program, held.engine)
        fixpoint = "certifier.fixpoint" if held.engine == "interproc" else "tvla.fixpoint"
        with spans.span(fixpoint):
            held.plain.certify_program(program)
        counters["statements"] += count_statements(source)
    started = time.perf_counter()
    with spans.span("certify.emit"):
        report = held.session.certify(source)
    counters["certify_s"].append(time.perf_counter() - started)
    with spans.span("cert.encode"):
        text = report.certificate.text()
    return report, text, time.perf_counter() - started


def measure(held: Held, inputs: Inputs, traced: bool, speed) -> dict:
    """Run the fixed op sequence; return timings, counters, failures."""
    from repro.cert.model import ConformanceCertificate

    spans = Spans(traced)
    miss_s: List[float] = []
    near_s: List[float] = []
    near_certify_s: List[float] = []
    check_s: List[float] = []
    cert_bytes: List[int] = []
    hashes: List[str] = []
    alarms: Dict[str, set] = {}
    failures: List[str] = []
    counters = {"contexts": 0, "iterations": 0, "statements": 0, "certify_s": []}
    #: host-speed factors sampled before each client's block of ops and
    #: after the last one
    factors: List[float] = []
    attempted = 0

    def check(text: str) -> None:
        started = time.perf_counter()
        with spans.span("cert.decode"):
            certificate = ConformanceCertificate(json.loads(text))
        with spans.span("cert.check"):
            ok = held.checker.check(certificate).ok
        check_s.append(time.perf_counter() - started)
        if not ok:
            failures.append("checker rejected a certificate")

    def record(source: str, report, text: str) -> None:
        cert_bytes.append(len(text.encode("utf-8")))
        hashes.append(sha256_text(text))
        alarms[source] = {alarm.site_id for alarm in report.alarms}
        stats = report.stats or {}
        counters["contexts"] += int(stats.get("contexts", 0))
        counters["iterations"] += int(stats.get("iterations", 0))

    # a full collection before each client's ops, untimed: each block of
    # miss, near and two checks starts from a settled heap, so where a
    # collection of the growing memos lands does not depend on the client
    # order; the collections still count in gc.*
    wall_started = time.perf_counter()
    with GcMeter() as gc_meter:
        for source in inputs.clients:
            factors.append(speed.sample())
            attempted += 2
            gc.collect()
            with spans.span("op.miss"):
                report, text, seconds = _miss(held, source, spans, counters)
            miss_s.append(seconds)
            record(source, report, text)
            edited = inputs.near[source]
            attempted += 2
            started = time.perf_counter()
            with spans.span("op.near"):
                with spans.span("incr.certify"):
                    near = held.session.certify(
                        edited, incremental_from=report.certificate
                    )
                certify_near_s = time.perf_counter() - started
                with spans.span("cert.encode"):
                    near_text = near.certificate.text()
            near_s.append(time.perf_counter() - started)
            near_certify_s.append(certify_near_s)
            record(edited, near, near_text)
            # interproc has no incremental path and recertifies in full
            if held.engine != "interproc" and not near.stats.get("incremental"):
                failures.append("near-hit did not take the incremental path")
            for certified in (text, near_text):
                with spans.span("op.hit"):
                    check(certified)
        factors.append(speed.sample())
    wall_s = time.perf_counter() - wall_started
    certify_s = counters["certify_s"]

    for source, sites in alarms.items():  # untimed: ground truth
        if missed_errors(source, held.spec, sites):
            failures.append("alarm set misses a ground-truth error")

    def timings(miss, near, checks, certify) -> dict:
        return {
            "certify_per_s": len(certify) / sum(certify),
            "check_per_s": len(checks) / sum(checks),
            "req_per_s": attempted / (sum(miss) + sum(near) + sum(checks)),
            "hit_ms": 1000.0 * mean(checks),
            "miss_ms": 1000.0 * mean(miss),
            "near_ms": 1000.0 * mean(near),
        }

    blocks = between(factors)
    pairs = [factor for factor in blocks for _check in range(2)]
    e2e = timings(
        scaled(miss_s, blocks),
        scaled(near_s, blocks),
        scaled(check_s, pairs),
        scaled(certify_s, blocks),
    )
    e2e["cert_kb"] = sum(cert_bytes) / len(cert_bytes) / 1024.0
    e2e["peak_rss_mb"] = ru_maxrss_mb()
    ops = len(miss_s) + len(near_s) + len(check_s)
    # the per-layer metrics are as measured
    layers = timings(miss_s, near_s, check_s, certify_s)
    layers.update({
        "hit_p50_ms": 1000.0 * median(check_s),
        "miss_p50_ms": 1000.0 * median(miss_s),
        "near_p50_ms": 1000.0 * median(near_s),
        "serve.hit_p90_ms": 1000.0 * percentile(check_s, 90),
        "cert.kb": e2e["cert_kb"],
        "cert.check_s": median(check_s),
        # checks over the certifications (with emission) they verify
        "cert.check_over_certify": sum(check_s) / sum(certify_s + near_certify_s),
        "incr.near_s": median(near_s),
        "gc.s_per_op": gc_meter.seconds / ops,
        "gc.share": gc_meter.seconds / wall_s,
    })
    if traced:
        layers.update(_layer_split(held, spans, counters, len(miss_s)))
    return {
        "attempted": attempted,
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "work": {
            "cert_sha256": hashes,
            "certifier.contexts": counters["contexts"],
            "tvla.iterations": counters["iterations"],
            "cert.kb": round(e2e["cert_kb"], 6),
        },
    }


def _layer_split(held: Held, spans: Spans, counters: dict, misses: int) -> dict:
    self_s = spans.self_seconds()
    parse = self_s.get("lang.parse", 0.0)
    build = self_s.get("tvp.build", 0.0) + self_s.get("derivation.lookup", 0.0)
    fix_name = "certifier.fixpoint" if held.engine == "interproc" else "tvla.fixpoint"
    fixpoint = self_s.get(fix_name, 0.0)
    # certify-with-emission minus certify-without, same clients
    emit = max(0.0, self_s.get("certify.emit", 0.0) - parse - build - fixpoint)
    lowest, uncovered = spans.root_coverage()
    encodes = sum(1 for span in spans.spans if span[0] == "cert.encode")
    layers = {
        "lang.parse_s": parse / misses,
        "lang.kstmt_per_s": counters["statements"] / 1000.0 / parse if parse else 0.0,
        "derivation.derive_s": held.derive_s,
        "tvp.build_s": self_s.get("tvp.build", 0.0) / misses,
        "cert.emit_s": emit / misses,
        "cert.encode_s": self_s.get("cert.encode", 0.0) / encodes,
        "trace.coverage": lowest,
        "trace.overhead": uncovered,
    }
    if held.engine == "interproc":
        layers["certifier.fixpoint_s"] = fixpoint / misses
        layers["certifier.contexts"] = counters["contexts"]
    else:
        layers["tvla.fixpoint_s"] = fixpoint / misses
        layers["tvla.iterations"] = counters["iterations"]
    return layers


def run(workload: str, seed: int, seconds: float, traced: bool, clock, speed) -> dict:
    """The whole workload; ``clock`` times set-up (generation excluded)."""
    from repro.easl.library import get_spec

    spec = get_spec("cmp")
    clock.pause()
    inputs = make_inputs(workload, seed, seconds, spec)
    clock.resume()
    held = setup(workload, spec, inputs.warmup, traced)
    clock.pause()
    return measure(held, inputs, traced, speed)


def setup_only(workload: str, seed: int, seconds: float, clock) -> None:
    """What a set-up probe process runs: the same set-up, no ops."""
    from repro.easl.library import get_spec

    spec = get_spec("cmp")
    clock.pause()
    warmup = make_inputs(workload, seed, seconds, spec).warmup
    clock.resume()
    setup(workload, spec, warmup, traced=False)
    clock.pause()
