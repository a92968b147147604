"""The ``serve-mixed`` workload: a ``repro serve`` daemon under a closed loop.

The daemon runs as a subprocess (``--prewarm``, an on-disk ``--store``
in a fresh directory, the default worker mode).  The generator sends one
fixed sequence over one keep-alive connection and waits for each
answer before the next request.  Block ``b`` sends the block's new work
and then re-sends, as exact hits, everything certified in block ``b-1``::

    [miss S (even b only)], miss H_b, near N_b, hit ..., hit ...

and a last block with the near-hit of the last heap client and its hits.

``S`` are new shallow (interproc) clients, ``H`` new heap (TVLA) clients
and ``N_b`` one edit of ``H_(b-1)`` naming that certificate's hash as
``parent``.  Every certified client is re-sent once, after its own
answer arrived, and requests leave ``engine`` at ``auto`` (a miss never
warm-starts from another client's lineage).  Heap clients are two thirds
of the misses, so the (per-layer) latency medians fall inside one cost
cluster.

One connection, not two: with two, a hit's latency depends on whether
it happens to queue behind the other connection's miss on the spec
session lock, which moved per-run medians by up to 40%.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    GcMeter,
    between,
    distinct_sources,
    fixed_order,
    mean,
    median,
    missed_errors,
    near_edit,
    percentile,
    proc_status_mb,
    sub_seed,
    work_root,
)

SHALLOW_STMTS = 200
HEAP_STMTS = 24
#: blocks per measured second on a 2-CPU x86 host
BLOCKS_PER_SECOND = 0.8
#: daemons started for the set-up median (the last one is measured)
SETUP_SAMPLES = 3
#: requests between two host-speed samples
SAMPLE_EVERY = 4


@dataclass
class Request:
    kind: str  # "miss" | "hit" | "near"
    source: str
    #: index of the request whose answer this one refers to: the miss
    #: or near a hit repeats, or the heap miss a near edits
    refers: Optional[int] = None


def make_sequence(seed: int, seconds: float, spec) -> Tuple[List[str], List[Request]]:
    """(warm-up sources, the request sequence)."""
    from repro.bench.synthetic import make_heap_chain, make_shared_library

    blocks = max(2, round(seconds * BLOCKS_PER_SECOND))
    taken: set = set()
    # fixed clients with fixed edits in a fixed order, as in inproc; the
    # seed picks the warm-up clients
    heap = distinct_sources(lambda i: make_heap_chain(HEAP_STMTS, seed=i), blocks, taken)
    edits = {
        source: near_edit(source, sub_seed(0, "edit", i), spec, taken)
        for i, source in enumerate(heap)
    }
    heap = fixed_order(heap)
    shallow = fixed_order(
        distinct_sources(
            lambda i: make_shared_library(SHALLOW_STMTS, seed=i, client_seed=i),
            (blocks + 1) // 2,
            taken,
        )
    )
    warmup = distinct_sources(
        lambda i: make_shared_library(
            SHALLOW_STMTS, seed=sub_seed(seed, "warm-shallow", i)
        ),
        1,
        taken,
    ) + distinct_sources(
        lambda i: make_heap_chain(HEAP_STMTS, seed=sub_seed(seed, "warm-heap", i)),
        1,
        taken,
    )
    seq: List[Request] = []
    previous: List[int] = []  # requests certified in the previous block
    last_heap: Optional[int] = None
    for block in range(blocks):
        certified = []
        if block % 2 == 0:
            seq.append(Request("miss", shallow[block // 2]))
            certified.append(len(seq) - 1)
        seq.append(Request("miss", heap[block]))
        certified.append(len(seq) - 1)
        if last_heap is not None:
            seq.append(Request("near", edits[seq[last_heap].source], last_heap))
            certified.append(len(seq) - 1)
        last_heap = certified[1] if block % 2 == 0 else certified[0]
        for index in previous:
            seq.append(Request("hit", seq[index].source, index))
        previous = certified
    # the last heap client's edit too: every run, whatever its order,
    # sends the same misses, near-hits and hits
    seq.append(Request("near", edits[seq[last_heap].source], last_heap))
    previous.append(len(seq) - 1)
    for index in previous:
        seq.append(Request("hit", seq[index].source, index))
    return warmup, seq


class Daemon:
    """One ``repro serve`` subprocess with its own store directory."""

    def __init__(self, workdir: str) -> None:
        self.store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--prewarm",
                "--specs",
                "cmp",
                "--store",
                self.store,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            status, _body = _get(conn, "/healthz")
        finally:
            conn.close()
        if status != 200:
            self.stop()
            raise RuntimeError("daemon /healthz did not answer 200")

    def status_mb(self, field: str) -> float:
        return proc_status_mb(self.proc.pid, field)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _get(conn, path: str) -> Tuple[int, dict]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _post(conn, body: dict) -> Tuple[int, dict]:
    data = json.dumps(body).encode("utf-8")
    conn.request(
        "POST", "/certify", body=data, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    payload = response.read()
    try:
        return response.status, json.loads(payload)
    except ValueError:
        return response.status, {}


def start_ready(workdir: str, warmup: List[str]) -> Tuple[Daemon, float]:
    """Spawn a daemon and send the warm-up misses; (daemon, seconds)."""
    started = time.perf_counter()
    daemon = Daemon(workdir)
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=120)
    try:
        for source in warmup:
            status, _payload = _post(conn, {"source": source, "spec": "cmp"})
            if status != 200:
                daemon.stop()
                raise RuntimeError(f"warm-up request answered {status}")
    finally:
        conn.close()
    return daemon, time.perf_counter() - started


@dataclass
class Answer:
    status: int
    latency: float
    payload: dict
    #: host-speed factor of the samples taken around the request
    factor: float


def drive(daemon: "Daemon", seq: List[Request], speed) -> List[Answer]:
    """The closed loop: send, wait for the answer, repeat; the host's
    speed is sampled between groups of requests, while the daemon idles,
    on the CPU the daemon last ran on."""
    out: List[Answer] = []
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=120)
    factors: List[float] = []
    try:
        for index, request in enumerate(seq):
            if index % SAMPLE_EVERY == 0:
                factors.append(speed.sample(daemon.proc.pid))
            body = {"source": request.source, "spec": "cmp"}
            if request.kind == "near":
                parent = out[request.refers].payload.get("served", {}).get("hash")
                body["parent"] = parent
            started = time.perf_counter()
            status, payload = _post(conn, body)
            out.append(Answer(status, time.perf_counter() - started, payload, 0.0))
        factors.append(speed.sample(daemon.proc.pid))
    finally:
        conn.close()
    for index, factor in enumerate(between(factors)):
        for answer in out[index * SAMPLE_EVERY : (index + 1) * SAMPLE_EVERY]:
            answer.factor = factor
    return out


INTENDED = {"miss": "certify", "hit": "check", "near": "incremental"}


def verify(seq: List[Request], answers: List[Answer], spec) -> List[str]:
    """Failures among the answers (untimed)."""
    failures = []
    for request, answer in zip(seq, answers):
        payload = answer.payload
        if answer.status != 200:
            failures.append(f"{request.kind} answered HTTP {answer.status}")
            continue
        if payload.get("served", {}).get("path") != INTENDED[request.kind]:
            failures.append(f"{request.kind} served on the wrong path")
            continue
        if request.kind == "hit":
            verdict = payload.get("verdict", {})
            if not verdict.get("ok"):
                failures.append("checker rejected a stored certificate")
                continue
            first = answers[request.refers].payload
            if payload.get("alarms") != first.get("alarms") or verdict.get(
                "certified"
            ) != first.get("verdict", {}).get("certified"):
                failures.append("hit verdict differs from its miss verdict")
            continue
        sites = {alarm["site_id"] for alarm in payload.get("alarms", [])}
        if missed_errors(request.source, spec, sites):
            failures.append("alarm set misses a ground-truth error")
    if len(answers) < len(seq):
        failures.extend(["request never answered"] * (len(seq) - len(answers)))
    return failures


def _dir_kb(path: str) -> float:
    total = 0
    for folder, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total / 1024.0


def run(workload: str, seed: int, seconds: float, traced: bool, clock, speed) -> dict:
    from repro.easl.library import get_spec

    spec = get_spec("cmp")
    clock.pause()
    warmup, seq = make_sequence(seed, seconds, spec)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=work_root())
    daemon: Optional[Daemon] = None
    try:
        setups = []
        for _sample in range(SETUP_SAMPLES - 1):
            probe, took = start_ready(workdir, warmup)
            probe.stop()
            setups.append(took)
        daemon, took = start_ready(workdir, warmup)
        setups.append(took)
        rss_ready = daemon.status_mb("VmRSS")
        with GcMeter() as gc_meter:
            loop_started, sampling = time.perf_counter(), speed.spent
            answers = drive(daemon, seq, speed)
            loop_s = time.perf_counter() - loop_started - (speed.spent - sampling)
        peak_mb = daemon.status_mb("VmHWM")
        rss_growth = daemon.status_mb("VmRSS") - rss_ready
        daemon.stop()
        store_kb = _dir_kb(daemon.store)
        daemon = None
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = verify(seq, answers, spec)
    by_kind: Dict[str, List[Answer]] = {"miss": [], "hit": [], "near": []}
    paths = {"check": 0, "certify": 0, "incremental": 0}
    hashes: List[Optional[str]] = []
    for request, answer in zip(seq, answers):
        by_kind[request.kind].append(answer)
        served = answer.payload.get("served", {})
        if served.get("path") in paths:
            paths[served["path"]] += 1
        if request.kind != "hit":
            hashes.append(served.get("hash"))
    attempted = len(seq)

    def latencies(kind: str, scale: bool = False) -> List[float]:
        return [a.latency * (a.factor if scale else 1.0) for a in by_kind[kind]]

    def service(kind: str, scale: bool = False) -> List[float]:
        return [
            float(a.payload.get("timings", {}).get("seconds") or 0.0)
            * (a.factor if scale else 1.0)
            for a in by_kind[kind]
        ]

    def timings(scale: bool) -> dict:
        # the loop's few milliseconds between requests count at the
        # requests' mean factor
        loop_factor = (
            sum(a.latency * a.factor for a in answers) / sum(a.latency for a in answers)
            if scale
            else 1.0
        )
        return {
            "certify_per_s": len(service("miss")) / sum(service("miss", scale)),
            "check_per_s": len(service("hit")) / sum(service("hit", scale)),
            "req_per_s": attempted / (loop_s * loop_factor),
            "hit_ms": 1000.0 * mean(latencies("hit", scale)),
            "miss_ms": 1000.0 * mean(latencies("miss", scale)),
            "near_ms": 1000.0 * mean(latencies("near", scale)),
        }

    cert_kb = [
        float(a.payload.get("certificate", {}).get("bytes", 0)) / 1024.0
        for a in by_kind["miss"] + by_kind["near"]
        if a.payload.get("certificate")
    ]
    e2e = timings(scale=True)
    e2e["setup_s"] = median(setups)
    e2e["cert_kb"] = sum(cert_kb) / max(1, len(cert_kb))
    e2e["peak_rss_mb"] = peak_mb
    # the per-layer metrics are as measured
    layers: Dict[str, float] = timings(scale=False)
    layers.update({
        "hit_p50_ms": 1000.0 * median(latencies("hit")),
        "miss_p50_ms": 1000.0 * median(latencies("miss")),
        "near_p50_ms": 1000.0 * median(latencies("near")),
        "serve.hit_p90_ms": 1000.0 * percentile(latencies("hit"), 90),
        "cert.kb": e2e["cert_kb"],
        "store.kb": store_kb,
        "serve.rss_growth_mb": rss_growth,
        "gc.s_per_op": gc_meter.seconds / attempted,
        "gc.share": gc_meter.seconds / loop_s,
    })
    # share of the loop's time spent inside its requests
    covered = sum(a.latency for a in answers) / loop_s
    layers["trace.coverage"] = covered
    layers["trace.overhead"] = 1.0 - covered
    for kind, path in (("hit", "check"), ("miss", "certify"), ("near", "incremental")):
        service_ms = 1000.0 * median(service(kind))
        layers[f"serve.service_ms.{kind}"] = service_ms
        waits = [1000.0 * (a - s) for a, s in zip(latencies(kind), service(kind))]
        layers[f"serve.wait_ms.{kind}"] = median(waits)
        layers[f"serve.paths.{path}"] = paths[path]
    return {
        "attempted": attempted,
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "work": {
            "cert_sha256": hashes,
            "serve.paths": paths,
            "cert.kb": round(e2e["cert_kb"], 6),
        },
    }
