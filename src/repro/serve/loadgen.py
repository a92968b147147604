"""Load generator for the certification service (``repro bench serve``).

Four measured phases against a real daemon on localhost:

1. **cold** — every distinct client certified once; all store misses, so
   each request pays the full fixpoint (plus emit + store put).  Each
   client has its own variable universe, so the certificate the lineage
   index offers as a warm-start parent is never usable and every cold
   request really runs from scratch;
2. **hot** — concurrent tenants re-request the same clients; all store
   hits, so each request pays only the linear-pass certificate check;
3. **near** — one small edit of every client, naming the client's cold
   certificate as ``parent``; each must take the incremental path and
   yield exactly the bytes of a from-scratch certification;
4. **backpressure** — a deliberately tiny queue is flooded; the probe
   verifies refusals are clean 429s and that every *admitted* request
   still completes (accepted work is never dropped).

The headline numbers — committed as ``BENCH_serve.json`` — are the p50/
p99 latency per phase, the hot-phase throughput, the store hit rate, and
the check-on-hit vs certify-on-miss speedup, with a verdict-equality
gate: a hit's verdict and alarm set must be byte-identical to the cold
certification of the same client.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import make_client
from repro.cert import model
from repro.easl.library import get_spec
from repro.fuzz.edits import apply_edit
from repro.lang.types import parse_program
from repro.serve.http import ServeDaemon
from repro.serve.service import ServeConfig, TenantBudget


@dataclass(frozen=True)
class ServeBenchConfig:
    """Knobs for one ``repro bench serve`` run."""

    spec: str = "cmp"
    engine: str = "tvla-relational"
    clients: int = 8
    #: synthetic-client size (see :func:`repro.bench.synthetic.make_client`)
    num_sets: int = 2
    num_iters: int = 4
    num_ops: int = 96
    #: hot-phase request count (spread round-robin over the clients)
    hit_requests: int = 32
    concurrency: int = 8
    workers: int = 2
    #: ``"thread"`` or ``"process"`` (see :class:`ServeConfig.worker_mode`)
    worker_mode: str = "thread"
    queue_limit: int = 64
    #: backpressure probe: queue depth and burst size
    probe_queue_limit: int = 2
    probe_burst: int = 10
    tenants: Tuple[str, ...] = ("alpha", "beta")


# -- a minimal keep-alive HTTP/1.1 JSON client ------------------------------


class _Client:
    """One persistent connection to the daemon."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        if self._reader is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self._reader.readexactly(length) if length else b""
        return status, json.loads(data) if data else {}


# -- measurement helpers -----------------------------------------------------


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(
        len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
    )
    return ordered[rank]


def _latency_stats(samples: List[float]) -> Dict[str, float]:
    return {
        "count": len(samples),
        "p50_ms": round(percentile(samples, 0.50) * 1000, 3),
        "p99_ms": round(percentile(samples, 0.99) * 1000, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1000, 3),
        "max_ms": round(max(samples) * 1000, 3),
    }


def _verdict_signature(payload: dict) -> str:
    """The canonical verdict+alarm text used for hit-vs-cold equality."""
    verdict = dict(payload.get("verdict", {}))
    # the envelope's check-shaped verdicts carry checker bookkeeping the
    # cold path doesn't; compare the analysis-relevant claims only
    signature = {
        "subject": verdict.get("subject"),
        "engine": verdict.get("engine"),
        "certified": verdict.get("certified"),
        "partial": verdict.get("partial"),
        "alarms": payload.get("alarms", []),
    }
    return model.canonical_text(signature)


def _near_edit(source: str, seed: int, spec) -> str:
    """A deterministic one-statement variant of ``source`` (two adjacent
    statements swapped, or an ``if``/``while`` toggled) that parses and
    keeps the variable universe, so its parent stays usable."""
    rng = random.Random(seed)
    for _attempt in range(200):
        edited, edit = apply_edit(source, rng)
        if edit.kind not in ("swap", "toggle") or edited == source:
            continue
        try:
            parse_program(edited, spec)
        except Exception:  # the edit broke the client; try the next one
            continue
        return edited
    raise RuntimeError("no usable near edit for a client")


@dataclass
class _PhaseRecord:
    latencies: List[float] = field(default_factory=list)
    payloads: List[dict] = field(default_factory=list)


# -- the benchmark -----------------------------------------------------------


async def _drive(config: ServeBenchConfig) -> Dict[str, object]:
    # a distinct tag per client: the lineage index hands each cold miss
    # the latest certificate under the same spec/engine/options, and a
    # parent over another variable universe is declined, so the cold
    # phase stays a from-scratch fixpoint
    sources = [
        make_client(
            num_sets=config.num_sets,
            num_iters=config.num_iters,
            num_ops=config.num_ops,
            seed=101 + index,
            tag=f"c{index}",
        )
        for index in range(config.clients)
    ]
    spec = get_spec(config.spec)
    near_sources = [
        _near_edit(source, 1009 + index, spec)
        for index, source in enumerate(sources)
    ]

    daemon = ServeDaemon(
        config=ServeConfig(
            host="127.0.0.1",
            port=0,
            specs=(config.spec,),
            default_engine=config.engine,
            workers=config.workers,
            worker_mode=config.worker_mode,
            queue_limit=config.queue_limit,
        )
    )
    await daemon.start()
    port = daemon.port
    assert port is not None
    results: Dict[str, object] = {}
    async def run_phase(
        requests: List[dict], concurrency: int
    ) -> Tuple[_PhaseRecord, float]:
        """Fire one /certify per request (its ``source`` and, for a
        near-hit, ``parent``), `concurrency` at a time.

        All phases run through this same driver so their latency
        distributions are measured under the *same* offered concurrency
        — comparing an unloaded cold phase against a loaded hot one
        would skew either way.  Payloads come back in request order.
        """
        record = _PhaseRecord()
        record_lock = asyncio.Lock()
        queue: asyncio.Queue = asyncio.Queue()
        answers: Dict[int, dict] = {}
        for number, request in enumerate(requests):
            queue.put_nowait((number, request))

        async def worker(worker_id: int) -> None:
            connection = _Client("127.0.0.1", port)
            try:
                while True:
                    try:
                        number, request = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    body = {
                        **request,
                        "spec": config.spec,
                        "engine": config.engine,
                        "tenant": config.tenants[
                            worker_id % len(config.tenants)
                        ],
                    }
                    started = time.perf_counter()
                    status, payload = await connection.request(
                        "POST", "/certify", body
                    )
                    elapsed = time.perf_counter() - started
                    assert status == 200, f"request failed: {status} {payload}"
                    async with record_lock:
                        record.latencies.append(elapsed)
                        answers[number] = payload
            finally:
                await connection.close()

        phase_started = time.perf_counter()
        await asyncio.gather(
            *(worker(i) for i in range(concurrency))
        )
        record.payloads = [answers[number] for number in sorted(answers)]
        return record, time.perf_counter() - phase_started

    try:
        # derive the abstraction up front so the first cold request is a
        # fixpoint sample, not fixpoint + one-time derivation
        daemon.service.prewarm()

        # -- cold phase: every client once, all misses --------------------
        cold, _cold_seconds = await run_phase(
            [{"source": source} for source in sources], config.concurrency
        )
        cold_paths = [p["served"]["path"] for p in cold.payloads]

        # -- warm the checker's per-source build memo (not measured) ------
        await run_phase(
            [{"source": source} for source in sources], config.concurrency
        )

        # -- hot phase: concurrent tenants, all hits ----------------------
        hot, hot_seconds = await run_phase(
            [
                {"source": sources[number % len(sources)]}
                for number in range(config.hit_requests)
            ],
            config.concurrency,
        )

        # -- verdict equality: hit answers must match cold answers --------
        # join on the request content address (subjects all collide on
        # the synthetic clients' shared entry name)
        cold_signatures = {
            payload["served"]["key"]: _verdict_signature(payload)
            for payload in cold.payloads
        }
        verdicts_identical = all(
            _verdict_signature(payload)
            == cold_signatures[payload["served"]["key"]]
            for payload in hot.payloads
        )
        hit_paths = {p["served"]["path"] for p in hot.payloads}
        fixpoint_free_hits = all(
            "fixpoint" not in (p.get("timings", {}).get("phases") or {})
            for p in hot.payloads
        )

        stats_client = _Client("127.0.0.1", port)
        _status, stats = await stats_client.request("GET", "/stats")
        await stats_client.close()

        # -- near phase: one edit per client, warm-started from its own
        # cold certificate --------------------------------------------------
        near, _near_seconds = await run_phase(
            [
                {"source": source, "parent": payload["served"]["hash"]}
                for source, payload in zip(near_sources, cold.payloads)
            ],
            config.concurrency,
        )
        near_paths = [p["served"]["path"] for p in near.payloads]

        cold_stats = _latency_stats(cold.latencies)
        hot_stats = _latency_stats(hot.latencies)
        results.update(
            {
                "config": {
                    "spec": config.spec,
                    "engine": config.engine,
                    "clients": config.clients,
                    "client_ops": config.num_ops,
                    "hit_requests": config.hit_requests,
                    "concurrency": config.concurrency,
                    "workers": config.workers,
                    "worker_mode": config.worker_mode,
                    "queue_limit": config.queue_limit,
                },
                "cold_certify": cold_stats,
                "hot_check": hot_stats,
                "near_incremental": _latency_stats(near.latencies),
                "speedup_p50": (
                    round(cold_stats["p50_ms"] / hot_stats["p50_ms"], 2)
                    if hot_stats["p50_ms"] > 0
                    else None
                ),
                "throughput_rps": round(
                    len(hot.latencies) / hot_seconds, 2
                ),
                "hit_rate": stats["store"]["hit_rate"],
                "verdicts_identical": verdicts_identical,
                "cold_paths_were_certify": cold_paths
                == ["certify"] * len(cold_paths),
                "hits_were_check": hit_paths == {"check"},
                "hits_skipped_fixpoint": fixpoint_free_hits,
                "near_paths_were_incremental": near_paths
                == ["incremental"] * len(near_paths),
            }
        )
    finally:
        await daemon.stop()

    # the bytes a from-scratch certification of each edit produces (the
    # daemon's default options), compared by content address
    scratch = CertifySession(spec, options=CertifyOptions(emit_certificate=True))
    results["near_bytes_identical"] = all(
        payload["served"]["hash"]
        == model.sha256_text(
            scratch.certify(source, config.engine).certificate.text()
        )
        for source, payload in zip(near_sources, near.payloads)
    )

    results["backpressure"] = await _probe_backpressure(config)
    return results


async def _probe_backpressure(config: ServeBenchConfig) -> Dict[str, object]:
    """Flood a tiny queue; verify 429s are clean and admitted work lands."""
    daemon = ServeDaemon(
        config=ServeConfig(
            host="127.0.0.1",
            port=0,
            specs=(config.spec,),
            default_engine=config.engine,
            workers=1,
            queue_limit=config.probe_queue_limit,
            default_budget=TenantBudget(),
        )
    )
    await daemon.start()
    port = daemon.port
    assert port is not None
    # small client: the point is queue dynamics, not fixpoint weight
    source = make_client(num_ops=10, seed=7)
    try:
        async def fire(index: int) -> Tuple[int, dict]:
            connection = _Client("127.0.0.1", port)
            try:
                return await connection.request(
                    "POST",
                    "/certify",
                    {
                        "source": source,
                        "spec": config.spec,
                        "engine": config.engine,
                        "tenant": f"burst-{index}",
                    },
                )
            finally:
                await connection.close()

        outcomes = await asyncio.gather(
            *(fire(index) for index in range(config.probe_burst))
        )
        accepted = [payload for status, payload in outcomes if status == 200]
        rejected = [payload for status, payload in outcomes if status == 429]
        completed_ok = sum(
            1
            for payload in accepted
            if payload.get("verdict", {}).get("status")
            in ("ok", "breached", "accepted")
        )
        return {
            "burst": config.probe_burst,
            "queue_limit": config.probe_queue_limit,
            "accepted": len(accepted),
            "rejected_429": len(rejected),
            "accounted": len(accepted) + len(rejected) == config.probe_burst,
            "accepted_all_completed": completed_ok == len(accepted),
            "rejections_carry_retry_after": all(
                payload.get("rejected", {}).get("retry_after") is not None
                for payload in rejected
            ),
        }
    finally:
        await daemon.stop()


def run_serve_bench(
    config: Optional[ServeBenchConfig] = None,
) -> Dict[str, object]:
    """Run the full serve benchmark; returns the JSON-ready result dict."""
    return asyncio.run(_drive(config or ServeBenchConfig()))


def format_serve_bench(results: Dict[str, object]) -> str:
    cold = results["cold_certify"]
    hot = results["hot_check"]
    near = results["near_incremental"]
    backpressure = results["backpressure"]
    lines = [
        "serve benchmark "
        f"({results['config']['clients']} clients x "
        f"{results['config']['client_ops']} ops, "
        f"{results['config']['hit_requests']} hot requests, "
        f"concurrency {results['config']['concurrency']})",
        f"  cold certify  p50 {cold['p50_ms']:9.1f} ms   "
        f"p99 {cold['p99_ms']:9.1f} ms",
        f"  hot check     p50 {hot['p50_ms']:9.1f} ms   "
        f"p99 {hot['p99_ms']:9.1f} ms",
        f"  near incr     p50 {near['p50_ms']:9.1f} ms   "
        f"p99 {near['p99_ms']:9.1f} ms",
        f"  speedup (p50)     {results['speedup_p50']}x   "
        f"throughput {results['throughput_rps']} req/s   "
        f"hit rate {results['hit_rate']}",
        f"  verdicts identical: {results['verdicts_identical']}   "
        f"hits skipped fixpoint: {results['hits_skipped_fixpoint']}",
        f"  cold all certify: {results['cold_paths_were_certify']}   "
        f"near all incremental: {results['near_paths_were_incremental']}   "
        f"near bytes identical: {results['near_bytes_identical']}",
        f"  backpressure: {backpressure['rejected_429']}/{backpressure['burst']} "
        f"refused at queue depth {backpressure['queue_limit']}, "
        f"accepted all completed: {backpressure['accepted_all_completed']}",
    ]
    return "\n".join(lines)


def serve_bench_ok(
    results: Dict[str, object], *, min_speedup: float = 5.0
) -> bool:
    """The CI gate over one benchmark run."""
    backpressure = results["backpressure"]
    return bool(
        results["verdicts_identical"]
        and results["cold_paths_were_certify"]
        and results["hits_were_check"]
        and results["hits_skipped_fixpoint"]
        and results["near_paths_were_incremental"]
        and results["near_bytes_identical"]
        and results["speedup_p50"] is not None
        and results["speedup_p50"] >= min_speedup
        and backpressure["accounted"]
        and backpressure["accepted_all_completed"]
    )
