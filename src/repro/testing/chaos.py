"""Process-level chaos harness for the stateful layers.

The store, the serve daemon and the batch runner all promise the same
thing: *no fault schedule makes them lie*.  A crashed worker, a torn
write, a full disk or a jumping clock may cost a retry, a cache miss or
a resumed run — but never a certificate that fails the linear checker,
and never a verdict that differs from a fault-free run.  This module
makes that promise executable:

* :class:`FaultyIO` — a :class:`~repro.store.io.StoreIO` shim that
  kills the "process" after a byte budget (the temp file keeps exactly
  the bytes that made it out — a torn write), or fails chosen
  operations with ``ENOSPC``/``EIO``.  Deterministic: the fault point
  is a parameter, not a dice roll at run time.
* :class:`ClockJumper` — an injectable clock that leaps forwards or
  backwards between operations (NTP step, suspended laptop).
* **Scenarios** — one per layer.  Each derives its fault schedule from
  a seed, runs the layer under that schedule, recovers, and checks the
  invariants against a fault-free reference execution of the same
  work.  Violations come back as strings; an empty list is survival.
* :func:`run_campaign` — N seeded scenarios across the requested
  layers (the CI ``chaos-gate`` runs 100).  Exit status of the
  ``repro chaos`` CLI is 1 the moment any schedule produces a
  violation.

The kill simulation is in-process (an exception no store code catches)
for the store layer, a real ``SIGKILL`` of a worker process for the
serve layer, and a real ``SIGKILL`` of a whole child runner for the
batch layer — each layer is exercised at the granularity it actually
fails at in production.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import multiprocessing
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.store.io import StoreIO

try:  # pragma: no cover - POSIX everywhere we run
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: suite programs the scenarios certify (small, mixed verdicts)
CORPUS_PROGRAMS = ("fig3", "sec3_loop", "alias_chain")
#: scenario weights per campaign cycle: store faults are cheap to
#: simulate, so they dominate; serve/batch each bring real processes
LAYER_CYCLE = (
    "store", "store", "store", "store",
    "store", "store", "store", "store",
    "serve", "batch",
)


class SimulatedCrash(BaseException):
    """The simulated process died at an I/O boundary.

    Derives from ``BaseException`` so no ``except Exception`` /
    ``except OSError`` inside the code under test can swallow it — a
    real SIGKILL is not catchable either.
    """


class FaultyIO(StoreIO):
    """Deterministic fault injection at the store's I/O boundary.

    ``kill_after_bytes`` models a process killed mid-write: once the
    byte budget is spent the current write stops partway (leaving a
    torn temp file) and **every** later operation raises
    :class:`SimulatedCrash` — a dead process performs no more I/O.

    ``fail_ops`` maps 1-based operation indices (every ``_pre_op``
    counts) to ``errno`` values; the matching operation raises
    ``OSError`` but the process lives on — a full disk or flaky medium,
    not a crash.
    """

    def __init__(
        self,
        *,
        kill_after_bytes: Optional[int] = None,
        fail_ops: Optional[Dict[int, int]] = None,
        fsync: bool = False,
    ) -> None:
        super().__init__(fsync=fsync)
        self.kill_after_bytes = kill_after_bytes
        self.fail_ops = dict(fail_ops or {})
        self.bytes_written = 0
        self.ops = 0
        self.dead = False

    def _pre_op(self, op: str, path: str) -> None:
        if self.dead:
            raise SimulatedCrash(f"process is dead; refused {op} {path}")
        self.ops += 1
        code = self.fail_ops.get(self.ops)
        if code is not None:
            raise OSError(code, os.strerror(code), path)

    def _write(self, fd: int, data: bytes) -> None:
        if self.dead:
            raise SimulatedCrash("process is dead; refused write")
        if self.kill_after_bytes is not None:
            remaining = self.kill_after_bytes - self.bytes_written
            if remaining < len(data):
                if remaining > 0:
                    os.write(fd, data[:remaining])
                    self.bytes_written += remaining
                self.dead = True
                raise SimulatedCrash(
                    f"killed mid-write at byte {self.kill_after_bytes}"
                )
        os.write(fd, data)
        self.bytes_written += len(data)


class ClockJumper:
    """An injectable clock whose time can step, either direction."""

    def __init__(self, start: float = 1_700_000_000.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def jump(self, delta: float) -> None:
        self.now += delta


@dataclass
class ScenarioResult:
    """One schedule's outcome: the fault applied and what broke."""

    layer: str
    seed: int
    kind: str
    violations: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        return {
            "layer": self.layer,
            "seed": self.seed,
            "kind": self.kind,
            "ok": self.ok,
            "violations": list(self.violations),
            "notes": dict(self.notes),
        }


# -- shared corpus -------------------------------------------------------------

_CORPUS: Optional[List[Tuple[str, object]]] = None


def _corpus() -> List[Tuple[str, object]]:
    """(name, certificate) pairs, certified once per process."""
    global _CORPUS
    if _CORPUS is None:
        from repro.api import CertifyOptions, CertifySession
        from repro.easl.library import get_spec
        from repro.suite import by_name

        session = CertifySession(
            get_spec("cmp"), options=CertifyOptions(emit_certificate=True)
        )
        built = []
        for name in CORPUS_PROGRAMS:
            report = session.certify(by_name(name).source, "fds")
            assert report.certificate is not None
            built.append((name, report.certificate))
        _CORPUS = built
    return _CORPUS


_CHECKER = None


def _checker():
    global _CHECKER
    if _CHECKER is None:
        from repro.cert.check import CertificateChecker

        _CHECKER = CertificateChecker()
    return _CHECKER


# -- store scenario ------------------------------------------------------------

STORE_FAULT_KINDS = ("kill-write", "enospc", "eio", "clock-jump")


def run_store_scenario(seed: int, workdir: str) -> ScenarioResult:
    """Interrupt a sequence of puts, recover, and compare byte-for-byte.

    Invariants: after :meth:`recover` every surviving object is
    byte-identical to the fault-free put and passes the linear checker;
    re-putting the interrupted work converges to exactly the fault-free
    store; a second recovery finds nothing left to repair.
    """
    from repro.cert.model import sha256_text
    from repro.store import CertificateStore
    from repro.store.cas import certificate_request_key

    rng = random.Random(seed)
    kind = rng.choice(STORE_FAULT_KINDS)
    result = ScenarioResult(layer="store", seed=seed, kind=kind)
    corpus = _corpus()
    reference = {
        certificate_request_key(cert): cert.text() for _, cert in corpus
    }
    total_bytes = sum(len(text.encode("utf-8")) for text in reference.values())

    if kind == "kill-write":
        # the +512 tail covers pointer files and journal records, so
        # some schedules die in bookkeeping rather than object payload
        io: StoreIO = FaultyIO(
            kill_after_bytes=rng.randrange(1, 2 * total_bytes + 512)
        )
    elif kind == "enospc":
        io = FaultyIO(fail_ops={rng.randrange(1, 40): errno.ENOSPC})
    elif kind == "eio":
        io = FaultyIO(fail_ops={rng.randrange(1, 40): errno.EIO})
    else:
        io = StoreIO(fsync=False)

    clock = ClockJumper()
    root = os.path.join(workdir, f"store-{seed}")
    store = CertificateStore(root, io=io, clock=clock)
    interrupted = 0
    for _, cert in corpus:
        try:
            store.put(cert)
        except SimulatedCrash:
            interrupted += 1
            break  # the process is gone; nothing further happens
        except OSError:
            interrupted += 1  # disk error: process lives, put failed
        if kind == "clock-jump":
            clock.jump(rng.choice((-3600.0, -1.0, 86_400.0, 3.5)))
    result.notes["interrupted_puts"] = interrupted

    # "reboot": a clean process recovers the same root
    store = CertificateStore(root, io=StoreIO(fsync=False))
    report = store.recover(verify_objects=True)
    result.notes["recovery"] = report.to_json()
    checker = _checker()
    for key, text in reference.items():
        got = store.get(key)
        if got is None:
            continue  # a miss is allowed; a lie is not
        if got.text() != text:
            result.violations.append(
                f"store[{key[:12]}] differs from fault-free bytes"
            )
        elif not checker.check(got).ok:
            result.violations.append(
                f"store[{key[:12]}] served a checker-rejected certificate"
            )

    # finishing the interrupted work must converge on the reference
    for _, cert in corpus:
        store.put(cert)
    for key, text in reference.items():
        got = store.get(key)
        if got is None:
            result.violations.append(f"store[{key[:12]}] lost after re-put")
        elif got.text() != text:
            result.violations.append(
                f"store[{key[:12]}] not byte-identical after re-put"
            )
        elif sha256_text(got.text()) != sha256_text(text):
            result.violations.append(f"store[{key[:12]}] hash drift")
    if kind == "clock-jump":
        # eviction under a jumping clock may forget, never corrupt
        store.gc(max_entries=1)
        for key, text in reference.items():
            got = store.get(key)
            if got is not None and got.text() != text:
                result.violations.append(
                    f"store[{key[:12]}] corrupted by gc under clock jumps"
                )
        for _, cert in corpus:
            store.put(cert)
    final = store.recover(verify_objects=True)
    if not final.clean:
        result.violations.append(
            f"recovery not idempotent: {final.to_json()}"
        )
    return result


# -- serve scenario ------------------------------------------------------------

#: set by the serve scenario before the worker pool forks; the crashy
#: wrapper delegates here after deciding not to die
_REAL_POOL_CERTIFY = None


def _take_kill_token(path: str) -> bool:
    """Atomically consume one kill token from a counter file."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        raw = os.read(fd, 64).decode("ascii", "replace").strip()
        count = int(raw or "0")
        if count <= 0:
            return False
        os.lseek(fd, 0, os.SEEK_SET)
        os.ftruncate(fd, 0)
        os.write(fd, str(count - 1).encode("ascii"))
        return True
    finally:
        os.close(fd)


def _crashy_pool_certify(control_path: str, *args):
    """Worker entry that SIGKILLs itself while kill tokens remain."""
    if _take_kill_token(control_path):
        os.kill(os.getpid(), signal.SIGKILL)
    assert _REAL_POOL_CERTIFY is not None
    return _REAL_POOL_CERTIFY(*args)


async def _serve_scenario(seed: int, workdir: str) -> ScenarioResult:
    import repro.serve.service as service_module
    from repro.serve.service import CertificationService, ServeConfig
    from repro.serve.supervisor import POISON_THRESHOLD
    from repro.suite import by_name

    global _REAL_POOL_CERTIFY
    rng = random.Random(seed)
    kills = rng.choice((1, 2))
    kind = "worker-kill" if kills == 1 else "poisoned-request"
    result = ScenarioResult(layer="serve", seed=seed, kind=kind)
    result.notes["kills"] = kills

    victim = by_name(CORPUS_PROGRAMS[seed % len(CORPUS_PROGRAMS)])
    bystander = by_name(
        CORPUS_PROGRAMS[(seed + 1) % len(CORPUS_PROGRAMS)]
    )
    # the fault-free verdicts the daemon must reproduce under fire
    from repro.api import CertifySession
    from repro.easl.library import get_spec

    session = CertifySession(get_spec("cmp"))
    expected = {
        victim.name: session.certify(victim.source, "fds").certified,
        bystander.name: session.certify(bystander.source, "fds").certified,
    }

    control = os.path.join(workdir, f"serve-{seed}.tokens")
    with open(control, "w") as handle:
        handle.write(str(kills))
    _REAL_POOL_CERTIFY = service_module._pool_certify
    patched = functools.partial(_crashy_pool_certify, control)
    service_module._pool_certify = patched
    service = CertificationService(
        ServeConfig(
            port=0,
            specs=("cmp",),
            workers=1,
            worker_mode="process",
            queue_limit=8,
        )
    )
    try:
        await service.start()
        status, payload = await service.certify(
            {"source": victim.source, "spec": "cmp", "engine": "fds"}
        )
        verdict = (payload.get("verdict") or {}) if isinstance(
            payload, dict
        ) else {}
        if kills < POISON_THRESHOLD:
            if status != 200:
                result.violations.append(
                    f"retried request answered {status}, expected 200"
                )
            elif verdict.get("certified") != expected[victim.name]:
                result.violations.append(
                    "verdict after worker kill differs from fault-free: "
                    f"{verdict.get('certified')!r} != "
                    f"{expected[victim.name]!r}"
                )
        else:
            if status != 500:
                result.violations.append(
                    f"poisoned request answered {status}, expected 500"
                )
        # the daemon itself must have survived either way
        health = service.healthz()
        if health.get("state") != "ok":
            result.violations.append(
                f"daemon unhealthy after fault: {health.get('state')!r}"
            )
        status2, payload2 = await service.certify(
            {"source": bystander.source, "spec": "cmp", "engine": "fds"}
        )
        verdict2 = (payload2.get("verdict") or {}) if isinstance(
            payload2, dict
        ) else {}
        if status2 != 200:
            result.violations.append(
                f"bystander request answered {status2}, expected 200"
            )
        elif verdict2.get("certified") != expected[bystander.name]:
            result.violations.append(
                "bystander verdict differs from fault-free run"
            )
        result.notes["supervisor"] = (
            service._supervisor.to_json()
            if service._supervisor is not None
            else None
        )
        await service.stop()
    finally:
        service_module._pool_certify = _REAL_POOL_CERTIFY
        _REAL_POOL_CERTIFY = None
    return result


def run_serve_scenario(seed: int, workdir: str) -> ScenarioResult:
    """Kill certify workers under a live service; verdicts must hold.

    One kill: the supervisor restarts the pool and retries — the client
    sees the fault-free verdict, just later.  Two kills of the same
    request: quarantined with a clean 500 while the daemon stays up and
    other requests keep getting fault-free verdicts.
    """
    return asyncio.run(_serve_scenario(seed, workdir))


# -- batch scenario ------------------------------------------------------------


def _batch_jobs():
    from repro.runtime.batch import JobSpec
    from repro.suite import by_name

    return [
        JobSpec(
            name=name,
            spec="cmp",
            source=by_name(name).source,
            engine="fds",
        )
        for name in CORPUS_PROGRAMS
    ]


def _batch_child(
    checkpoint_dir: str, certs_dir: str, run_id: str, delay: float
) -> None:  # pragma: no cover - exercised via SIGKILLed child processes
    import repro.runtime.batch as batch_module

    if delay > 0:
        # jobs this small finish in milliseconds; stretch the window
        # between completions so the parent's SIGKILL lands *mid-run*
        # rather than after a photo finish
        real_worker_run = batch_module._worker_run

        def slowed(item):
            outcome = real_worker_run(item)
            time.sleep(delay)
            return outcome

        batch_module._worker_run = slowed
    batch_module.BatchRunner(
        _batch_jobs(),
        max_workers=1,
        emit_certs_dir=certs_dir,
        checkpoint_dir=checkpoint_dir,
        run_id=run_id,
    ).run()


def _journal_lines(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())
    except OSError:
        return 0


def run_batch_scenario(seed: int, workdir: str) -> ScenarioResult:
    """SIGKILL a checkpointing batch run, resume, compare byte-for-byte.

    The resumed run must reach the same statuses and emit byte-identical
    certificates to an uninterrupted reference run of the same manifest.
    """
    from repro.runtime.batch import BatchRunner

    rng = random.Random(seed)
    kill_after = rng.choice((1, 2, len(CORPUS_PROGRAMS)))
    result = ScenarioResult(
        layer="batch", seed=seed, kind=f"sigkill-after-{kill_after}"
    )
    base = os.path.join(workdir, f"batch-{seed}")
    ref_certs = os.path.join(base, "ref-certs")
    chaos_certs = os.path.join(base, "chaos-certs")
    checkpoint_dir = os.path.join(base, "checkpoint")
    run_id = "chaos"

    reference = BatchRunner(
        _batch_jobs(), max_workers=1, emit_certs_dir=ref_certs
    ).run()
    ref_status = {r.job.name: r.status for r in reference.results}
    ref_bytes = {}
    for entry in sorted(os.listdir(ref_certs)):
        with open(os.path.join(ref_certs, entry), "rb") as handle:
            ref_bytes[entry] = handle.read()

    context = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    child = context.Process(
        target=_batch_child,
        args=(checkpoint_dir, chaos_certs, run_id, 0.05),
    )
    child.start()
    journal = os.path.join(checkpoint_dir, f"{run_id}.jsonl")
    deadline = time.monotonic() + 120.0
    while (
        child.is_alive()
        and _journal_lines(journal) < kill_after
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    if child.is_alive():
        assert child.pid is not None
        os.kill(child.pid, signal.SIGKILL)
    child.join(30.0)
    result.notes["journaled_before_kill"] = _journal_lines(journal)

    resumed = BatchRunner(
        _batch_jobs(),
        max_workers=1,
        emit_certs_dir=chaos_certs,
        checkpoint_dir=checkpoint_dir,
        run_id=run_id,
        resume=True,
    ).run()
    result.notes["resumed_jobs"] = resumed.resumed
    got_status = {r.job.name: r.status for r in resumed.results}
    if got_status != ref_status:
        result.violations.append(
            f"resumed statuses {got_status} != fault-free {ref_status}"
        )
    for entry, expected in ref_bytes.items():
        path = os.path.join(chaos_certs, entry)
        try:
            with open(path, "rb") as handle:
                actual = handle.read()
        except OSError:
            result.violations.append(f"certificate {entry} missing on resume")
            continue
        if actual != expected:
            result.violations.append(
                f"certificate {entry} not byte-identical after resume"
            )
    return result


# -- summary-db scenario -------------------------------------------------------

#: a procedure-rich client small enough to certify in well under a
#: second yet big enough that populating the summary DB spans many puts
_SUMMARYDB_TARGET = 240


def _summarydb_program() -> str:
    from repro.bench.synthetic import make_shared_library

    return make_shared_library(_SUMMARYDB_TARGET, seed=7)


def _summarydb_certify(db_path: str, *, io: Optional[StoreIO] = None):
    """One interproc certification against ``db_path``; returns
    (certificate text, sorted alarm lines)."""
    from repro.api import CertifyOptions, CertifySession
    from repro.easl.library import get_spec
    from repro.store.summary import SummaryStore

    session = CertifySession(
        get_spec("cmp"),
        engine="interproc",
        options=CertifyOptions(emit_certificate=True, summary_db=db_path),
    )
    if io is not None:
        store = SummaryStore(db_path, io=io)
        store.recover()
        session._summary_db_obj = store
    report = session.certify(_summarydb_program())
    assert report.certificate is not None
    return (
        report.certificate.text(),
        sorted(alarm.line for alarm in report.alarms),
        report.certificate,
    )


def run_summarydb_scenario(seed: int, workdir: str) -> ScenarioResult:
    """Kill the summary-DB writer mid-put; recovery must quarantine.

    A cold interproc run populates the database through a
    :class:`FaultyIO` that dies after a seeded byte budget — a torn
    summary object, pointer or journal record.  Recovery must repair
    the root (quarantining any torn object), a second recovery must
    find nothing left, and a run resumed over the repaired database
    must produce a certificate byte-identical to a fault-free run —
    loaded summaries may save time, never change bytes.
    """
    from repro.store.summary import SummaryStore

    rng = random.Random(seed)
    result = ScenarioResult(
        layer="summarydb", seed=seed, kind="kill-mid-put"
    )
    base = os.path.join(workdir, f"summarydb-{seed}")

    # fault-free reference: cold populate + warm reload on a clean DB
    ref_db = os.path.join(base, "ref-db")
    ref_text, ref_alarms, _ = _summarydb_certify(ref_db)
    warm_text, warm_alarms, _ = _summarydb_certify(ref_db)
    if warm_text != ref_text or warm_alarms != ref_alarms:
        result.violations.append(
            "fault-free warm run differs from its own cold run"
        )
        return result
    db_bytes = 0
    objects_dir = os.path.join(ref_db, "objects")
    for root, _, files in os.walk(objects_dir):
        for name in files:
            db_bytes += os.path.getsize(os.path.join(root, name))
    result.notes["reference_db_bytes"] = db_bytes

    # chaos: the writer dies after a seeded byte budget
    chaos_db = os.path.join(base, "chaos-db")
    budget = rng.randrange(1, max(2, 2 * db_bytes))
    result.notes["kill_after_bytes"] = budget
    crashed = False
    try:
        _summarydb_certify(
            chaos_db, io=FaultyIO(kill_after_bytes=budget)
        )
    except SimulatedCrash:
        crashed = True
    result.notes["crashed"] = crashed

    # "reboot": recovery quarantines torn objects and is idempotent
    store = SummaryStore(chaos_db)
    report = store.recover(verify_objects=True)
    result.notes["recovery"] = report.to_json()
    again = store.recover(verify_objects=True)
    if not again.clean:
        result.violations.append(
            f"summary-db recovery not idempotent: {again.to_json()}"
        )

    # resumed run over the repaired database: byte-identical output
    got_text, got_alarms, got_cert = _summarydb_certify(chaos_db)
    if got_text != ref_text:
        result.violations.append(
            "certificate over recovered summary DB differs from "
            "fault-free bytes"
        )
    if got_alarms != ref_alarms:
        result.violations.append(
            f"alarms over recovered summary DB {got_alarms} != "
            f"fault-free {ref_alarms}"
        )
    if not _checker().check(got_cert).ok:
        result.violations.append(
            "certificate over recovered summary DB fails the checker"
        )
    return result


# -- the campaign --------------------------------------------------------------

SCENARIOS: Dict[str, Callable[[int, str], ScenarioResult]] = {
    "store": run_store_scenario,
    "serve": run_serve_scenario,
    "batch": run_batch_scenario,
    "summarydb": run_summarydb_scenario,
}


@dataclass
class CampaignReport:
    """Aggregate of one seeded chaos campaign."""

    schedules: int
    seed: int
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def violations(self) -> List[Dict[str, object]]:
        return [
            {
                "layer": r.layer,
                "seed": r.seed,
                "kind": r.kind,
                "violations": list(r.violations),
            }
            for r in self.results
            if not r.ok
        ]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def by_layer(self) -> Dict[str, Dict[str, int]]:
        summary: Dict[str, Dict[str, int]] = {}
        for r in self.results:
            entry = summary.setdefault(
                r.layer, {"schedules": 0, "survived": 0}
            )
            entry["schedules"] += 1
            entry["survived"] += 1 if r.ok else 0
        return summary

    def to_json(self) -> Dict[str, object]:
        return {
            "schedules": self.schedules,
            "seed": self.seed,
            "ok": self.ok,
            "by_layer": self.by_layer(),
            "violations": self.violations,
            "results": [r.to_json() for r in self.results],
        }

    def format_summary(self) -> str:
        lines = [
            f"chaos campaign: {self.schedules} schedule(s), seed {self.seed}"
        ]
        for layer, entry in sorted(self.by_layer().items()):
            lines.append(
                f"  {layer:6s} {entry['survived']}/{entry['schedules']} "
                "survived"
            )
        if self.ok:
            lines.append("  no invariant violations")
        else:
            for violation in self.violations:
                lines.append(
                    f"  VIOLATION [{violation['layer']} "
                    f"seed={violation['seed']} {violation['kind']}]: "
                    + "; ".join(violation["violations"])
                )
        return "\n".join(lines)


def plan_layers(schedules: int, layers: Sequence[str]) -> List[str]:
    """The deterministic layer assignment for each schedule index.

    Layers with a weight in :data:`LAYER_CYCLE` keep their ratio;
    requested layers outside the cycle (summarydb, expensive and
    opt-in) are appended with weight one."""
    enabled = [layer for layer in LAYER_CYCLE if layer in layers]
    enabled.extend(
        layer for layer in layers
        if layer in SCENARIOS and layer not in LAYER_CYCLE
    )
    if not enabled:
        raise ValueError(f"no known layers in {layers!r}")
    return [enabled[i % len(enabled)] for i in range(schedules)]


def run_campaign(
    schedules: int = 100,
    *,
    seed: int = 0,
    layers: Sequence[str] = ("store", "serve", "batch"),
    workdir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run ``schedules`` seeded fault schedules; collect every violation.

    Fully deterministic for a given (schedules, seed, layers): each
    schedule's fault point derives from ``seed`` and its index alone.
    """
    unknown = [layer for layer in layers if layer not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown chaos layer(s): {unknown}")
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(workdir, exist_ok=True)
    report = CampaignReport(schedules=schedules, seed=seed)
    for index, layer in enumerate(plan_layers(schedules, layers)):
        schedule_seed = seed * 1_000_003 + index
        result = SCENARIOS[layer](schedule_seed, workdir)
        report.results.append(result)
        if progress is not None:
            mark = "ok" if result.ok else "VIOLATION"
            progress(
                f"[{index + 1}/{schedules}] {layer} seed={schedule_seed} "
                f"{result.kind}: {mark}"
            )
    return report
