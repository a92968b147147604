"""Work-stealing distributed batch coordinator.

:mod:`repro.runtime.batch` runs one manifest on one process pool.  This
module layers a *coordinator* on top for batches big enough to need
sharding:

* **sharding** — the manifest is split round-robin into ``shards``
  per-shard work queues (job ``index % shards``), each with its own
  certificate directory and its own checkpoint journal in the exact
  :class:`~repro.runtime.batch.BatchRunner` JSONL format, so every
  crash-safety property of the batch runtime (fsynced appends, torn-tail
  tolerance, certificate SHA re-verification on resume) carries over
  per shard;
* **work stealing** — one process pool serves every queue.  At most
  ``max_workers`` jobs are in flight; each time a slot frees it is
  refilled from the *longest* remaining queue, so a shard that lags
  (slow clients, a crashed worker's retries) automatically attracts the
  idle capacity of the others.  Refills drawn from a different shard
  than the one that freed the slot are counted as ``steals``;
* **multi-host handoff** — :func:`write_shard_plan` materializes the
  sharding as a directory: ``plan.json`` plus one self-contained
  sub-manifest per shard (sources inlined, so the directory is the only
  thing two hosts need to share).  Each host runs its shard with
  ``repro batch --shard-dir DIR --shard-index K``; any host (or the
  original) then merges with ``--merge-shards``;
* **merge by hash** — :func:`merge_shards` collects the per-shard
  certificate directories into one, re-verifying every certificate file
  byte-for-byte against the SHA-256 its shard journal recorded;
  mismatches are reported, never silently merged;
* **crash-safe resume** — re-running a coordinator with ``resume=True``
  restores every journaled job from the per-shard journals (through
  :meth:`BatchRunner._restore`, including certificate re-verification)
  and only the remainder goes back to the queues.  A worker SIGKILLed
  mid-steal therefore costs at most the jobs that were in flight.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.runtime.batch import (
    BatchResult,
    WARM_ABSTRACTIONS,
    BatchRunner,
    JobSpec,
    _WorkItem,
    _init_worker,
    _worker_run,
    job_key,
    parse_manifest,
)
from repro.store.io import StoreIO

PLAN_NAME = "plan.json"
PLAN_VERSION = 1


def shard_name(index: int) -> str:
    return f"shard-{index:03d}"


def _shard_indices(total: int, shards: int) -> List[List[int]]:
    """Round-robin global job indices per shard (manifest order kept)."""
    return [list(range(s, total, shards)) for s in range(shards)]


@dataclass
class ShardStats:
    shard: int
    jobs: int
    completed: int = 0
    resumed: int = 0
    ok: int = 0

    def to_json(self) -> dict:
        return {
            "shard": self.shard,
            "jobs": self.jobs,
            "completed": self.completed,
            "resumed": self.resumed,
            "ok": self.ok,
        }


@dataclass
class CoordinatorResult:
    """Manifest-order results plus the stealing telemetry."""

    batch: BatchResult
    shards: int
    steals: int
    shard_stats: List[ShardStats] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.batch.ok

    def to_json(self) -> dict:
        doc = self.batch.to_json()
        doc["coordinator"] = {
            "shards": self.shards,
            "steals": self.steals,
            "per_shard": [s.to_json() for s in self.shard_stats],
        }
        return doc

    def format_summary(self) -> str:
        lines = [self.batch.format_summary()]
        lines.append(
            f"[{self.shards} shard(s), {self.steals} steal(s): "
            + ", ".join(
                f"#{s.shard}:{s.completed}/{s.jobs}"
                + (f"(+{s.resumed} resumed)" if s.resumed else "")
                for s in self.shard_stats
            )
            + "]"
        )
        return "\n".join(lines)


class WorkStealingCoordinator:
    """Run a manifest as per-shard queues over one stealing pool.

    Every shard is backed by a single-shard :class:`BatchRunner` whose
    pool is never started — the coordinator drives the runner's absorb /
    retry / journal machinery directly while scheduling all shards'
    work items on one shared pool.  ``shard_dir=None`` runs ephemerally
    (no journals, no certificate directories).
    """

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        *,
        shards: Optional[int] = None,
        max_workers: int = 1,
        shard_dir: Optional[str] = None,
        resume: bool = False,
        default_timeout: Optional[float] = None,
        default_fallback: Optional[str] = None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        emit_certs: bool = True,
    ) -> None:
        if not jobs:
            raise ValueError("no jobs to coordinate")
        self.jobs = list(jobs)
        self.max_workers = max(1, int(max_workers))
        self.shards = max(1, int(shards or self.max_workers))
        self.shards = min(self.shards, len(self.jobs))
        self.shard_dir = shard_dir
        self.resume = bool(resume)
        self._io = StoreIO()
        self.steals = 0
        self._assignment = _shard_indices(len(self.jobs), self.shards)
        runner_kwargs: Dict[str, object] = {}
        if max_retries is not None:
            runner_kwargs["max_retries"] = max_retries
        if retry_backoff is not None:
            runner_kwargs["retry_backoff"] = retry_backoff
        self.runners: List[BatchRunner] = []
        for shard, indices in enumerate(self._assignment):
            certs_dir = checkpoint_dir = None
            if shard_dir is not None:
                base = os.path.join(shard_dir, shard_name(shard))
                certs_dir = os.path.join(base, "certs")
                checkpoint_dir = os.path.join(base, "checkpoint")
                self._io.makedirs(certs_dir)
                self._io.makedirs(checkpoint_dir)
            self.runners.append(
                BatchRunner(
                    [self.jobs[i] for i in indices],
                    max_workers=1,
                    default_timeout=default_timeout,
                    default_fallback=default_fallback,
                    emit_certs_dir=certs_dir if emit_certs else None,
                    checkpoint_dir=checkpoint_dir,
                    resume=resume,
                    **runner_kwargs,
                )
            )
        self.run_id = hashlib.sha256(
            "\n".join(job_key(job) for job in self.jobs).encode("utf-8")
        ).hexdigest()[:16]
        if shard_dir is not None and not os.path.exists(
            os.path.join(shard_dir, PLAN_NAME)
        ):
            write_shard_plan(self.jobs, shard_dir, shards=self.shards)

    # -- scheduling --------------------------------------------------------

    def _build_queues(self) -> Tuple[List[Deque[_WorkItem]], List[ShardStats]]:
        queues: List[Deque[_WorkItem]] = []
        stats: List[ShardStats] = []
        for shard, runner in enumerate(self.runners):
            runner._results.clear()
            runner._accum.clear()
            restored: set = set()
            if self.resume and runner.checkpoint_dir is not None:
                records = runner._load_checkpoint()
                for local in range(len(runner.jobs)):
                    record = records.get(runner._job_keys[local])
                    if record is not None and runner._restore(local, record):
                        restored.add(local)
            queue: Deque[_WorkItem] = deque(
                _WorkItem(
                    index=local,
                    job=job,
                    engine=job.engine,
                    timeout=job.timeout,
                )
                for local, job in enumerate(runner.jobs)
                if local not in restored
            )
            queues.append(queue)
            stats.append(
                ShardStats(
                    shard=shard,
                    jobs=len(runner.jobs),
                    resumed=len(restored),
                )
            )
        return queues, stats

    def _longest(self, queues: List[Deque[_WorkItem]]) -> Optional[int]:
        best: Optional[int] = None
        best_len = 0
        for shard, queue in enumerate(queues):
            if len(queue) > best_len:
                best, best_len = shard, len(queue)
        return best

    def _route(
        self,
        shard: int,
        item: _WorkItem,
        outcome,
        queues: List[Deque[_WorkItem]],
        stats: List[ShardStats],
    ) -> None:
        """Feed one outcome to the owning shard's runner; any follow-up
        (fallback attempt) goes to the *front* of that shard's queue so
        it keeps its place in the budget accounting."""
        follow = self.runners[shard]._absorb(item, outcome)
        if follow is not None:
            queues[shard].appendleft(follow)
        else:
            stats[shard].completed += 1

    def _crash(
        self,
        shard: int,
        item: _WorkItem,
        reason: str,
        queues: List[Deque[_WorkItem]],
        stats: List[ShardStats],
    ) -> None:
        follow = self.runners[shard]._retry(item, reason)
        if follow is not None:
            queues[shard].appendleft(follow)
        else:
            stats[shard].completed += 1

    # -- execution ---------------------------------------------------------

    def _prewarm(self):
        """Derive every abstraction the whole manifest needs, once."""
        from repro.api import CertifySession
        from repro.easl.library import get_spec
        from repro.runtime.trace import CollectingTracer, use_tracer

        engines_by_spec: Dict[str, set] = {}
        for runner in self.runners:
            for job in runner.jobs:
                wanted = engines_by_spec.setdefault(job.spec, set())
                wanted.add(job.engine)
                if job.fallback:
                    wanted.add(job.fallback)
        tracer = CollectingTracer()
        with use_tracer(tracer):
            for spec_name, engines in sorted(engines_by_spec.items()):
                session = CertifySession(
                    get_spec(spec_name), cache=WARM_ABSTRACTIONS
                )
                session.prewarm(sorted(engines))
        for event in tracer.events:
            event.job = "<prewarm>"
        return tracer.events

    def run(self) -> CoordinatorResult:
        started = time.perf_counter()
        self.steals = 0
        queues, stats = self._build_queues()
        outstanding = sum(len(q) for q in queues)
        prewarm_events = [] if not outstanding else self._prewarm()
        if outstanding:
            if self.max_workers == 1:
                self._run_inline(queues, stats)
            else:
                self._run_pool(queues, stats)
        results = []
        for shard, runner in enumerate(self.runners):
            for local in range(len(runner.jobs)):
                results.append(
                    (self._assignment[shard][local], runner._results[local])
                )
        results.sort(key=lambda pair: pair[0])
        for stat, runner in zip(stats, self.runners):
            stat.ok = sum(
                1
                for local in range(len(runner.jobs))
                if runner._results[local].ok
            )
        batch = BatchResult(
            results=[result for _, result in results],
            seconds=time.perf_counter() - started,
            jobs=self.max_workers,
            prewarm_events=prewarm_events,
            cache=WARM_ABSTRACTIONS.stats(),
            resumed=sum(stat.resumed for stat in stats),
        )
        return CoordinatorResult(
            batch=batch,
            shards=self.shards,
            steals=self.steals,
            shard_stats=stats,
        )

    def _run_inline(self, queues, stats) -> None:
        last_shard: Optional[int] = None
        while True:
            shard = self._longest(queues)
            if shard is None:
                return
            if last_shard is not None and shard != last_shard:
                self.steals += 1
            last_shard = shard
            item = queues[shard].popleft()
            self._route(shard, item, _worker_run(item), queues, stats)

    def _run_pool(self, queues, stats) -> None:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = (
            multiprocessing.get_context("fork")
            if "fork" in methods
            else multiprocessing.get_context()
        )
        warm_blob = None
        if context.get_start_method() != "fork":
            warm_blob = self.runners[0]._warm_blob()
        retry_backoff = self.runners[0].retry_backoff
        pool_round = 0
        while any(queues):
            if pool_round:
                time.sleep(min(2.0, retry_backoff * (2 ** (pool_round - 1))))
            pool_round += 1
            with ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(warm_blob,),
            ) as pool:
                futures: Dict[object, Tuple[int, _WorkItem]] = {}

                def submit_next(origin: Optional[int]) -> bool:
                    shard = self._longest(queues)
                    if shard is None:
                        return True
                    item = queues[shard].popleft()
                    try:
                        future = pool.submit(_worker_run, item)
                    except Exception:
                        # pool already broken: requeue and rebuild
                        queues[shard].appendleft(item)
                        return False
                    futures[future] = (shard, item)
                    if origin is not None and shard != origin:
                        self.steals += 1
                    return True

                healthy = True
                for _ in range(self.max_workers):
                    if not submit_next(None):
                        healthy = False
                        break
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        shard, item = futures.pop(future)
                        try:
                            outcome = future.result()
                        except Exception as error:
                            # infrastructure failure: the worker process
                            # died and the pool is (about to be) broken
                            self._crash(
                                shard,
                                item,
                                type(error).__name__,
                                queues,
                                stats,
                            )
                            healthy = False
                            continue
                        self._route(shard, item, outcome, queues, stats)
                        if healthy:
                            healthy = submit_next(shard)


# -- multi-host handoff --------------------------------------------------------


def _job_manifest_entry(job: JobSpec) -> dict:
    """A self-contained manifest row for one job (source inlined)."""
    entry: Dict[str, object] = {
        "name": job.name,
        "spec": job.spec,
        "source": job.source,
        "engine": job.engine,
    }
    if job.timeout is not None:
        entry["timeout"] = job.timeout
    if job.fallback is not None:
        entry["fallback"] = job.fallback
    if job.fallback_timeout is not None:
        entry["fallback_timeout"] = job.fallback_timeout
    options: Dict[str, object] = {}
    opts = job.options
    if opts.entry is not None:
        options["entry"] = opts.entry
    if opts.prune_requires is not True:
        options["prune_requires"] = opts.prune_requires
    if opts.inline_depth != 12:
        options["inline_depth"] = opts.inline_depth
    if opts.deadline is not None:
        options["deadline"] = opts.deadline
    if opts.max_steps is not None:
        options["max_steps"] = opts.max_steps
    if opts.max_structures is not None:
        options["max_structures"] = opts.max_structures
    if opts.ladder is not None:
        options["ladder"] = list(opts.ladder) if isinstance(
            opts.ladder, (list, tuple)
        ) else opts.ladder
    if options:
        entry["options"] = options
    return entry


def write_shard_plan(
    jobs: Sequence[JobSpec], shard_dir: str, *, shards: int
) -> dict:
    """Materialize the sharding for multi-host handoff.

    Writes ``plan.json`` plus ``shard-NNN/manifest.json`` per shard —
    each sub-manifest inlines its sources, so shipping the directory is
    shipping the work.  Returns the plan document."""
    if not jobs:
        raise ValueError("no jobs to shard")
    shards = max(1, min(int(shards), len(jobs)))
    io = StoreIO()
    assignment = _shard_indices(len(jobs), shards)
    keys = [job_key(job) for job in jobs]
    plan = {
        "v": PLAN_VERSION,
        "run_id": hashlib.sha256(
            "\n".join(keys).encode("utf-8")
        ).hexdigest()[:16],
        "shards": shards,
        "jobs": len(jobs),
        "job_keys": keys,
        "assignment": assignment,
        "shard_names": [shard_name(s) for s in range(shards)],
    }
    for shard, indices in enumerate(assignment):
        base = os.path.join(shard_dir, shard_name(shard))
        io.makedirs(os.path.join(base, "certs"))
        io.makedirs(os.path.join(base, "checkpoint"))
        manifest = {
            "spec": "cmp",
            "jobs": [_job_manifest_entry(jobs[i]) for i in indices],
        }
        io.atomic_write_text(
            os.path.join(base, "manifest.json"),
            json.dumps(manifest, indent=2, sort_keys=True),
        )
    io.atomic_write_text(
        os.path.join(shard_dir, PLAN_NAME),
        json.dumps(plan, indent=2, sort_keys=True),
    )
    return plan


def load_shard_plan(shard_dir: str) -> dict:
    path = os.path.join(shard_dir, PLAN_NAME)
    with open(path) as handle:
        plan = json.load(handle)
    if not isinstance(plan, dict) or plan.get("v") != PLAN_VERSION:
        raise ValueError(f"unsupported shard plan at {path}")
    return plan


def run_shard(
    shard_dir: str,
    shard_index: int,
    *,
    max_workers: int = 1,
    resume: bool = False,
    default_timeout: Optional[float] = None,
    default_fallback: Optional[str] = None,
) -> BatchResult:
    """Run exactly one shard of a materialized plan on this host.

    Uses a plain :class:`BatchRunner` with the shard's own certificate
    and checkpoint directories; the shard's journal composes with a
    later coordinator-level resume and with :func:`merge_shards`."""
    plan = load_shard_plan(shard_dir)
    if not 0 <= shard_index < int(plan["shards"]):
        raise ValueError(
            f"shard index {shard_index} out of range "
            f"(plan has {plan['shards']} shard(s))"
        )
    base = os.path.join(shard_dir, shard_name(shard_index))
    jobs = parse_manifest(
        json.load(open(os.path.join(base, "manifest.json"))),
        base_dir=base,
    )
    runner = BatchRunner(
        jobs,
        max_workers=max_workers,
        default_timeout=default_timeout,
        default_fallback=default_fallback,
        emit_certs_dir=os.path.join(base, "certs"),
        checkpoint_dir=os.path.join(base, "checkpoint"),
        resume=resume,
    )
    return runner.run()


def merge_shards(
    shard_dir: str, *, dest: Optional[str] = None
) -> dict:
    """Merge per-shard certificate directories into one, by hash.

    Every certificate file is re-hashed and verified against the
    SHA-256 its shard journal recorded before it is copied; mismatched
    or missing files are reported, not merged.  Returns a summary
    document (also written to ``merged.json`` in the destination)."""
    plan = load_shard_plan(shard_dir)
    io = StoreIO()
    dest = dest or os.path.join(shard_dir, "certs")
    io.makedirs(dest)
    merged: List[dict] = []
    mismatched: List[dict] = []
    missing: List[dict] = []
    jobs_seen = 0
    for shard in range(int(plan["shards"])):
        base = os.path.join(shard_dir, shard_name(shard))
        checkpoint = os.path.join(base, "checkpoint")
        journal_records: Dict[str, dict] = {}
        if os.path.isdir(checkpoint):
            for name in sorted(os.listdir(checkpoint)):
                if not name.endswith(".jsonl"):
                    continue
                text = io.read_text(os.path.join(checkpoint, name)) or ""
                for line in text.splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        break  # torn tail: fsynced appends only tear there
                    if isinstance(record, dict) and record.get("v") == 1:
                        journal_records[str(record.get("key"))] = record
        jobs_seen += len(journal_records)
        for key, record in sorted(journal_records.items()):
            digest = record.get("cert_sha256")
            path = record.get("certificate_path")
            if digest is None:
                continue  # job ran without certificate emission
            entry = {
                "shard": shard,
                "name": record.get("name"),
                "key": key,
                "sha256": digest,
            }
            text = io.read_text(path) if isinstance(path, str) else None
            if text is None:
                missing.append(entry)
                continue
            actual = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if actual != digest:
                mismatched.append({**entry, "actual": actual})
                continue
            io.atomic_write_text(
                os.path.join(dest, os.path.basename(str(path))), text
            )
            merged.append(entry)
    summary = {
        "run_id": plan.get("run_id"),
        "shards": int(plan["shards"]),
        "jobs_journaled": jobs_seen,
        "merged": len(merged),
        "mismatched": mismatched,
        "missing": missing,
        "dest": dest,
        "ok": not mismatched and not missing,
    }
    io.atomic_write_text(
        os.path.join(dest, "merged.json"),
        json.dumps(summary, indent=2, sort_keys=True),
    )
    return summary
