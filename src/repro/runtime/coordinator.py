"""Shard plans: multi-host handoff and merge by hash.

A batch run with a shard directory (``BatchRunner(shards=N,
shard_dir=D)``, ``repro batch --shards N --shard-dir D``) runs every job
on the one supervised pool and only *lays out* its results as shards:
job *i*'s certificate and journal record land in ``D/shard-(i mod N)/``,
one journal per shard in the exact :class:`~repro.runtime.batch.BatchRunner`
JSONL format, named by that shard's run id.  Every crash-safety property
of the batch runtime (fsynced appends, torn-tail tolerance, certificate
SHA re-verification on resume) therefore holds per shard.  This module
is what the layout is for:

* **multi-host handoff** — :func:`write_shard_plan` materializes the
  sharding as a directory: ``plan.json`` plus one self-contained
  sub-manifest per shard (sources inlined, so the directory is the only
  thing two hosts need to share).  Each host runs its shard with
  ``repro batch --shard-dir DIR --shard-index K`` (:func:`run_shard`),
  which writes exactly what the sharded run would have written for that
  shard, so the two compose: either resumes from the other's journals;
* **merge by hash** — :func:`merge_shards` collects the per-shard
  certificate directories into one, re-verifying every certificate file
  byte-for-byte against the SHA-256 its shard journal recorded;
  mismatches are reported, never silently merged.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

from repro.runtime.batch import (
    BatchResult,
    BatchRunner,
    JobSpec,
    job_key,
    parse_manifest,
    read_journal,
    run_id_of,
    shard_name,
)
from repro.store.io import StoreIO

PLAN_NAME = "plan.json"
PLAN_VERSION = 1


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
    # round-robin, manifest order kept within each shard
    assignment = [list(range(s, len(jobs), shards)) for s in range(shards)]
    keys = [job_key(job) for job in jobs]
    plan = {
        "v": PLAN_VERSION,
        "run_id": run_id_of(keys),
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


def run_shard(shard_dir: str, shard_index: int, **options) -> BatchResult:
    """Run exactly one shard of a materialized plan on this host.

    Uses a plain :class:`BatchRunner` (``options`` are its keywords:
    workers, budgets, retries, ``resume``) with the shard's own
    certificate and checkpoint directories; the shard's journal composes
    with a later sharded resume and with :func:`merge_shards`."""
    plan = load_shard_plan(shard_dir)
    if not 0 <= shard_index < int(plan["shards"]):
        raise ValueError(
            f"shard index {shard_index} out of range "
            f"(plan has {plan['shards']} shard(s))"
        )
    base = os.path.join(shard_dir, shard_name(shard_index))
    with open(os.path.join(base, "manifest.json")) as handle:
        jobs = parse_manifest(json.load(handle), base_dir=base)
    runner = BatchRunner(
        jobs,
        emit_certs_dir=os.path.join(base, "certs"),
        checkpoint_dir=os.path.join(base, "checkpoint"),
        **options,
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
                if name.endswith(".jsonl"):
                    journal_records.update(
                        read_journal(os.path.join(checkpoint, name))
                    )
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
