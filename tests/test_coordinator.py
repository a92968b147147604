"""Sharded batch runs: layout, handoff, merge, resume.

A sharded run must be a refinement of the plain batch runner — same
results in the same manifest order and the same certificate bytes,
whatever the sharding — while its per-shard journals and certificate
directories carry every crash-safety property across hosts: a shard run
elsewhere merges by hash, a killed run resumes from the journals, and
tampering is reported, not merged.
"""

import json
import os

import pytest

from repro.runtime.batch import BatchRunner, JobSpec
from repro.runtime.coordinator import (
    load_shard_plan,
    merge_shards,
    run_shard,
    write_shard_plan,
)
from repro.suite import all_programs


def suite_jobs(count=6, engine="fds"):
    return [
        JobSpec(
            name=program.name,
            spec="cmp",
            source=program.source,
            engine=engine,
        )
        for program in all_programs()[:count]
    ]


def cert_bytes(directory):
    found = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".cert.json"):
            with open(os.path.join(directory, name), "rb") as handle:
                found[name] = handle.read()
    return found


class TestCoordinatorRun:
    def test_matches_plain_batch_runner(self, tmp_path):
        jobs = suite_jobs()
        plain_certs = str(tmp_path / "plain")
        plain = BatchRunner(
            jobs, max_workers=1, emit_certs_dir=plain_certs
        ).run()
        shard_dir = str(tmp_path / "shards")
        sharded = BatchRunner(
            jobs, shards=3, max_workers=1, shard_dir=shard_dir
        ).run()
        assert sharded.ok
        assert [r.job.name for r in sharded.results] == [
            r.job.name for r in plain.results
        ]
        assert [r.status for r in sharded.results] == [
            r.status for r in plain.results
        ]
        assert [sorted(r.alarm_lines) for r in sharded.results] == [
            sorted(r.alarm_lines) for r in plain.results
        ]
        assert len(sharded.shard_stats) == 3
        assert sum(s.completed for s in sharded.shard_stats) == 6
        # the same certificate bytes, whichever layout wrote them
        merged = merge_shards(shard_dir)
        assert merged["ok"]
        assert cert_bytes(merged["dest"]) == cert_bytes(plain_certs)
        assert len(cert_bytes(plain_certs)) == 6

    def test_shards_clamped_to_jobs(self, tmp_path):
        result = BatchRunner(
            suite_jobs(2),
            shards=8,
            max_workers=1,
            shard_dir=str(tmp_path / "shards"),
        ).run()
        assert len(result.shard_stats) == 2

    def test_result_document(self, tmp_path):
        result = BatchRunner(
            suite_jobs(3),
            shards=2,
            max_workers=1,
            shard_dir=str(tmp_path / "shards"),
        ).run()
        doc = result.to_json()
        assert doc["coordinator"]["shards"] == 2
        assert len(doc["coordinator"]["per_shard"]) == 2
        assert "2 shard(s)" in result.format_summary()

    def test_pool_mode_matches_inline(self, tmp_path):
        jobs = suite_jobs(4)
        inline = BatchRunner(
            jobs, shards=2, max_workers=1, shard_dir=str(tmp_path / "a")
        ).run()
        pooled = BatchRunner(
            jobs, shards=2, max_workers=2, shard_dir=str(tmp_path / "b")
        ).run()
        assert pooled.ok
        assert [r.status for r in pooled.results] == [
            r.status for r in inline.results
        ]
        assert cert_bytes(os.path.join(str(tmp_path / "b"), "shard-001", "certs")) == (
            cert_bytes(os.path.join(str(tmp_path / "a"), "shard-001", "certs"))
        )


class TestShardDirProtocol:
    def test_plan_written_and_resume_restores_all(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        jobs = suite_jobs()
        first = BatchRunner(
            jobs, shards=3, max_workers=1, shard_dir=shard_dir
        ).run()
        assert first.ok
        plan = load_shard_plan(shard_dir)
        assert plan["jobs"] == 6
        assert plan["shards"] == 3
        resumed = BatchRunner(
            jobs, shards=3, max_workers=1, shard_dir=shard_dir,
            resume=True,
        ).run()
        assert resumed.ok
        assert resumed.resumed == 6
        assert [r.status for r in resumed.results] == [
            r.status for r in first.results
        ]

    def test_multi_host_handoff_and_merge(self, tmp_path):
        shard_dir = str(tmp_path / "handoff")
        jobs = suite_jobs()
        plan = write_shard_plan(jobs, shard_dir, shards=2)
        assert plan["shards"] == 2
        # each "host" runs its shard independently off the shared dir
        for index in range(2):
            result = run_shard(shard_dir, index, max_workers=1)
            assert result.ok
        summary = merge_shards(shard_dir)
        assert summary["ok"]
        assert summary["merged"] == 6
        assert summary["mismatched"] == []
        merged_names = {
            entry
            for entry in os.listdir(summary["dest"])
            if entry.endswith(".cert.json")
        }
        assert len(merged_names) == 6

    def test_sharded_resume_restores_a_handed_off_shard(self, tmp_path):
        # a shard run elsewhere writes exactly what the sharded run
        # would have written for that shard, so the run resumes from it
        shard_dir = str(tmp_path / "compose")
        jobs = suite_jobs()
        write_shard_plan(jobs, shard_dir, shards=2)
        assert run_shard(shard_dir, 0, max_workers=1).ok
        resumed = BatchRunner(
            jobs, shards=2, max_workers=1, shard_dir=shard_dir, resume=True
        ).run()
        assert resumed.ok
        assert resumed.resumed == 3
        assert [s.resumed for s in resumed.shard_stats] == [3, 0]
        assert merge_shards(shard_dir)["merged"] == 6

    def test_shard_count_must_match_the_plan(self, tmp_path):
        # merge reads the plan's shard count: a run laid out otherwise
        # would strand its extra shards
        shard_dir = str(tmp_path / "plan")
        jobs = suite_jobs(4)
        BatchRunner(jobs, shards=2, max_workers=1, shard_dir=shard_dir).run()
        with pytest.raises(ValueError, match="2-shard plan"):
            BatchRunner(jobs, shards=3, max_workers=1, shard_dir=shard_dir)

    def test_merge_reports_tampered_certificate(self, tmp_path):
        shard_dir = str(tmp_path / "tamper")
        BatchRunner(
            suite_jobs(3), shards=2, max_workers=1, shard_dir=shard_dir
        ).run()
        victim = None
        for entry in sorted(os.listdir(shard_dir)):
            certs = os.path.join(shard_dir, entry, "certs")
            if entry.startswith("shard-") and os.path.isdir(certs):
                for name in sorted(os.listdir(certs)):
                    if name.endswith(".cert.json"):
                        victim = os.path.join(certs, name)
                        break
            if victim:
                break
        assert victim is not None
        with open(victim, "a") as handle:
            handle.write(" ")
        summary = merge_shards(shard_dir)
        assert not summary["ok"]
        assert len(summary["mismatched"]) == 1

    def test_shard_journals_in_batch_format(self, tmp_path):
        shard_dir = str(tmp_path / "journal")
        BatchRunner(
            suite_jobs(3), shards=2, max_workers=1, shard_dir=shard_dir
        ).run()
        records = 0
        for entry in sorted(os.listdir(shard_dir)):
            checkpoint = os.path.join(shard_dir, entry, "checkpoint")
            if not os.path.isdir(checkpoint):
                continue
            for name in os.listdir(checkpoint):
                if not name.endswith(".jsonl"):
                    continue
                with open(os.path.join(checkpoint, name)) as handle:
                    for line in handle:
                        record = json.loads(line)
                        assert record["v"] == 1
                        assert "cert_sha256" in record
                        records += 1
        assert records == 3


class TestBatchCliShards:
    def _manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "spec": "cmp",
            "jobs": [
                {"name": p.name, "source": p.source, "engine": "fds"}
                for p in all_programs()[:4]
            ],
        }))
        return str(path)

    def test_coordinator_flags(self, tmp_path):
        from repro.cli import batch_main

        shard_dir = str(tmp_path / "shards")
        code = batch_main([
            self._manifest(tmp_path), "--shards", "2",
            "--shard-dir", shard_dir, "--quiet",
        ])
        assert code == 0
        assert os.path.exists(os.path.join(shard_dir, "plan.json"))
        code = batch_main([
            "--merge-shards", "--shard-dir", shard_dir, "--quiet",
        ])
        assert code == 0

    def test_write_then_run_then_merge(self, tmp_path):
        from repro.cli import batch_main

        shard_dir = str(tmp_path / "handoff")
        assert batch_main([
            self._manifest(tmp_path), "--write-shards", "--shards", "2",
            "--shard-dir", shard_dir, "--quiet",
        ]) == 0
        for index in range(2):
            assert batch_main([
                "--shard-index", str(index), "--shard-dir", shard_dir,
                "--quiet",
            ]) == 0
        assert batch_main([
            "--merge-shards", "--shard-dir", shard_dir, "--quiet",
        ]) == 0

    def test_manifest_required_without_shard_flags(self, tmp_path, capsys):
        from repro.cli import batch_main

        assert batch_main(["--quiet"]) == 2
        assert "manifest" in capsys.readouterr().err


class TestChaosScenarios:
    def test_coordinator_sigkill_resume(self, tmp_path):
        from repro.testing.chaos import run_coordinator_scenario

        result = run_coordinator_scenario(3, str(tmp_path))
        assert result.ok, result.violations

    def test_summarydb_kill_mid_put(self, tmp_path):
        from repro.testing.chaos import run_summarydb_scenario

        result = run_summarydb_scenario(11, str(tmp_path))
        assert result.ok, result.violations
        assert result.notes["crashed"]
