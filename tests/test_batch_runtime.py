"""Tests for the batch-certification runtime and the ``repro batch`` CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.runtime import batch as batch_mod
from repro.runtime import executor as executor_mod
from repro.runtime.batch import (
    BatchRunner,
    JobSpec,
    ManifestError,
    load_manifest,
    parse_manifest,
)
from repro.runtime.trace import validate_trace_record
from repro.suite import by_name

FDS_JOBS = {
    "jobs": [
        {"suite": "fig3", "engine": "fds"},
        {"suite": "scanner", "engine": "fds"},
        {"suite": "sec3_loop", "engine": "fds"},
        {"suite": "alias_chain", "engine": "fds"},
    ]
}


def fds_jobs():
    return parse_manifest(FDS_JOBS)


class TestManifest:
    def test_suite_client_and_inline_sources(self, tmp_path):
        client = tmp_path / "c.jl"
        client.write_text(by_name("scanner").source)
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "spec": "cmp",
                    "defaults": {"engine": "fds", "timeout": 30},
                    "jobs": [
                        {"suite": "fig3"},
                        {"client": "c.jl"},
                        {"name": "inline", "source": by_name("fig3").source},
                    ],
                }
            )
        )
        jobs = load_manifest(str(manifest))
        assert [j.name for j in jobs] == ["fig3", "c.jl", "inline"]
        assert all(j.engine == "fds" and j.timeout == 30 for j in jobs)

    def test_duplicate_names_uniquified(self):
        jobs = parse_manifest(
            {"jobs": [{"suite": "fig3"}, {"suite": "fig3"}]}
        )
        assert [j.name for j in jobs] == ["fig3", "fig3#2"]

    def test_rejects_unknown_engine_spec_and_keys(self):
        with pytest.raises(ManifestError, match="unknown engine"):
            parse_manifest({"jobs": [{"suite": "fig3", "engine": "zap"}]})
        with pytest.raises(ManifestError, match="unknown spec"):
            parse_manifest({"jobs": [{"suite": "fig3", "spec": "zap"}]})
        with pytest.raises(ManifestError, match="unknown key"):
            parse_manifest({"jobs": [{"suite": "fig3", "bogus": 1}]})
        with pytest.raises(ManifestError, match="exactly one of"):
            parse_manifest({"jobs": [{"engine": "fds"}]})
        with pytest.raises(ManifestError, match="no jobs"):
            parse_manifest({"jobs": []})

    def test_bare_list_accepted(self):
        jobs = parse_manifest([{"suite": "fig3", "engine": "fds"}])
        assert jobs[0].spec == "cmp"


class TestInlineExecution:
    def test_results_and_phase_events(self):
        result = BatchRunner(fds_jobs(), max_workers=1).run()
        assert result.ok
        assert [r.job.name for r in result.results] == [
            "fig3",
            "scanner",
            "sec3_loop",
            "alias_chain",
        ]
        fig3 = result.results[0]
        assert fig3.certified is False and fig3.alarm_lines == [10, 13]
        for r in result.results:
            assert {"parse", "derive", "fixpoint"} <= set(r.phase_seconds())

    def test_shared_cache_derives_once(self):
        result = BatchRunner(fds_jobs(), max_workers=1).run()
        derive_misses = [
            e
            for r in result.results
            for e in r.events
            if e.phase == "derive" and not e.meta.get("cached")
        ]
        assert derive_misses == []  # prewarm derived; jobs only hit

    def test_engine_error_is_graceful_partial_result(self):
        jobs = [
            JobSpec(
                name="bad",
                spec="cmp",
                source="class Main { static void main() { int } }",
                engine="fds",
            ),
            JobSpec(
                name="good",
                spec="cmp",
                source=by_name("scanner").source,
                engine="fds",
            ),
        ]
        result = BatchRunner(jobs, max_workers=1).run()
        assert not result.ok
        assert result.results[0].status == "error"
        assert result.results[0].error
        assert result.results[1].status == "ok"


class TestPoolExecution:
    def test_deterministic_order_regardless_of_completion(self):
        # heaviest job first: completion order differs from manifest order
        manifest = {
            "jobs": [
                {"suite": "fig1_heap", "engine": "tvla-relational"},
                {"suite": "fig3", "engine": "fds"},
                {"suite": "scanner", "engine": "fds"},
                {"suite": "sec3_loop", "engine": "fds"},
            ]
        }
        result = BatchRunner(parse_manifest(manifest), max_workers=4).run()
        assert result.ok
        assert [r.job.name for r in result.results] == [
            "fig1_heap",
            "fig3",
            "scanner",
            "sec3_loop",
        ]

    def test_timeout_falls_back_to_configured_engine(self):
        jobs = parse_manifest(
            {
                "jobs": [
                    {
                        "suite": "fig3",
                        "engine": "tvla-relational",
                        "timeout": 0.0005,
                        "fallback": "fds",
                    },
                    {"suite": "scanner", "engine": "fds"},
                ]
            }
        )
        result = BatchRunner(jobs, max_workers=2).run()
        assert result.ok  # the timeout did NOT fail the batch
        fell_back = result.results[0]
        assert fell_back.status == "fallback"
        assert fell_back.fallback is True
        assert fell_back.engine_used == "fds"
        assert fell_back.alarm_lines == [10, 13]
        # events from both attempts survive: the cooperative breach keeps
        # the timed-out attempt's phases, and the fallback attempt's
        # events are tagged as such
        assert fell_back.events
        assert any(e.meta.get("fallback") for e in fell_back.events)
        # the original attempt's breach kind is preserved on the result
        assert fell_back.breach == "deadline"

    def test_timeout_without_fallback_marks_job_timeout(self):
        jobs = parse_manifest(
            {
                "jobs": [
                    {
                        "suite": "fig3",
                        "engine": "tvla-relational",
                        "timeout": 0.0005,
                    },
                    {"suite": "scanner", "engine": "fds"},
                ]
            }
        )
        result = BatchRunner(jobs, max_workers=2).run()
        assert not result.ok
        assert result.results[0].status == "timeout"
        assert result.results[1].status == "ok"

    def test_worker_crash_retried_then_succeeds(self, tmp_path, monkeypatch):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("crash injection relies on fork inheritance")
        flag = tmp_path / "crashed-once"
        original = batch_mod._execute_certification

        def crash_once(item):
            if item.job.name == "fig3" and not flag.exists():
                flag.write_text("x")
                os._exit(17)  # simulate an OOM-killed / segfaulted worker
            return original(item)

        monkeypatch.setattr(batch_mod, "_execute_certification", crash_once)
        jobs = fds_jobs()
        result = BatchRunner(
            jobs, max_workers=2, retry_backoff=0.01
        ).run()
        assert result.ok
        fig3 = result.results[0]
        assert fig3.status == "ok" and fig3.retries >= 1
        assert fig3.alarm_lines == [10, 13]

    def test_worker_crash_exhausts_retries_gracefully(
        self, monkeypatch
    ):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("crash injection relies on fork inheritance")

        def always_crash(item):
            os._exit(17)

        monkeypatch.setattr(
            batch_mod, "_execute_certification", always_crash
        )
        jobs = fds_jobs()[:1]
        result = BatchRunner(
            jobs, max_workers=2, max_retries=1, retry_backoff=0.01
        ).run()
        assert not result.ok
        fig3 = result.results[0]
        assert fig3.status == "error"
        assert "worker died" in fig3.error
        assert fig3.retries >= 1

    def test_retry_backoff_doubles_and_caps_at_two_seconds(
        self, monkeypatch
    ):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("crash injection relies on fork inheritance")

        def always_crash(item):
            os._exit(17)

        slept = []
        monkeypatch.setattr(
            batch_mod, "_execute_certification", always_crash
        )
        monkeypatch.setattr(
            executor_mod.time, "sleep", lambda s: slept.append(s)
        )
        result = BatchRunner(
            fds_jobs()[:1],
            max_workers=2,
            max_retries=3,
            retry_backoff=1.0,
        ).run()
        assert not result.ok
        # exponential from the base, hard-capped at 2s per round
        assert slept == [1.0, 2.0, 2.0]


    def test_pool_mode_matches_inline(self, tmp_path):
        # the pool is a refinement of the in-process run: same statuses
        # and the same certificate bytes, whichever worker took a job
        def cert_bytes(directory):
            return {
                name: (directory / name).read_bytes()
                for name in sorted(os.listdir(directory))
            }

        inline = BatchRunner(
            fds_jobs(), max_workers=1, emit_certs_dir=str(tmp_path / "a")
        ).run()
        pooled = BatchRunner(
            fds_jobs(), max_workers=2, emit_certs_dir=str(tmp_path / "b")
        ).run()
        assert pooled.ok
        assert [r.status for r in pooled.results] == [
            r.status for r in inline.results
        ]
        expected = cert_bytes(tmp_path / "a")
        assert len(expected) == len(inline.results)
        assert cert_bytes(tmp_path / "b") == expected


class TestParallelSpeedup:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs >= 4 cores",
    )
    def test_six_job_manifest_pool_speedup(self, tmp_path):
        import subprocess
        import sys
        import time

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "examples"))
        try:
            from batch_speedup import acceptance_manifest
        finally:
            sys.path.pop(0)
        manifest = tmp_path / "accept.json"
        manifest.write_text(json.dumps(acceptance_manifest()))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )

        def timed(jobs):
            start = time.perf_counter()
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "batch",
                    str(manifest),
                    "--jobs",
                    str(jobs),
                    "--quiet",
                ],
                check=True,
                env=env,
            )
            return time.perf_counter() - start

        sequential = timed(1)
        pooled = timed(4)
        assert sequential / pooled >= 1.5, (sequential, pooled)


class TestTraceOutput:
    def test_jsonl_schema_and_required_phases(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = BatchRunner(fds_jobs()[:2], max_workers=2).run()
        result.write_trace(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        for record in records:
            assert validate_trace_record(record) == [], record
        by_job = {}
        for record in records:
            by_job.setdefault(record.get("job"), set()).add(record["phase"])
        for job in ("fig3", "scanner"):
            assert {"parse", "derive", "fixpoint", "job"} <= by_job[job]

    def test_summary_json_shape(self):
        result = BatchRunner(fds_jobs()[:2], max_workers=1).run()
        data = result.to_json()
        assert data["ok"] is True
        assert data["cache"]["maxsize"] > 0
        assert [r["name"] for r in data["results"]] == ["fig3", "scanner"]
        # per-job records carry the repo-wide result envelope
        for r in data["results"]:
            assert {
                "verdict",
                "alarms",
                "certificate",
                "governor",
                "timings",
            } <= set(r)
            assert r["verdict"]["status"] == "ok"
            assert isinstance(r["verdict"]["certified"], bool)
            assert r["verdict"]["engine"] == r["engine_used"]
            assert len(r["alarms"]) == len(r["alarm_lines"])
            assert "phases" in r["timings"]
            assert r["governor"] is None

    def test_summary_document_keys(self):
        result = BatchRunner(fds_jobs()[:1], max_workers=1).run()
        assert set(result.to_json()) == {
            "seconds",
            "jobs",
            "ok",
            "resumed",
            "cache",
            "results",
        }
        summary = result.format_summary()
        assert "1/1 jobs ok" in summary and "shard" not in summary

    @pytest.mark.parametrize(
        "retired",
        [{"shards": 2}, {"shard_dir": "shards"}],
        ids=["shards", "shard_dir"],
    )
    def test_runner_has_one_output_layout(self, retired):
        with pytest.raises(TypeError):
            BatchRunner(fds_jobs(), **retired)


class TestGovernorIntegration:
    def test_backstop_is_twice_the_budget_plus_slack(self):
        assert batch_mod._backstop_seconds(None) is None
        assert batch_mod._backstop_seconds(0) is None
        assert batch_mod._backstop_seconds(2.0) == 5.0

    def test_job_timeout_becomes_cooperative_deadline(self):
        jobs = parse_manifest(
            {"jobs": [{"suite": "fig3", "engine": "fds", "timeout": 30}]}
        )
        item = batch_mod._WorkItem(
            index=0, job=jobs[0], engine="fds", timeout=30.0
        )
        options = batch_mod._effective_options(item)
        assert options.deadline == 30.0
        # an explicit per-job deadline is not overridden
        explicit = parse_manifest(
            {
                "jobs": [
                    {
                        "suite": "fig3",
                        "engine": "fds",
                        "timeout": 30,
                        "options": {"deadline": 5.0},
                    }
                ]
            }
        )
        item = batch_mod._WorkItem(
            index=0, job=explicit[0], engine="fds", timeout=30.0
        )
        assert batch_mod._effective_options(item).deadline == 5.0

    def test_sigalrm_unavailable_off_main_thread_warns(self):
        import threading

        from repro.runtime.trace import CollectingTracer, use_tracer

        events = []

        def run():
            tracer = CollectingTracer()
            with use_tracer(tracer):
                with batch_mod._deadline(5.0):
                    pass
            events.extend(tracer.events)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        warnings = [e for e in events if e.phase == "warning"]
        assert len(warnings) == 1
        assert warnings[0].meta["reason"] == "sigalrm-unavailable"
        assert warnings[0].meta["seconds_requested"] == 5.0

    def test_governor_defaults_flow_into_jobs(self):
        runner = BatchRunner(
            fds_jobs()[:1],
            default_max_steps=7,
            default_ladder=True,
        )
        options = runner.jobs[0].options
        assert options.max_steps == 7
        assert options.ladder is True

    def test_budget_breach_with_ladder_salvages_in_json(self):
        jobs = parse_manifest(
            {
                "jobs": [
                    {
                        "suite": "fig3",
                        "engine": "tvla-relational",
                        "options": {"max_steps": 5, "ladder": True},
                    }
                ]
            }
        )
        result = BatchRunner(jobs, max_workers=1).run()
        assert result.ok
        record = result.to_json()["results"][0]
        assert record["status"] == "ok"
        assert record["governor"]["breach"] == "steps"
        assert record["governor"]["degraded_to"] == "fds"
        assert record["governor"]["salvaged"] is not None
        assert record["governor"]["unknown_sites"] is not None
        assert record["verdict"]["partial"] is True
        # the merged (conservative) report still alarms the real
        # error lines, alongside any unresolved-site alarms
        assert {10, 13} <= set(result.results[0].alarm_lines)


class TestBatchCli:
    def _write_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(FDS_JOBS))
        return manifest

    def test_batch_subcommand_end_to_end(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        trace = tmp_path / "out.jsonl"
        code = main(
            [
                "batch",
                str(manifest),
                "--jobs",
                "2",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4/4 jobs ok" in out
        assert trace.exists() and trace.read_text().strip()

    def test_batch_json_summary_stdout(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        assert (
            main(["batch", str(manifest), "--json", "-", "--quiet"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and len(data["results"]) == 4

    @pytest.mark.parametrize("layout", ["plain", "pooled"])
    def test_batch_governor_flags_end_to_end(self, tmp_path, capsys, layout):
        # the governor flags reach the job whether it runs in-process or
        # is pickled to a pool worker
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"jobs": [{"suite": "fig3", "engine": "tvla-relational"}]}
            )
        )
        jobs = {"plain": [], "pooled": ["--jobs", "2"]}[layout]
        code = main(
            [
                "batch",
                str(manifest),
                *jobs,
                "--max-steps",
                "5",
                "--ladder",
                "--json",
                "-",
                "--quiet",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)["results"][0]
        assert record["status"] == "ok"
        assert record["governor"]["breach"] == "steps"
        assert record["governor"]["degraded_to"] == "fds"
        assert record["governor"]["salvaged"] is not None

    def test_batch_without_manifest_exit_2(self, capsys):
        assert main(["batch", "--quiet"]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "2"],
            ["--shard-dir", "{shards}"],
            ["--write-shards"],
            ["--shard-index", "0"],
            ["--merge-shards"],
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    def test_retired_shard_flags_exit_2_and_write_nothing(
        self, tmp_path, capsys, flags
    ):
        # batch has one output layout; a flag of the retired shard
        # layout is a usage error, never silently dropped
        manifest = self._write_manifest(tmp_path)
        out = tmp_path / "out"
        shards = tmp_path / "shards"
        code = main(
            [
                "batch",
                str(manifest),
                *[flag.format(shards=shards) for flag in flags],
                "--emit-certs",
                str(out),
                "--quiet",
            ]
        )
        assert code == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists() and not shards.exists()

    def test_batch_help_lists_no_shard_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--emit-certs" in out and "--checkpoint-dir" in out
        assert "shard" not in out

    def test_checkpoint_then_resume_restores_every_job(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        certs = tmp_path / "certs"
        run = [
            "batch",
            str(manifest),
            "--emit-certs",
            str(certs),
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
            "--json",
            "-",
            "--quiet",
        ]
        assert main(run) == 0
        first = json.loads(capsys.readouterr().out)
        written = {path.name: path.read_bytes() for path in certs.iterdir()}
        assert len(written) == 4
        assert main([*run, "--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["resumed"] == 4
        assert [r["status"] for r in resumed["results"]] == [
            r["status"] for r in first["results"]
        ]
        assert {
            path.name: path.read_bytes() for path in certs.iterdir()
        } == written

    def test_resume_without_checkpoint_dir_exit_2(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        assert main(["batch", str(manifest), "--resume", "--quiet"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_batch_bad_manifest_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{not json")
        assert main(["batch", str(manifest)]) == 2
        assert "bad manifest" in capsys.readouterr().err

    def test_batch_failed_job_exit_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "suite": "fig3",
                            "engine": "tvla-relational",
                            "timeout": 0.0005,
                        }
                    ]
                }
            )
        )
        assert main(["batch", str(manifest)]) == 1
