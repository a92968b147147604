"""Batch checkpoint/resume: the journal, re-verification, crash kinds."""

import hashlib
import json
import multiprocessing
import os
import signal

import pytest

import repro.runtime.batch as batch_module
from repro.runtime.batch import BatchRunner, JobSpec, JobTimedOut, job_key
from repro.suite import by_name

FIG3 = by_name("fig3").source
SEC3 = by_name("sec3_loop").source

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)


def make_jobs():
    return [
        JobSpec(name="fig3", spec="cmp", source=FIG3, engine="fds"),
        JobSpec(name="sec3", spec="cmp", source=SEC3, engine="fds"),
    ]


def make_runner(tmp_path, *, resume=False, jobs=None):
    return BatchRunner(
        jobs or make_jobs(),
        max_workers=1,
        emit_certs_dir=str(tmp_path / "certs"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        resume=resume,
    )


def four_jobs():
    return [
        JobSpec(
            name=name, spec="cmp", source=by_name(name).source, engine="fds"
        )
        for name in ("fig3", "scanner", "sec3_loop", "alias_chain")
    ]


def cert_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
    }


def journal_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class TestJournal:
    def test_one_fsynced_record_per_job(self, tmp_path):
        runner = make_runner(tmp_path)
        result = runner.run()
        assert result.ok and result.resumed == 0
        records = journal_records(runner.journal_path)
        assert len(records) == 2
        keys = [job_key(job) for job in runner.jobs]
        assert [record["key"] for record in records] == keys
        for record in records:
            assert record["v"] == 1
            assert record["status"] == "ok"
            # the journaled hash matches the certificate on disk
            with open(record["certificate_path"], "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            assert record["cert_sha256"] == digest

    def test_run_id_is_deterministic(self, tmp_path):
        first = make_runner(tmp_path)
        second = make_runner(tmp_path)
        assert first.run_id == second.run_id
        assert first.journal_path == second.journal_path

    def test_source_change_changes_job_key(self):
        job = JobSpec(name="fig3", spec="cmp", source=FIG3, engine="fds")
        edited = JobSpec(
            name="fig3", spec="cmp", source=FIG3 + "\n", engine="fds"
        )
        assert job_key(job) != job_key(edited)


class TestResume:
    def test_resume_skips_finished_work(self, tmp_path):
        first = make_runner(tmp_path)
        original = first.run()
        journal_before = journal_records(first.journal_path)

        second = make_runner(tmp_path, resume=True)
        resumed = second.run()
        assert resumed.resumed == 2
        assert all(result.resumed for result in resumed.results)
        for before, after in zip(original.results, resumed.results):
            assert after.status == before.status
            assert after.certified == before.certified
            assert after.alarms == before.alarms
        # nothing re-ran, so nothing was re-journaled
        assert journal_records(first.journal_path) == journal_before

    def test_tampered_certificate_sends_job_back(self, tmp_path):
        first = make_runner(tmp_path)
        first.run()
        records = journal_records(first.journal_path)
        victim_path = records[0]["certificate_path"]
        with open(victim_path, "r", encoding="utf-8") as handle:
            good = handle.read()
        with open(victim_path, "w", encoding="utf-8") as handle:
            handle.write(good[: len(good) // 2])  # torn/tampered

        second = make_runner(tmp_path, resume=True)
        result = second.run()
        assert result.resumed == 1  # only the intact job was trusted
        assert result.results[0].resumed is False
        assert result.results[1].resumed is True
        with open(victim_path, "r", encoding="utf-8") as handle:
            assert handle.read() == good  # re-run restored it exactly
        assert len(journal_records(first.journal_path)) == 3

    def test_missing_certificate_sends_job_back(self, tmp_path):
        first = make_runner(tmp_path)
        first.run()
        records = journal_records(first.journal_path)
        os.unlink(records[1]["certificate_path"])
        result = make_runner(tmp_path, resume=True).run()
        assert result.resumed == 1
        assert result.results[1].resumed is False

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        first = make_runner(tmp_path)
        first.run()
        with open(first.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "key"')  # killed mid-append
        result = make_runner(tmp_path, resume=True).run()
        assert result.resumed == 2

    def test_resume_with_no_journal_runs_everything(self, tmp_path):
        runner = make_runner(tmp_path, resume=True)
        result = runner.run()
        assert result.resumed == 0
        assert result.ok

    def test_partial_journal_resumes_the_rest_byte_identically(
        self, tmp_path
    ):
        # a journal that holds only part of the manifest restores that
        # part; the rest runs, and every certificate matches a fresh run
        jobs = four_jobs()
        partial = BatchRunner(
            jobs[:2],
            emit_certs_dir=str(tmp_path / "certs"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            run_id="r1",
        )
        assert partial.run().ok
        resumed = BatchRunner(
            jobs,
            emit_certs_dir=str(tmp_path / "certs"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            run_id="r1",
            resume=True,
        ).run()
        assert resumed.ok and resumed.resumed == 2
        assert [r.resumed for r in resumed.results] == [
            True, True, False, False
        ]
        fresh = BatchRunner(jobs, emit_certs_dir=str(tmp_path / "fresh")).run()
        assert [r.alarm_lines for r in resumed.results] == [
            r.alarm_lines for r in fresh.results
        ]
        assert cert_bytes(tmp_path / "certs") == cert_bytes(tmp_path / "fresh")
        assert len(journal_records(partial.journal_path)) == 4

    def test_pooled_resume_keeps_manifest_order(self, tmp_path):
        # restored and re-run jobs interleave in manifest order, whether
        # the journal was written in-process and the resume runs a pool
        jobs = four_jobs()
        BatchRunner(
            [jobs[0], jobs[2]],
            checkpoint_dir=str(tmp_path / "ckpt"),
            run_id="r1",
        ).run()
        resumed = BatchRunner(
            jobs,
            max_workers=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            run_id="r1",
            resume=True,
        ).run()
        assert resumed.ok and resumed.resumed == 2
        assert [r.job.name for r in resumed.results] == [
            job.name for job in jobs
        ]
        assert [r.resumed for r in resumed.results] == [
            True, False, True, False
        ]


def _raise_value_error(item):
    raise ValueError("deliberate worker-side failure")


def _raise_timeout(item):
    raise JobTimedOut("deliberate stall")


def _kill_self(item):
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashKinds:
    def test_exception_kind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_execute_certification", _raise_value_error
        )
        runner = BatchRunner(
            [JobSpec(name="fig3", spec="cmp", source=FIG3, engine="fds")],
            max_workers=1,
        )
        result = runner.run()
        job = result.results[0]
        assert job.status == "error"
        assert job.crash_kind == "exception"
        assert job.summary_record()["meta"]["crash"] == "exception"

    def test_timeout_kind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_execute_certification", _raise_timeout
        )
        runner = BatchRunner(
            [JobSpec(name="fig3", spec="cmp", source=FIG3, engine="fds")],
            max_workers=1,
            max_retries=0,
        )
        result = runner.run()
        job = result.results[0]
        assert job.status == "timeout"
        assert job.crash_kind == "timeout"

    @needs_fork
    def test_signal_kind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_execute_certification", _kill_self
        )
        runner = BatchRunner(
            [JobSpec(name="fig3", spec="cmp", source=FIG3, engine="fds")],
            max_workers=2,
            max_retries=1,
        )
        result = runner.run()
        job = result.results[0]
        assert job.status == "error"
        assert job.crash_kind == "signal"
        record = result.to_json()["results"][0]
        assert record["crash"] == "signal"
