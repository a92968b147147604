"""The chaos harness itself: fault injection primitives and campaigns."""

import errno
import os

import pytest

from repro.testing.chaos import (
    LAYER_CYCLE,
    SCENARIOS,
    ClockJumper,
    FaultyIO,
    SimulatedCrash,
    plan_layers,
    run_batch_scenario,
    run_campaign,
    run_serve_scenario,
    run_store_scenario,
)


class TestFaultyIO:
    def test_kill_mid_write_leaves_exact_prefix(self, tmp_path):
        io = FaultyIO(kill_after_bytes=5)
        with pytest.raises(SimulatedCrash):
            io.atomic_write_text(str(tmp_path / "obj"), "0123456789")
        assert not (tmp_path / "obj").exists()
        temps = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith(".tmp-")
        ]
        assert len(temps) == 1
        with open(tmp_path / temps[0], "rb") as handle:
            assert handle.read() == b"01234"

    def test_dead_process_refuses_every_later_op(self, tmp_path):
        io = FaultyIO(kill_after_bytes=0)
        with pytest.raises(SimulatedCrash):
            io.atomic_write_text(str(tmp_path / "a"), "x")
        assert io.dead
        for attempt in (
            lambda: io.atomic_write_text(str(tmp_path / "b"), "y"),
            lambda: io.append_line(str(tmp_path / "c"), "z"),
            lambda: io.read_text(str(tmp_path / "a")),
            lambda: io.makedirs(str(tmp_path / "d")),
        ):
            with pytest.raises(SimulatedCrash):
                attempt()

    def test_same_budget_same_kill_point(self, tmp_path):
        outcomes = []
        for attempt in range(2):
            io = FaultyIO(kill_after_bytes=7)
            try:
                io.atomic_write_text(
                    str(tmp_path / f"r{attempt}"), "determinism!"
                )
            except SimulatedCrash:
                pass
            outcomes.append((io.bytes_written, io.ops, io.dead))
        assert outcomes[0] == outcomes[1]

    def test_fail_ops_surfaces_errno_then_recovers(self, tmp_path):
        io = FaultyIO(fail_ops={2: errno.ENOSPC})
        path = str(tmp_path / "f")
        with pytest.raises(OSError) as info:
            io.atomic_write_text(path, "hello")
        assert info.value.errno == errno.ENOSPC
        assert not io.dead  # full disk is not a dead process
        io.atomic_write_text(path, "hello")  # the medium came back
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "hello"


class TestClockJumper:
    def test_jumps_both_directions(self):
        clock = ClockJumper(start=100.0)
        assert clock() == 100.0
        clock.jump(3600.0)
        assert clock() == 3700.0
        clock.jump(-7200.0)
        assert clock() == -3500.0


class TestCampaignPlanning:
    def test_plan_is_deterministic_and_store_weighted(self):
        plan = plan_layers(20, ("store", "serve", "batch"))
        assert plan == plan_layers(20, ("store", "serve", "batch"))
        assert plan.count("store") > plan.count("serve")
        assert plan.count("store") > plan.count("batch")
        assert set(plan) == {"store", "serve", "batch"}

    def test_single_layer_plan(self):
        assert plan_layers(3, ("batch",)) == ["batch"] * 3

    def test_unknown_layers_rejected(self):
        with pytest.raises(ValueError):
            plan_layers(5, ("postgres",))
        with pytest.raises(ValueError):
            run_campaign(1, layers=("postgres",))

    def test_summarydb_is_the_only_opt_in_layer(self):
        assert set(SCENARIOS) - set(LAYER_CYCLE) == {"summarydb"}
        assert plan_layers(4, ("batch", "summarydb")) == [
            "batch", "summarydb", "batch", "summarydb"
        ]

    def test_retired_coordinator_layer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plan_layers(2, ("coordinator",))
        with pytest.raises(ValueError):
            run_campaign(
                1, layers=("coordinator",), workdir=str(tmp_path)
            )

    def test_cli_rejects_the_coordinator_layer(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "chaos",
                "--schedules",
                "1",
                "--layers",
                "coordinator",
                "--workdir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "coordinator" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class TestScenarios:
    def test_store_scenario_survives(self, tmp_path):
        result = run_store_scenario(11, str(tmp_path))
        assert result.layer == "store"
        assert result.ok, result.violations
        assert result.kind  # a concrete fault was picked

    def test_serve_scenario_survives(self, tmp_path):
        result = run_serve_scenario(3, str(tmp_path))
        assert result.layer == "serve"
        assert result.ok, result.violations

    def test_batch_scenario_survives(self, tmp_path):
        result = run_batch_scenario(5, str(tmp_path))
        assert result.layer == "batch"
        assert result.ok, result.violations
        assert result.notes.get("resumed_jobs", 0) >= 1

    def test_summarydb_kill_mid_put(self, tmp_path):
        from repro.testing.chaos import run_summarydb_scenario

        result = run_summarydb_scenario(11, str(tmp_path))
        assert result.ok, result.violations
        assert result.notes["crashed"]

    def test_store_campaign_report_shape(self, tmp_path):
        report = run_campaign(
            4, seed=13, layers=("store",), workdir=str(tmp_path)
        )
        assert report.ok, report.violations
        payload = report.to_json()
        assert payload["schedules"] == 4
        assert payload["seed"] == 13
        assert payload["by_layer"]["store"] == {
            "schedules": 4,
            "survived": 4,
        }
        assert payload["violations"] == []
        assert len(payload["results"]) == 4
        # each schedule derives its own seed from (seed, index)
        assert [r["seed"] for r in payload["results"]] == [
            13 * 1_000_003 + i for i in range(4)
        ]
        assert "4/4 survived" in report.format_summary()
