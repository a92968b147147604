"""End-to-end tests for the ``repro`` CLI subcommands.

Each subcommand (``batch``, ``bench``, ``fuzz``) is driven through
:func:`repro.cli.main` exactly as the console script would be: exit
codes, ``--json`` payload shapes, and the bad-input error paths
(malformed manifests, unknown engines, malformed seed ranges).
"""

import json

import pytest

from repro.cli import main, parse_args


def _run_json(capsys, argv):
    exit_code = main(argv)
    output = capsys.readouterr().out
    return exit_code, json.loads(output)


class TestBatchCli:
    def test_manifest_runs_and_json_shape(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(
            json.dumps(
                {
                    "spec": "cmp",
                    "jobs": [
                        {"suite": "fig3", "engine": "fds"},
                        {"suite": "scanner", "engine": "fds"},
                    ],
                }
            )
        )
        exit_code, payload = _run_json(
            capsys,
            ["batch", str(manifest), "--json", "-", "--quiet"],
        )
        assert exit_code == 0
        assert payload["ok"] is True
        assert len(payload["results"]) == 2
        statuses = {result["status"] for result in payload["results"]}
        assert statuses == {"ok"}

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        exit_code = main(["batch", str(tmp_path / "nope.json")])
        assert exit_code == 2
        assert "bad manifest" in capsys.readouterr().err

    def test_malformed_json_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "broken.json"
        manifest.write_text("{not json")
        assert main(["batch", str(manifest)]) == 2
        assert "bad manifest" in capsys.readouterr().err

    def test_bad_manifest_schema_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "schema.json"
        manifest.write_text(
            json.dumps({"jobs": [{"engine": "fds"}]})  # no source
        )
        assert main(["batch", str(manifest)]) == 2
        assert "bad manifest" in capsys.readouterr().err


class TestBenchCli:
    def test_precision_table_json_shape(self, capsys):
        exit_code, payload = _run_json(
            capsys,
            [
                "bench",
                "--engines",
                "fds",
                "--programs",
                "fig3",
                "--json",
                "-",
                "--quiet",
            ],
        )
        assert exit_code == 0
        assert payload["kind"] == "precision"
        (row,) = payload["programs"]
        assert row["program"] == "fig3"
        assert "fds" in row["engines"]
        assert row["engines"]["fds"]["sound"] is True

    def test_unknown_engine_exits_2(self, capsys):
        assert main(["bench", "--engines", "bogus"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unknown_program_exits_2(self, capsys):
        assert main(["bench", "--programs", "no_such_prog"]) == 2
        assert "unknown suite program" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, flags, named",
        [
            ("--scale", ["--spec", "grp"], ["--spec"]),
            ("--scale", ["--engines", "fds"], ["--engines"]),
            ("--scale", ["--programs", "fig3"], ["--programs"]),
            (
                "--scale",
                ["--deadline", "1", "--max-steps", "5", "--ladder"],
                ["--deadline", "--max-steps", "--ladder"],
            ),
            ("--incremental", ["--engines", "fds"], ["--engines"]),
            ("--incremental", ["--programs", "fig3"], ["--programs"]),
            (
                "--incremental",
                ["--max-structures", "1", "--max-steps", "0"],
                ["--max-steps", "--max-structures"],
            ),
        ],
    )
    def test_flags_the_mode_cannot_honour_exit_2(
        self, capsys, mode, flags, named
    ):
        # these used to exit 0 after running the mode without the flags
        assert main(["bench", mode, *flags, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"conflict(s) with {mode}" in err
        for flag in named:
            assert flag in err

    @pytest.mark.parametrize(
        "mode, flags, named",
        [
            (
                [],
                ["--seeds", "8", "--scale-sizes", "5", "--min-speedup", "9"],
                ["--seeds", "--scale-sizes", "--min-speedup"],
            ),
            ([], ["--no-warm-cold"], ["--no-warm-cold"]),
            # a flag given at its default value counts as given
            ([], ["--edits", "5", "--scale-seed", "1"], ["--edits", "--scale-seed"]),
            # an abbreviation names its flag
            ([], ["--superlinear", "2"], ["--superlinear-factor"]),
            (
                ["--incremental"],
                ["--scale-sizes", "5", "--families", "deep-calls"],
                ["--scale-sizes", "--families"],
            ),
            (
                ["--incremental"],
                ["--min-warm-speedup", "2", "--warm-cold-target", "9"],
                ["--min-warm-speedup", "--warm-cold-target"],
            ),
            (
                ["--scale"],
                ["--seeds", "2", "--reps", "1", "--distances", "1"],
                ["--seeds", "--reps", "--distances"],
            ),
            (
                ["--scale"],
                ["--edit-seed", "0", "--min-speedup", "2"],
                ["--edit-seed", "--min-speedup"],
            ),
        ],
    )
    def test_flags_of_another_mode_exit_2(self, capsys, mode, flags, named):
        # these used to run the mode with the flags silently ignored
        assert main(["bench", *mode, *flags, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"conflict(s) with {mode[0] if mode else 'the precision table'}" in err
        for flag in named:
            assert flag in err

    def test_precision_table_takes_its_own_flags(self, capsys):
        exit_code, payload = _run_json(
            capsys,
            [
                "bench",
                "--engines",
                "fds",
                "--programs",
                "fig3",
                "--spec",
                "cmp",
                "--check",
                "--json",
                "-",
                "--quiet",
            ],
        )
        assert exit_code == 0
        assert payload["kind"] == "precision"

    def test_given_options_come_from_argv(self):
        args = parse_args(["bench", "--incremental", "--seeds", "8", "--reps=5"])
        assert args.given == {"--incremental", "--seeds", "--reps"}
        assert (args.seeds, args.edits, args.reps) == (8, 5, 5)

    def test_scale_and_incremental_are_exclusive(self, capsys):
        # this used to run only the scale bench
        assert main(["bench", "--scale", "--incremental"]) == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "--incremental" in err


class TestFuzzCli:
    def test_small_run_json_shape(self, capsys):
        exit_code, payload = _run_json(
            capsys,
            [
                "fuzz",
                "--seed-range",
                "0:3",
                "--engines",
                "fds,relational",
                "--size",
                "8",
                "--max-paths",
                "2000",
                "--json",
                "-",
                "--quiet",
            ],
        )
        assert exit_code == 0
        assert payload["ok"] is True
        assert payload["programs"] == 3
        assert payload["engines"] == ["fds", "relational"]
        assert "signatures" in payload and "oracle" in payload
        assert payload["failures"] == []

    def test_governor_flags_gate_breached_runs(self, capsys):
        exit_code, payload = _run_json(
            capsys,
            [
                "fuzz",
                "--seed-range",
                "0:3",
                "--engines",
                "fds",
                "--size",
                "8",
                "--max-paths",
                "2000",
                "--governor-steps",
                "2",
                "--json",
                "-",
                "--quiet",
            ],
        )
        assert exit_code == 0
        assert payload["ok"] is True  # breached, but sound under budget
        assert payload["engine_breaches"] == {"fds": 3}

    @pytest.mark.parametrize(
        "bad", ["nope", "1", "3:1", "-2:5", "a:b", "1:2:3"]
    )
    def test_bad_seed_range_exits_2(self, bad, capsys):
        # the `=` form keeps argparse from eating values with a leading -
        assert main(["fuzz", f"--seed-range={bad}"]) == 2
        assert "bad --seed-range" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        assert main(["fuzz", "--seed-range", "0:1", "--engines", "zzz"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_bench_governor_budget_with_ladder_stays_sound(self, capsys):
        exit_code, payload = _run_json(
            capsys,
            [
                "bench",
                "--programs",
                "loop_invalidate",
                "--engines",
                "tvla-relational",
                "--max-structures",
                "1",
                "--ladder",
                "--check",
                "--json",
                "-",
                "--quiet",
            ],
        )
        assert exit_code == 0  # --check holds: sound despite the breach
        run = payload["programs"][0]["engines"]["tvla-relational"]
        assert run["sound"] is True
        assert run["missed"] == 0

    def test_auto_engine_rejected(self, capsys):
        # "auto" resolves per-program and would make the differential
        # table meaningless
        assert main(["fuzz", "--seed-range", "0:1", "--engines", "auto"]) == 2

    def test_corpus_written_on_failure(self, tmp_path, capsys, monkeypatch):
        # force a failure by monkeypatching an engine to certify
        # everything; the campaign must write a corpus entry for it
        import repro.fuzz.diff as diff_mod
        from repro.certifier.report import CertificationReport

        real = diff_mod.CertifySession.certify_program

        def lying(self, program, engine=None):
            if engine == "fds":
                return CertificationReport(subject="lie", engine="fds")
            return real(self, program, engine)

        monkeypatch.setattr(
            diff_mod.CertifySession, "certify_program", lying
        )
        corpus = tmp_path / "corpus"
        exit_code = main(
            [
                "fuzz",
                "--seed-range",
                "0:6",
                "--engines",
                "fds",
                "--max-paths",
                "2000",
                "--corpus",
                str(corpus),
                "--quiet",
            ]
        )
        assert exit_code == 1
        entries = sorted(corpus.glob("*.json"))
        assert entries, "no corpus entry written for the forced failure"
        record = json.loads(entries[0].read_text())
        assert record["kind"] == "miss"
        assert any("fds:miss" in f for f in record["failure"])
