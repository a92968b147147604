"""Tests for the differential fuzzing subsystem (repro.fuzz)."""

import random

import pytest

from repro.api import CertifySession
from repro.fuzz import (
    DEFAULT_FUZZ_ENGINES,
    FuzzConfig,
    Oracle,
    generate_client,
    run_campaign,
    run_case,
    shrink_source,
    validate_witnesses,
)
from repro.fuzz.shrink import (
    corpus_entry_name,
    load_corpus,
    write_corpus_entry,
)
from repro.lang.types import parse_program
from tests.jlite_oracle import parse_program_ast


class TestGenerator:
    def test_deterministic_per_seed(self):
        for seed in (0, 7, 123):
            assert generate_client(seed) == generate_client(seed)

    def test_distinct_seeds_differ(self):
        sources = {generate_client(seed) for seed in range(20)}
        assert len(sources) > 15

    def test_explicit_rng_matches_seed(self):
        assert generate_client(42) == generate_client(
            42, rng=random.Random(42)
        )

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_programs_parse_and_stay_shallow(self, seed, cmp_specification):
        program = parse_program(
            generate_client(seed), cmp_specification
        )
        assert program.is_shallow()
        assert program.call_sites  # every program talks to the component

    def test_config_knobs_bound_size(self):
        config = FuzzConfig(
            max_stmts=4, max_helpers=0, num_sets=1, num_iters=1
        )
        source = generate_client(5, config)
        assert "h0" not in source
        assert source.count("\n") < 20

    def test_scaled_config(self):
        config = FuzzConfig().scaled(2.0)
        assert config.max_stmts == 32
        assert config.num_sets == 4


class TestOracleAndCase:
    def test_known_violating_program(self, cmp_specification):
        source = """class Main {
  static void main() {
    Set s = new Set();
    Iterator i = s.iterator();
    s.add("x");
    i.next();
  }
}
"""
        case = run_case(source, cmp_specification, seed=99)
        assert case.verdict.has_violation
        assert case.verdict.failing_lines() == {6}
        for outcome in case.outcomes.values():
            assert outcome.sound, outcome
        assert case.ok

    def test_known_safe_program_all_engines_agree(self, cmp_specification):
        source = """class Main {
  static void main() {
    Set s = new Set();
    Iterator i = s.iterator();
    i.next();
    s.add("x");
  }
}
"""
        case = run_case(source, cmp_specification, seed=98)
        assert not case.verdict.has_violation
        assert not case.disagreement
        assert case.signature().count("<") == 0

    def test_witness_validation_rejects_false_definite(
        self, cmp_specification
    ):
        # a report claiming a definite violation at a site the complete
        # exploration saw pass must be flagged
        from repro.certifier.report import Alarm, CertificationReport

        source = """class Main {
  static void main() {
    Set s = new Set();
    Iterator i = s.iterator();
    i.next();
  }
}
"""
        program = parse_program(source, cmp_specification)
        verdict = Oracle().run(program)
        assert not verdict.truncated and not verdict.failing_sites
        site_id = next(  # the i.next() site (iterator() is site 0)
            s
            for s in verdict.reached_sites
            if verdict.site_lines[s] == 5
        )
        bogus = CertificationReport(
            subject="t",
            engine="fake",
            alarms=[
                Alarm(
                    site_id=site_id,
                    line=5,
                    op_key="Iterator.next",
                    instance="x",
                    definite=True,
                )
            ],
        )
        issues = validate_witnesses(bogus, verdict)
        assert len(issues) == 1
        assert issues[0].kind == "definite-never-fails"
        # a merely-possible alarm is ordinary imprecision, not an issue
        bogus.alarms[0] = Alarm(
            site_id=site_id,
            line=5,
            op_key="Iterator.next",
            instance="x",
            definite=False,
        )
        assert validate_witnesses(bogus, verdict) == []


class TestCampaign:
    def test_small_campaign_sound(self, cmp_specification):
        result = run_campaign(
            range(6),
            spec=cmp_specification,
            engines=("fds", "relational"),
        )
        assert result.ok
        assert len(result.seeds_run) == 6
        summary = result.format_summary()
        assert "soundness gate: PASS" in summary
        payload = result.to_json()
        assert payload["ok"] and payload["programs"] == 6
        assert set(payload["engines"]) == {"fds", "relational"}

    def test_time_budget_stops_early(self, cmp_specification):
        result = run_campaign(
            range(1_000),
            spec=cmp_specification,
            engines=("fds",),
            time_budget=0.0,
        )
        assert result.budget_exhausted
        assert len(result.seeds_run) < 1_000

    def test_default_engines_cover_all_families(self):
        assert set(DEFAULT_FUZZ_ENGINES) == {
            "fds",
            "relational",
            "interproc",
            "tvla-relational",
            "allocsite",
        }


class TestBudgetGate:
    """Soundness-under-budget: breached runs must cover oracle sites."""

    def test_breached_case_is_gated_not_crashed(self, cmp_specification):
        from repro.api import CertifyOptions

        case = run_case(
            generate_client(3),
            cmp_specification,
            engines=("fds", "tvla-relational"),
            options=CertifyOptions(max_steps=2),
        )
        assert case.ok  # partials covered the oracle sites
        for outcome in case.outcomes.values():
            assert outcome.breached
            assert outcome.breach == "steps"
            assert not outcome.crashed
            assert outcome.budget_missed_sites == ()
            # breached alarm sets are partial: excluded from precision
            assert not case.partition()
        assert not case.disagreement

    def test_budget_miss_fails_the_gate(self):
        """A partial that drops an oracle failing site is a violation
        with its own shrink signature."""
        from repro.fuzz.diff import EngineOutcome

        outcome = EngineOutcome(
            engine="fds",
            breach="steps",
            budget_missed_sites=(4,),
        )
        assert not outcome.sound
        case_fields = dict(
            seed=0,
            source="",
            verdict=None,
            outcomes={"fds": outcome},
        )
        from repro.fuzz.diff import CaseResult

        case = CaseResult(**case_fields)
        assert not case.ok
        assert case.failure_signature() == frozenset(
            {("fds", "budget-miss")}
        )

    def test_ladder_campaign_stays_sound(self, cmp_specification):
        from repro.api import CertifyOptions

        result = run_campaign(
            range(4),
            spec=cmp_specification,
            engines=("fds", "tvla-relational"),
            options=CertifyOptions(max_steps=3, ladder=True),
        )
        assert result.ok
        assert result.engine_breaches  # the budget really bit
        payload = result.to_json()
        assert payload["engine_breaches"] == dict(result.engine_breaches)
        assert "budget breaches:" in result.format_summary()

    def test_campaign_without_budget_reports_no_breaches(
        self, cmp_specification
    ):
        result = run_campaign(
            range(2), spec=cmp_specification, engines=("fds",)
        )
        assert result.engine_breaches == {}
        assert "budget breaches:" not in result.format_summary()


class TestShrink:
    def test_shrinks_while_preserving_predicate(self, cmp_specification):
        session = CertifySession(cmp_specification)
        source = generate_client(8)

        def fds_alarms(candidate):
            program = parse_program(candidate, cmp_specification)
            return bool(
                session.certify_program(program, "fds").alarm_sites()
            )

        reduced = shrink_source(source, fds_alarms)
        assert fds_alarms(reduced)
        assert len(reduced) < len(source)
        parse_program_ast(reduced)  # still well-formed

    def test_uninteresting_source_unchanged(self):
        source = "class Main {\n  static void main() {\n  }\n}\n"
        assert shrink_source(source, lambda _s: False) == source

    def test_corpus_roundtrip(self, tmp_path):
        source = "class Main {\n  static void main() {\n  }\n}\n"
        write_corpus_entry(
            str(tmp_path),
            "entry_a",
            source,
            {"kind": "disagreement", "spec": "cmp", "seed": 1},
        )
        entries = load_corpus(str(tmp_path))
        assert len(entries) == 1
        assert entries[0]["source"] == source
        assert entries[0]["name"] == "entry_a"
        assert entries[0]["kind"] == "disagreement"

    def test_corpus_entry_name_collisions(self):
        first = corpus_entry_name(7, "witness", [])
        second = corpus_entry_name(7, "witness", [first])
        assert first != second
        assert first.startswith("seed000007_witness")
