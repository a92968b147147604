"""Tests for the experiment harness and synthetic generators."""


from repro.bench.harness import format_table, run_engine, run_precision_table
from repro.bench.synthetic import make_call_chain, make_client
from repro.lang import parse_program
from repro.runtime import ExplorationBudget, explore
from repro.suite import by_name


class TestSynthetic:
    def test_generator_deterministic(self):
        assert make_client(seed=3) == make_client(seed=3)
        assert make_client(seed=3) != make_client(seed=4)

    def test_explicit_rng_controls_stream(self):
        import random

        assert make_client(rng=random.Random(3)) == make_client(seed=3)
        # a shared rng advances across calls instead of resetting
        shared = random.Random(3)
        first = make_client(rng=shared)
        second = make_client(rng=shared)
        assert first != second

    def test_generated_client_parses(self, cmp_specification):
        program = parse_program(make_client(3, 5, 40, 9), cmp_specification)
        assert program.is_shallow()
        assert program.call_sites

    def test_call_chain_depth(self, cmp_specification):
        program = parse_program(make_call_chain(5), cmp_specification)
        assert {f"Main.p{i}" for i in range(5)} <= set(program.methods)

    def test_call_chain_mutation_toggle(self, cmp_specification):
        hot = parse_program(make_call_chain(3, True), cmp_specification)
        cold = parse_program(make_call_chain(3, False), cmp_specification)
        assert explore(hot).failing_sites()
        assert not explore(cold).failing_sites()


class TestHarness:
    def test_run_engine_reports_precision(self, cmp_specification):
        bench = by_name("fig3")
        program = parse_program(bench.source, cmp_specification)
        truth = explore(program)
        run = run_engine(program, truth, "fds")
        assert run.sound and run.false_alarms == 0
        assert run.alarm_lines == sorted(bench.expected_error_lines)

    def test_run_engine_captures_failures(self, cmp_specification):
        bench = by_name("fig3")
        program = parse_program(bench.source, cmp_specification)
        truth = explore(program)
        run = run_engine(program, truth, "nope")
        assert run.error is not None and not run.sound

    def test_table_slice_and_formatting(self, cmp_specification):
        results = run_precision_table(
            programs=[by_name("fig3"), by_name("holder_safe")],
            budget=ExplorationBudget(max_paths=2000),
        )
        assert len(results) == 2
        text = format_table(results)
        assert "fig3" in text and "TOTAL" in text
        # heap program has no fds column entry
        assert "—" in text


class TestHeapClientGenerator:
    def test_deterministic(self):
        from repro.bench.synthetic import make_heap_client

        assert make_heap_client(3, 3, 2, 3) == make_heap_client(3, 3, 2, 3)
        assert make_heap_client(3, 3, 2, 3) != make_heap_client(3, 3, 2, 4)

    def test_parses_and_is_heap_shaped(self, cmp_specification):
        from repro.bench.synthetic import make_heap_client

        program = parse_program(
            make_heap_client(2, 2, 1, 2), cmp_specification
        )
        assert not program.is_shallow()  # holders pin iterators in fields


class TestPackedFuzzOracle:
    def test_campaign_is_sound_under_packed(self):
        """The differential fuzz oracle over the bit-plane TVLA kernel:
        no engine may miss a concretely-witnessed error."""
        from repro.fuzz.diff import run_campaign

        result = run_campaign(seeds=range(0, 6), engines=("tvla-relational",))
        assert result.ok, [f.seed for f in result.failures]
        assert result.seeds_run == list(range(0, 6))
