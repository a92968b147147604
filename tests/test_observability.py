"""Tests for the tracing layer and the bounded caches."""

import json
import pickle

import pytest

from repro.runtime.cache import LRUCache, stable_key
from repro.runtime.trace import (
    NULL_TRACER,
    CollectingTracer,
    TraceEvent,
    current_tracer,
    phase,
    use_tracer,
    validate_trace_record,
    write_events,
)


class TestPhaseTracing:
    def test_default_tracer_is_noop(self):
        assert current_tracer() is NULL_TRACER
        with phase("fixpoint", engine="fds") as meta:
            meta["iterations"] = 3  # must not raise without a tracer

    def test_collects_events_with_meta_and_duration(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            with phase("fixpoint", engine="fds") as meta:
                meta["iterations"] = 7
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event.phase == "fixpoint"
        assert event.seconds >= 0
        assert event.meta == {"engine": "fds", "iterations": 7}

    def test_tracer_restored_after_block(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_event_emitted_even_on_exception(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            with pytest.raises(RuntimeError):
                with phase("fixpoint"):
                    raise RuntimeError("budget exceeded")
        (event,) = tracer.events
        assert event.meta["error"] == "RuntimeError"

    def test_nested_phases_both_emit(self):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            with phase("outer"):
                with phase("inner"):
                    pass
        assert [e.phase for e in tracer.events] == ["inner", "outer"]

    def test_totals_sums_per_phase(self):
        tracer = CollectingTracer()
        tracer.emit(TraceEvent("derive", 1.0))
        tracer.emit(TraceEvent("derive", 0.5))
        tracer.emit(TraceEvent("fixpoint", 0.25))
        assert tracer.totals() == {"derive": 1.5, "fixpoint": 0.25}

    def test_events_are_picklable(self):
        event = TraceEvent("derive", 0.1, {"spec": "CMP"}, job="j1", ts=1.0)
        clone = pickle.loads(pickle.dumps(event))
        assert clone.phase == "derive" and clone.job == "j1"

    def test_jsonl_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_events(
            str(path),
            [
                TraceEvent("parse", 0.01, {"spec": "CMP"}, job="a", ts=5.0),
                TraceEvent("fixpoint", 0.2, {"iterations": 9}),
            ],
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert validate_trace_record(record) == []
        assert records[0]["job"] == "a"

    def test_validate_rejects_malformed(self):
        assert validate_trace_record([]) != []
        assert validate_trace_record({"phase": "", "seconds": 1, "ts": 0})
        assert validate_trace_record({"phase": "x", "seconds": -1, "ts": 0})
        assert validate_trace_record({"phase": "x", "seconds": 1}) != []


class TestCallPlanCounters:
    def test_fixpoint_and_check_phases_count_call_plans(self, cmp_specification):
        from repro.api import CertifyOptions, CertifySession
        from repro.bench.synthetic import make_shared_library
        from repro.cert import CertificateChecker
        from repro.cert.model import DETERMINISTIC_STATS

        session = CertifySession(
            cmp_specification, options=CertifyOptions(emit_certificate=True)
        )
        checker = CertificateChecker()
        counted = []
        for client_seed in (1, 2):
            source = make_shared_library(200, seed=0, client_seed=client_seed)
            tracer = CollectingTracer()
            with use_tracer(tracer):
                report = session.certify(source, "interproc")
                assert checker.check(report.certificate).ok
            (fixpoint,) = [
                e for e in tracer.events
                if e.phase == "fixpoint" and e.meta.get("engine") == "interproc"
            ]
            (check,) = [e for e in tracer.events if e.phase == "check"]
            counted.append((fixpoint.meta, check.meta))
            assert "call_plans_built" not in report.certificate.payload["stats"]
        names = ("call_plans_built", "call_plans_reused")
        assert not set(names) & set(DETERMINISTIC_STATS)
        (first_fix, first_check), (second_fix, second_check) = counted
        # the first client compiles plans; the second client's certifier
        # and checker reuse them from their abstraction's memo
        assert first_fix["call_plans_built"] > 0
        assert first_check["call_plans_built"] + first_check["call_plans_reused"] > 0
        assert second_fix["call_plans_reused"] > second_fix["call_plans_built"]
        assert second_check["call_plans_reused"] > second_check["call_plans_built"]
        for meta in (first_fix, first_check, second_fix, second_check):
            assert all(isinstance(meta[name], int) for name in names)

class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(maxsize=4, name="t")
        assert cache.get_or_create("a", lambda: 1) == 1
        assert cache.get_or_create("a", lambda: 2) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_lru_ordered(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_factory_runs_once_per_key(self):
        calls = []
        cache = LRUCache(maxsize=8)
        for _ in range(3):
            cache.get_or_create("k", lambda: calls.append(1))
        assert len(calls) == 1

    def test_pop_removes_and_returns_the_value(self):
        cache = LRUCache(maxsize=4, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.pop("a") == 1
        assert "a" not in cache and len(cache) == 1
        # the freed slot takes a new entry without evicting "b"
        cache.put("c", 3)
        assert "b" in cache and cache.stats().evictions == 0

    def test_pop_of_a_missing_key_returns_the_default(self):
        cache = LRUCache(maxsize=4, name="t")
        assert cache.pop("absent") is None
        assert cache.pop("absent", "fallback") == "fallback"

    def test_pop_counts_neither_hit_nor_miss(self):
        cache = LRUCache(maxsize=4, name="t")
        cache.put("a", 1)
        cache.pop("a")
        cache.pop("a")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)


class TestStableKey:
    def test_unhashable_values_do_not_raise(self):
        key = stable_key({"budget": [1, 2], "flags": {"a": True}})
        hash(key)  # must be hashable

    def test_order_insensitive_for_mappings_and_sets(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})
        assert stable_key({1, 2, 3}) == stable_key({3, 2, 1})

    def test_distinguishes_different_values(self):
        assert stable_key([1, 2]) != stable_key([2, 1])
        assert stable_key({"a": 1}) != stable_key({"a": 2})

    def test_plain_hashables_pass_through(self):
        assert stable_key("x") == "x"
        assert stable_key(7) == 7
        assert stable_key(None) is None

    def test_unhashable_non_container_degrades_to_repr(self):
        class Weird:
            __hash__ = None  # type: ignore[assignment]

            def __repr__(self):
                return "<weird>"

        key = stable_key(Weird())
        assert key == ("repr", "Weird", "<weird>")
