"""Tests for the session-based public API and its bounded caches."""

import pytest

from repro import api
from repro.api import CertifyOptions, CertifySession
from repro.lang.types import parse_program
from repro.runtime.trace import CollectingTracer
from repro.suite import by_name

FIG3 = by_name("fig3").source


class TestCertifySession:
    def test_certify_matches_certify_program(self, cmp_specification):
        session = CertifySession(cmp_specification, engine="fds")
        report = session.certify(FIG3)
        parsed = CertifySession(cmp_specification, engine="fds").certify_program(
            parse_program(FIG3, cmp_specification)
        )
        assert sorted(report.alarm_lines()) == sorted(parsed.alarm_lines())

    def test_certify_many_preserves_order(self, cmp_specification):
        sources = [FIG3, by_name("scanner").source, by_name("sec3_loop").source]
        session = CertifySession(cmp_specification, engine="fds")
        reports = session.certify_many(sources)
        assert [r.certified for r in reports] == [False, True, True]

    def test_abstraction_derived_once_per_session(self, cmp_specification):
        session = CertifySession(cmp_specification, engine="fds")
        session.certify_many([FIG3, FIG3, FIG3])
        stats = {s.name: s for s in session.cache_stats()}
        abstraction_stats = stats["abstractions[CMP]"]
        assert abstraction_stats.misses == 1
        assert abstraction_stats.hits >= 2

    def test_inline_results_memoized_per_source(self, cmp_specification):
        session = CertifySession(cmp_specification)
        session.certify(FIG3, engine="fds")
        session.certify(FIG3, engine="relational")
        inlined_stats = {s.name: s for s in session.cache_stats()}[
            "inlined[CMP]"
        ]
        assert inlined_stats.misses == 1
        assert inlined_stats.hits == 1

    def test_engine_validated_eagerly(self, cmp_specification):
        with pytest.raises(ValueError, match="unknown engine"):
            CertifySession(cmp_specification, engine="nonsense")

    def test_per_call_engine_override(self, cmp_specification):
        session = CertifySession(cmp_specification, engine="fds")
        report = session.certify(FIG3, engine="tvla-independent")
        assert report.engine == "tvla-independent"

    def test_options_respected(self, cmp_specification):
        pruned = CertifySession(
            cmp_specification, "fds", CertifyOptions(prune_requires=True)
        ).certify(FIG3)
        unpruned = CertifySession(
            cmp_specification, "fds", CertifyOptions(prune_requires=False)
        ).certify(FIG3)
        assert len(unpruned.alarms) >= len(pruned.alarms)

    def test_spec_mismatch_rejected(self, cmp_specification, grp_specification):
        program = parse_program(FIG3, cmp_specification)
        session = CertifySession(grp_specification)
        with pytest.raises(ValueError, match="parsed against spec"):
            session.certify_program(program)

    def test_session_tracer_sees_all_phases(self, cmp_specification):
        tracer = CollectingTracer()
        session = CertifySession(
            cmp_specification, engine="fds", tracer=tracer
        )
        session.certify(FIG3)
        phases = {event.phase for event in tracer.events}
        assert {"parse", "derive", "inline", "transform", "fixpoint"} <= phases

    def test_prewarm_covers_auto_engine(self, cmp_specification):
        session = CertifySession(cmp_specification)
        session.prewarm(["auto"])
        stats = {s.name: s for s in session.cache_stats()}["abstractions[CMP]"]
        assert stats.size == 2  # identity and non-identity flavours
        session.certify(FIG3, engine="interproc")
        session.certify(FIG3, engine="fds")
        assert (
            {s.name: s for s in session.cache_stats()}[
                "abstractions[CMP]"
            ].misses
            == 2
        )


class TestAbstractionCache:
    def test_shared_cache_is_bounded_lru(self, cmp_specification):
        """The batch runtime's process-wide cache, shared by sessions."""
        from repro.runtime.batch import WARM_ABSTRACTIONS

        stats = WARM_ABSTRACTIONS.stats()
        assert stats.maxsize == api.DEFAULT_CACHE_SIZE
        first = CertifySession(
            cmp_specification, cache=WARM_ABSTRACTIONS
        ).abstraction()
        second = CertifySession(
            cmp_specification, cache=WARM_ABSTRACTIONS
        ).abstraction()
        assert first is second
        assert WARM_ABSTRACTIONS.stats().hits > stats.hits

    def test_unhashable_kwargs_regression(self, cmp_specification, monkeypatch):
        """tuple(sorted(kwargs.items())) used to raise TypeError as soon
        as a kwarg value was unhashable; the normalized key must not."""
        from types import SimpleNamespace

        calls = []

        def fake_derive(spec, **kwargs):
            calls.append(kwargs)
            return SimpleNamespace(stats=SimpleNamespace(families=0))

        monkeypatch.setattr(api, "derive", fake_derive)
        session = CertifySession(cmp_specification)
        first = session.abstraction(budget=[1, 2])
        again = session.abstraction(budget=[1, 2])
        other = session.abstraction(budget=[2, 1])
        assert first is again  # equal unhashable kwargs hit the cache
        assert other is not first
        assert len(calls) == 2

    def test_dict_kwargs_order_insensitive(self, cmp_specification, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.setattr(
            api,
            "derive",
            lambda spec, **kw: SimpleNamespace(
                stats=SimpleNamespace(families=0)
            ),
        )
        session = CertifySession(cmp_specification)
        a = session.abstraction(opts={"x": 1, "y": 2})
        b = session.abstraction(opts={"y": 2, "x": 1})
        assert a is b
