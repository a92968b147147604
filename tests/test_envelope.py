"""The unified result envelope, the spec registry, and the session-only
public API — the API-surface contract."""

import json

import pytest

from repro import envelope as env
from repro import api
from repro.api import CertifyOptions, CertifySession
from repro.easl.library import (
    REGISTRY,
    UnknownSpecError,
    available_specs,
    cmp_spec,
    get_spec,
)
from repro.runtime.trace import CollectingTracer, use_tracer
from repro.suite import by_name


class TestSpecRegistry:
    def test_available_specs_lowercase_sorted(self):
        names = available_specs()
        assert names == sorted(names)
        assert all(name == name.lower() for name in names)
        assert "cmp" in names

    def test_get_spec_is_case_insensitive_and_cached(self):
        assert get_spec("cmp") is get_spec("CMP") is get_spec("Cmp")

    def test_unknown_spec_raises(self):
        with pytest.raises(UnknownSpecError, match="unknown spec 'nope'"):
            get_spec("nope")

    def test_contains_and_iter(self):
        assert "CMP" in REGISTRY and "nope" not in REGISTRY
        assert list(REGISTRY) == available_specs()


class TestEnvelopeSections:
    def test_make_envelope_key_order_is_sorted(self):
        envelope = env.make_envelope(
            verdict=env.verdict_section(
                subject="s", engine="fds", certified=True
            )
        )
        assert tuple(envelope) == env.ENVELOPE_KEYS
        # top-level insertion order is already sorted-key order
        assert list(envelope) == sorted(envelope)

    def test_governor_section_absent_when_nothing_tripped(self):
        assert env.governor_section() is None
        section = env.governor_section(breach="steps", salvaged=3)
        assert section["breach"] == "steps"
        assert section["degraded_to"] is None

    def test_certificate_section_skips_reserialization(self):
        class Boom:
            engine = "fds"
            partial = False

            def text(self):  # pragma: no cover - must not be called
                raise AssertionError("re-serialized a known hash")

        section = env.certificate_section(
            Boom(), cert_hash="ab" * 32, cert_bytes=17
        )
        assert section["hash"] == "ab" * 32
        assert section["bytes"] == 17

    def test_timings_section_from_events(self):
        tracer = CollectingTracer()
        session = CertifySession(cmp_spec())
        with use_tracer(tracer):
            session.certify(by_name("fig3").source, "fds")
        timings = env.timings_section(seconds=1.5, events=tracer.events)
        assert timings["seconds"] == 1.5
        assert "fixpoint" in timings["phases"]
        assert list(timings["phases"]) == sorted(timings["phases"])


class TestEnvelopeBuilders:
    def test_report_envelope_round_trips_the_report(self):
        session = CertifySession(
            cmp_spec(), options=CertifyOptions(emit_certificate=True)
        )
        report = session.certify(by_name("fig3").source, "fds")
        envelope = env.report_envelope(report, seconds=0.25)
        assert envelope["verdict"]["subject"] == report.subject
        assert envelope["verdict"]["certified"] is False
        assert envelope["verdict"]["status"] == "ok"
        assert len(envelope["alarms"]) == len(report.alarms)
        assert {a["line"] for a in envelope["alarms"]} == set(
            report.alarm_lines()
        )
        assert envelope["certificate"]["hash"]
        assert envelope["governor"] is None
        json.dumps(envelope)  # JSON-safe throughout

    def test_error_envelope_shape(self):
        envelope = env.error_envelope(
            subject="?", engine="fds", status="error", detail="boom"
        )
        assert envelope["verdict"]["status"] == "error"
        assert envelope["verdict"]["detail"] == "boom"
        assert envelope["verdict"]["certified"] is None
        assert envelope["alarms"] == []


class TestLegacyDeprecations:
    def test_legacy_wrappers_removed(self):
        import repro

        for name in ("certify_source", "certify_program", "derive_abstraction"):
            assert not hasattr(api, name)
            assert not hasattr(repro, name)

    def test_session_path_does_not_warn(self, cmp_specification, recwarn):
        CertifySession(cmp_specification).certify(
            by_name("fig3").source, "fds"
        )
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
