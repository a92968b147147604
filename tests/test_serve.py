"""The multi-tenant certification service and its HTTP daemon."""

import asyncio
import random
import threading

import pytest

from repro.cert import ConformanceCertificate
from repro.cert.mutate import mutate_certificate
from repro.runtime.cache import LRUCache
from repro.serve.http import ServeDaemon
from repro.serve.loadgen import _Client, _verdict_signature
from repro.serve.service import (
    CertificationService,
    ServeConfig,
    TenantBudget,
    _Job,
)
from repro.suite import by_name

FIG3 = by_name("fig3").source
SEC3 = by_name("sec3_loop").source


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides) -> CertificationService:
    defaults = dict(specs=("cmp",), workers=2, queue_limit=8)
    defaults.update(overrides)
    return CertificationService(ServeConfig(**defaults))


async def started(service):
    await service.start()
    return service


class TestAdmissionAndEnvelope:
    def test_certify_envelope_shape(self):
        async def scenario():
            service = await started(make_service())
            status, payload = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            await service.stop()
            return status, payload

        status, payload = run(scenario())
        assert status == 200
        assert {
            "alarms",
            "certificate",
            "governor",
            "timings",
            "verdict",
            "served",
        } <= set(payload)
        assert payload["verdict"]["status"] == "ok"
        assert payload["verdict"]["certified"] is False  # fig3 alarms
        assert payload["served"]["path"] == "certify"
        assert payload["served"]["cached"] is False
        assert payload["certificate"]["hash"]

    def test_bad_requests_are_400(self):
        async def scenario():
            service = await started(make_service())
            results = [
                await service.certify(body)
                for body in (
                    [],
                    {},
                    {"source": FIG3, "spec": "nope"},
                    {"source": FIG3, "engine": "nope"},
                    {"source": FIG3, "options": {"bogus": 1}},
                    # every engine runs one worklist order; naming one
                    # is an unknown option, not a cache-key salt
                    {"source": FIG3, "options": {"worklist": "rpo"}},
                )
            ]
            await service.stop()
            return results

        for status, payload in run(scenario()):
            assert status == 400
            assert payload["verdict"]["status"] == "bad-request"

    def test_two_tenants_share_one_warm_session(self):
        async def scenario():
            service = await started(make_service())
            first = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            second = await service.certify(
                {"source": SEC3, "engine": "fds", "tenant": "beta"}
            )
            stats = service.stats()
            sessions = dict(service._sessions.items())
            await service.stop()
            return first, second, stats, sessions

        (s1, _p1), (s2, _p2), stats, sessions = run(scenario())
        assert s1 == 200 and s2 == 200
        # one (spec, options) session serves both tenants: the derived
        # abstraction and transform memos warmed once
        assert len(sessions) == 1
        assert stats["sessions"] == [
            {"spec": "cmp", "abstractions_derived": 1}
        ]
        assert set(stats["tenants"]) == {"alpha", "beta"}
        assert stats["tenants"]["alpha"]["misses"] == 1
        assert stats["requests"]["certifications"] == 2


class TestSessionBound:
    def test_sessions_stay_at_their_bound(self):
        """Each distinct set of request options gets its own session;
        past the bound the least recent is evicted, and a request for
        an evicted set is still answered correctly."""

        async def scenario():
            service = await started(make_service())
            service._sessions = LRUCache(2, name="serve-sessions")
            answers, counts = [], []
            for depth in (8, 9, 10, 11, 8):
                answers.append(
                    await service.certify(
                        {
                            "source": FIG3,
                            "engine": "fds",
                            "options": {"inline_depth": depth},
                        }
                    )
                )
                counts.append(len(service._sessions))
            stats = service.stats()
            await service.stop()
            return answers, counts, stats

        answers, counts, stats = run(scenario())
        assert counts == [1, 2, 2, 2, 2]
        assert len(stats["sessions"]) == 2
        assert all(status == 200 for status, _ in answers)
        first, again = answers[0][1], answers[-1][1]
        # the evicted set's answer is a store hit, checked by a fresh
        # session for those options
        assert first["verdict"]["status"] == "ok"
        assert again["verdict"]["status"] == "accepted"
        assert again["alarms"] == first["alarms"]


class TestStoreHits:
    def test_hit_is_checked_not_recertified(self):
        async def scenario():
            service = await started(make_service())
            cold = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            hot = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "beta"}
            )
            stats = service.stats()
            await service.stop()
            return cold, hot, stats

        (_, cold), (_, hot), stats = run(scenario())
        assert cold["served"]["path"] == "certify"
        assert hot["served"]["path"] == "check"
        assert hot["served"]["cached"] is True
        assert hot["served"]["key"] == cold["served"]["key"]
        assert stats["requests"]["checks"] == 1
        assert stats["store"]["hits"] == 1
        # the check is a linear pass: no fixpoint phase in its timings
        assert "fixpoint" not in hot["timings"]["phases"]

    def test_hit_verdict_is_byte_identical_to_cold(self):
        async def scenario():
            service = await started(make_service())
            cold = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            hot = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "beta"}
            )
            await service.stop()
            return cold[1], hot[1]

        cold, hot = run(scenario())
        assert _verdict_signature(cold) == _verdict_signature(hot)
        assert cold["certificate"]["hash"] == hot["certificate"]["hash"]

    def test_engine_and_options_salt_the_request_key(self):
        async def scenario():
            service = await started(make_service())
            fds = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "a"}
            )
            rel = await service.certify(
                {"source": FIG3, "engine": "relational", "tenant": "a"}
            )
            shallow = await service.certify(
                {
                    "source": FIG3,
                    "engine": "fds",
                    "tenant": "a",
                    "options": {"inline_depth": 3},
                }
            )
            await service.stop()
            return fds[1], rel[1], shallow[1]

        fds, rel, shallow = run(scenario())
        keys = {p["served"]["key"] for p in (fds, rel, shallow)}
        assert len(keys) == 3
        for payload in (rel, shallow):
            assert payload["served"]["path"] == "certify"

    def test_tampered_stored_certificate_triggers_recertification(self):
        async def scenario():
            service = await started(make_service())
            cold = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            key = cold[1]["served"]["key"]
            stored = service.store.get(key)
            # forge a verdict the checker must reject, and repoint the
            # index at the forgery (its object hash is self-consistent,
            # so the store's integrity pass alone cannot catch it)
            forged_payload, kind = mutate_certificate(
                stored.payload, random.Random(7), kind="verdict"
            )
            service.store.put(ConformanceCertificate(forged_payload), key)
            hot = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "beta"}
            )
            stats = service.stats()
            await service.stop()
            return cold[1], kind, hot[1], stats

        cold, kind, hot, stats = run(scenario())
        assert kind == "verdict"
        # the forgery was detected and the request fell back to a full
        # re-certification with the true verdict
        assert hot["served"]["path"] == "certify"
        assert _verdict_signature(hot) == _verdict_signature(cold)
        assert stats["requests"]["recertifications"] == 1
        assert stats["requests"]["certifications"] == 2

    def test_corrupt_store_object_falls_back_to_certify(self):
        async def scenario():
            service = await started(make_service())
            cold = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            cert_hash = cold[1]["certificate"]["hash"]
            # flip bytes in the stored object itself: the store's
            # integrity verification turns the hit into a miss
            service.store._objects[cert_hash] = service.store._objects[
                cert_hash
            ].replace('"verdict"', '"verdicts"', 1)
            service.store._parsed.pop(cert_hash, None)
            hot = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "beta"}
            )
            stats = service.stats()
            await service.stop()
            return hot[1], stats

        hot, stats = run(scenario())
        assert hot["served"]["path"] == "certify"
        assert stats["store"]["corrupt"] == 1
        assert stats["requests"]["certifications"] == 2


class TestBackpressureAndQuota:
    def test_queue_overflow_rejects_without_dropping_admitted_work(self):
        async def scenario():
            service = make_service(workers=1, queue_limit=1)
            await service.start()
            started_processing = threading.Event()
            release = threading.Event()
            processed = []

            def slow_process(job):
                started_processing.set()
                release.wait(timeout=30)
                processed.append(job.tenant)
                return 200, {"ok": True, "tenant": job.tenant}

            service._process = slow_process
            running = asyncio.create_task(
                service.certify({"source": FIG3, "tenant": "t0"})
            )
            # the worker must hold t0 before t1 can occupy the queue's
            # single slot (otherwise t1 itself races into the refusal)
            while not started_processing.is_set():
                await asyncio.sleep(0.01)
            assert service._queue.qsize() == 0
            queued = asyncio.create_task(
                service.certify({"source": FIG3, "tenant": "t1"})
            )
            while service._queue.qsize() != 1:
                await asyncio.sleep(0.01)
            refused_status, refused = await service.certify(
                {"source": FIG3, "tenant": "t2"}
            )
            release.set()
            first = await running
            second = await queued
            stats = service.stats()
            await service.stop()
            return refused_status, refused, first, second, processed, stats

        refused_status, refused, first, second, processed, stats = run(
            scenario()
        )
        assert refused_status == 429
        assert refused["verdict"]["status"] == "rejected"
        assert refused["rejected"]["reason"] == "backpressure"
        assert refused["rejected"]["retry_after"] == 1.0
        # both admitted requests completed despite the refusal
        assert first == (200, {"ok": True, "tenant": "t0"})
        assert second == (200, {"ok": True, "tenant": "t1"})
        assert sorted(processed) == ["t0", "t1"]
        assert stats["requests"]["rejected"] == 1

    def test_step_quota_exhaustion_is_429(self):
        async def scenario():
            service = make_service(
                tenants={
                    "metered": TenantBudget(
                        max_steps=10_000_000, quota_steps=1
                    )
                }
            )
            await service.start()
            first = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "metered"}
            )
            second = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "metered"}
            )
            other = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "unmetered"}
            )
            stats = service.stats()
            await service.stop()
            return first, second, other, stats

        first, second, other, stats = run(scenario())
        assert first[0] == 200
        assert second[0] == 429
        assert second[1]["rejected"]["reason"] == "quota"
        # quotas are per tenant: others are unaffected
        assert other[0] == 200
        assert stats["tenants"]["metered"]["spent_steps"] >= 1
        assert stats["tenants"]["metered"]["quota_remaining"] == 0


class TestCheckEndpoint:
    def test_check_supplied_and_stored_certificates(self):
        async def scenario():
            service = await started(make_service())
            cold = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            cert_hash = cold[1]["certificate"]["hash"]
            by_hash = await service.check({"hash": cert_hash})
            payload = service.certificate_json(cert_hash)
            supplied = await service.check({"certificate": payload})
            missing = await service.check({"hash": "0" * 64})
            malformed = await service.check({})
            await service.stop()
            return by_hash, supplied, missing, malformed

        by_hash, supplied, missing, malformed = run(scenario())
        for status, payload in (by_hash, supplied):
            assert status == 200
            assert payload["verdict"]["status"] == "accepted"
            assert payload["verdict"]["ok"] is True
        assert missing[0] == 404
        assert malformed[0] == 400

    def test_check_rejects_forged_verdict(self):
        async def scenario():
            service = await started(make_service())
            cold = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            payload = service.certificate_json(
                cold[1]["certificate"]["hash"]
            )
            forged, _ = mutate_certificate(
                payload, random.Random(3), kind="verdict"
            )
            status, result = await service.check({"certificate": forged})
            await service.stop()
            return status, result

        status, result = run(scenario())
        assert status == 200
        assert result["verdict"]["ok"] is False
        assert result["verdict"]["status"] != "accepted"


class TestHealthAndStats:
    def test_shapes(self):
        async def scenario():
            service = await started(make_service())
            health = service.healthz()
            stats = service.stats()
            await service.stop()
            return health, stats

        health, stats = run(scenario())
        assert health["ok"] is True
        assert health["specs"] == ["cmp"]
        assert "fds" in health["engines"]
        assert stats["queue"] == {
            "depth": 0, "limit": 8, "workers": 2,
            "worker_mode": "thread",
        }
        assert set(stats["requests"]) == {
            "received",
            "completed",
            "rejected",
            "errors",
            "checks",
            "certifications",
            "incremental",
            "recertifications",
            "poisoned",
            "store_degraded",
        }
        assert stats["store"]["objects"] == 0


class TestHttpDaemon:
    def test_end_to_end_round_trip(self):
        async def scenario():
            daemon = ServeDaemon(
                config=ServeConfig(
                    port=0, specs=("cmp",), workers=1, queue_limit=8
                )
            )
            await daemon.start()
            client = _Client("127.0.0.1", daemon.port)
            try:
                cold = await client.request(
                    "POST",
                    "/certify",
                    {"source": FIG3, "engine": "fds", "tenant": "alpha"},
                )
                hot = await client.request(
                    "POST",
                    "/certify",
                    {"source": FIG3, "engine": "fds", "tenant": "beta"},
                )
                cert_hash = cold[1]["certificate"]["hash"]
                fetched = await client.request(
                    "GET", f"/certificates/{cert_hash}"
                )
                checked = await client.request(
                    "POST", "/check", {"hash": cert_hash}
                )
                health = await client.request("GET", "/healthz")
                stats = await client.request("GET", "/stats")
                missing = await client.request(
                    "GET", f"/certificates/{'0' * 64}"
                )
                unknown = await client.request("GET", "/nope")
                wrong_method = await client.request("PUT", "/certify")
            finally:
                await client.close()
                await daemon.stop()
            return (
                cold, hot, fetched, checked, health, stats, missing,
                unknown, wrong_method,
            )

        (
            cold, hot, fetched, checked, health, stats, missing,
            unknown, wrong_method,
        ) = run(scenario())
        assert cold[0] == 200 and cold[1]["served"]["path"] == "certify"
        assert hot[0] == 200 and hot[1]["served"]["path"] == "check"
        assert _verdict_signature(cold[1]) == _verdict_signature(hot[1])
        assert fetched[0] == 200
        assert fetched[1]["verdict"]["alarms"] == cold[1]["alarms"]
        assert checked[0] == 200
        assert checked[1]["verdict"]["status"] == "accepted"
        assert health[0] == 200 and health[1]["ok"] is True
        assert stats[0] == 200 and stats[1]["requests"]["completed"] >= 3
        assert missing[0] == 404
        assert unknown[0] == 404
        assert wrong_method[0] == 405

    def test_malformed_body_is_400(self):
        async def scenario():
            daemon = ServeDaemon(
                config=ServeConfig(
                    port=0, specs=("cmp",), workers=1, queue_limit=4
                )
            )
            await daemon.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            try:
                body = b"{not json"
                writer.write(
                    b"POST /certify HTTP/1.1\r\n"
                    b"Host: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                status_line = await reader.readline()
                return int(status_line.split()[1])
            finally:
                writer.close()
                await daemon.stop()

        assert run(scenario()) == 400


class TestServeBench:
    """``repro bench serve``'s phases answer on the paths they measure."""

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_cold_is_scratch_and_near_hits_are_incremental(
        self, worker_mode
    ):
        from repro.serve.loadgen import (
            ServeBenchConfig,
            run_serve_bench,
            serve_bench_ok,
        )

        results = run_serve_bench(
            ServeBenchConfig(
                clients=3,
                num_ops=24,
                hit_requests=6,
                concurrency=3,
                worker_mode=worker_mode,
            )
        )
        # no cold client warm-starts from another's lineage parent
        assert results["cold_paths_were_certify"]
        assert results["cold_certify"]["count"] == 3
        # each edit warm-starts from its own cold certificate and lands
        # on exactly the bytes of a scratch certification
        assert results["near_incremental"]["count"] == 3
        assert results["near_paths_were_incremental"]
        assert results["near_bytes_identical"]
        assert serve_bench_ok(results, min_speedup=0.0)


class TestJobPlumbing:
    def test_job_defaults(self):
        job = _Job(
            kind="certify",
            tenant="t",
            state=None,
            future=None,
        )
        assert job.engine == "auto"
        assert job.certificate is None


@pytest.mark.parametrize("field", ["deadline", "max_steps", "quota_steps"])
def test_tenant_budget_from_json_round_trip(field):
    budget = TenantBudget.from_json({field: 5})
    assert getattr(budget, field) == 5
    with pytest.raises(ValueError):
        TenantBudget.from_json({"bogus": 1})
