"""Worker supervision, the store circuit breaker, and graceful drain."""

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.runtime.executor import PoisonedRequest, WorkerSupervisor
from repro.serve.http import ServeDaemon
from repro.serve.service import CertificationService, ServeConfig
from repro.serve.supervisor import POISON_THRESHOLD, StoreCircuitBreaker
from repro.suite import by_name

FIG3 = by_name("fig3").source

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides) -> CertificationService:
    defaults = dict(specs=("cmp",), workers=2, queue_limit=8)
    defaults.update(overrides)
    return CertificationService(ServeConfig(**defaults))


async def started(service):
    await service.start()
    return service


def serve_supervisor(**overrides) -> WorkerSupervisor:
    """One worker under serve's crash limit, rebuilt without backoff."""
    return WorkerSupervisor(
        1, crash_limit=POISON_THRESHOLD, backoff_base=0.0, **overrides
    )


# -- worker-side functions (must be module level for the pool) ---------------


def _die_if_token(token_path: str, value: int) -> int:
    """SIGKILL ourselves once per token file; afterwards return value."""
    flag = token_path + ".spent"
    fd = os.open(token_path, os.O_RDWR)
    try:
        import fcntl

        fcntl.flock(fd, fcntl.LOCK_EX)
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8") as handle:
                handle.write("1")
            os.kill(os.getpid(), signal.SIGKILL)
    finally:
        os.close(fd)
    return value


def _die_always() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_forever() -> None:
    time.sleep(60.0)


def _boom() -> None:
    raise ValueError("worker-side failure, worker is healthy")


def _identity(value: int) -> int:
    return value


class TestWorkerSupervisor:
    @needs_fork
    def test_crash_restart_retry_once(self, tmp_path):
        token = str(tmp_path / "token")
        open(token, "w").close()
        supervisor = serve_supervisor()
        try:
            result = supervisor.submit(
                _die_if_token, token, 42, key="req-1"
            )
        finally:
            supervisor.shutdown()
        assert result == 42  # first attempt died, retry succeeded
        stats = supervisor.to_json()
        assert stats["worker_crashes"] == 1
        assert stats["pool_restarts"] == 1
        assert stats["retried"] == 1
        assert stats["poisoned"] == 0

    @needs_fork
    def test_poison_after_two_kills_and_quarantine(self):
        supervisor = serve_supervisor()
        try:
            with pytest.raises(PoisonedRequest):
                supervisor.submit(_die_always, key="killer")
            crashes_after_first = supervisor.to_json()["worker_crashes"]
            # the quarantined key is refused instantly, no new pool use
            with pytest.raises(PoisonedRequest):
                supervisor.submit(_die_always, key="killer")
            # an innocent bystander still gets served
            assert (
                supervisor.submit(_identity, 7, key="bystander")
                == 7
            )
        finally:
            supervisor.shutdown()
        stats = supervisor.to_json()
        assert crashes_after_first == POISON_THRESHOLD
        assert stats["worker_crashes"] == POISON_THRESHOLD
        assert stats["poisoned"] == 1
        assert stats["quarantined_keys"] == 1

    @needs_fork
    def test_healthy_worker_exception_propagates(self):
        supervisor = serve_supervisor()
        try:
            with pytest.raises(ValueError, match="worker is healthy"):
                supervisor.submit(_boom, key="req-err")
        finally:
            supervisor.shutdown()
        stats = supervisor.to_json()
        assert stats["worker_crashes"] == 0
        assert stats["retried"] == 0

    @needs_fork
    def test_heartbeat_kills_stuck_worker(self):
        supervisor = serve_supervisor(heartbeat=0.4)
        try:
            with pytest.raises(PoisonedRequest):
                supervisor.submit(_sleep_forever, key="stuck")
        finally:
            supervisor.shutdown()
        stats = supervisor.to_json()
        assert stats["heartbeat_kills"] == POISON_THRESHOLD
        assert stats["worker_crashes"] == POISON_THRESHOLD
        assert stats["poisoned"] == 1


class TestStoreCircuitBreaker:
    def make(self, **overrides):
        clock = {"now": 0.0}
        defaults = dict(
            failure_threshold=3,
            cooldown=5.0,
            clock=lambda: clock["now"],
        )
        defaults.update(overrides)
        return StoreCircuitBreaker(**defaults), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _clock = self.make()

        def fail():
            raise OSError(5, "eio")

        for _ in range(2):
            assert breaker.call(fail, fallback="fb") == "fb"
        assert breaker.state == "closed"  # below threshold
        breaker.call(fail, fallback="fb")
        assert breaker.state == "open"
        stats = breaker.to_json()
        assert stats["trips"] == 1
        assert stats["io_errors"] == 3

    def test_open_skips_and_half_open_probe_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.call(self._raise_eio)
        calls = []

        def operation():
            calls.append(1)
            return "value"

        assert breaker.call(operation, fallback="fb") == "fb"
        assert calls == []  # open: the store is not even touched
        assert breaker.to_json()["skipped"] == 1
        clock["now"] += 5.0
        assert breaker.state == "half-open"
        assert breaker.call(operation) == "value"  # the probe
        assert breaker.state == "closed"
        assert calls == [1]

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.call(self._raise_eio)
        clock["now"] += 5.0

        def nested_probe():
            # a second operation arriving while the probe is in flight
            # must be skipped, not sent to the (possibly dead) store
            assert breaker.call(lambda: "inner", fallback="fb") == "fb"
            return "outer"

        assert breaker.call(nested_probe) == "outer"
        assert breaker.state == "closed"

    def test_failed_probe_reopens_without_new_trip(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.call(self._raise_eio)
        clock["now"] += 5.0
        assert breaker.state == "half-open"
        assert breaker.call(self._raise_eio, fallback="fb") == "fb"
        assert breaker.state == "open"  # cooldown restarted
        assert breaker.to_json()["trips"] == 1
        clock["now"] += 5.0
        assert breaker.call(lambda: "back") == "back"
        assert breaker.state == "closed"

    @staticmethod
    def _raise_eio():
        raise OSError(5, "eio")


class TestGracefulDrain:
    def test_drain_refuses_new_work_finishes_old(self):
        async def scenario():
            service = await started(make_service())
            assert service.healthz()["state"] == "ok"
            # land one real request first so the pipeline is warm
            status, _payload = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            assert status == 200
            service.begin_drain()
            assert service.healthz()["state"] == "draining"
            status, payload = await service.certify(
                {"source": FIG3, "engine": "fds", "tenant": "alpha"}
            )
            drained = service.drained()
            await asyncio.wait_for(drained, 5.0)
            await service.stop()
            return status, payload

        status, payload = run(scenario())
        assert status == 503
        assert payload["rejected"]["reason"] == "draining"

    def test_daemon_sends_connection_close_while_draining(self):
        async def scenario():
            daemon = ServeDaemon(config=ServeConfig(
                specs=("cmp",), workers=1, queue_limit=8, port=0
            ))
            await daemon.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )

            async def roundtrip():
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                headers = head.decode("latin-1").lower()
                length = 0
                for line in headers.split("\r\n"):
                    if line.startswith("content-length:"):
                        length = int(line.split(":", 1)[1])
                await reader.readexactly(length)
                return headers

            first = await roundtrip()
            assert "connection: keep-alive" in first
            daemon.service.begin_drain()
            second = await roundtrip()
            assert "connection: close" in second
            # the daemon hangs up after a draining response
            assert await reader.read(1) == b""
            writer.close()
            await daemon.drain(timeout=2.0)
            assert daemon.port is None  # server is down
            return True

        assert run(scenario())

    def test_drain_with_no_traffic_stops_cleanly(self):
        async def scenario():
            daemon = ServeDaemon(config=ServeConfig(
                specs=("cmp",), workers=1, queue_limit=4, port=0
            ))
            await daemon.start()
            serve = asyncio.create_task(daemon.serve_forever())
            await asyncio.sleep(0)
            await daemon.drain(timeout=1.0)
            await asyncio.wait_for(serve, 5.0)  # returns, not cancelled
            return True

        assert run(scenario())
