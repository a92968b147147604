"""The scoped collector pause and where it sits.

``repro.runtime.gcpause.collector_paused`` suspends CPython's cyclic
collector for one unit of work.  The first tests pin its contract:
nesting, exceptions, a caller's own ``gc.disable()``, overlapping
threads, fork, and the young-generation cap that bounds the heap of a
process whose pauses always overlap.  The last class is a gate on
*placement*, in collection counts rather than times: certifying and
checking a 1k-statement library client starts no generation-1 or
generation-2 collection, and emits the same certificate bytes as with
the pause taken out.  A change that moves a layer of certify or check
out of the pause starts older collections there and fails it.
"""

import contextlib
import gc
import hashlib
import json
import os
import sys
import threading
import weakref

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import make_shared_library
from repro.cert import CertificateChecker
from repro.cert.model import ConformanceCertificate
from repro.runtime import gcpause
from repro.runtime.gcpause import YOUNG_CAP, collector_paused


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    assert gc.isenabled()


@pytest.fixture
def collections():
    """(generation, in_window) of every collection started while
    installed; ``window[0]`` marks the calls under test."""
    started = []
    window = [False]

    def hook(phase, info):
        if phase == "start":
            started.append((info["generation"], window[0]))

    gc.callbacks.append(hook)
    try:
        yield started, window
    finally:
        gc.callbacks.remove(hook)


def _cycle(fired: list) -> None:
    """Make one unreachable reference cycle that records its reclaim."""
    node = {}
    node["self"] = node
    holder = type("Holder", (), {})()
    holder.node = node
    node["holder"] = holder
    weakref.finalize(holder, fired.append, True)


class TestPause:
    def test_nested_pauses_reenable_only_at_the_outermost_exit(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_an_exception_inside_restores_the_collector(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                with collector_paused():
                    raise RuntimeError("boom")
        assert gc.isenabled()
        assert gcpause._depth == 0

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                with collector_paused():
                    pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_threads_reenable_exactly_once(self, monkeypatch):
        enables = []
        real_enable = gc.enable

        def counting_enable():
            enables.append(threading.current_thread().name)
            real_enable()

        monkeypatch.setattr(gc, "enable", counting_enable)
        entered, release = threading.Event(), threading.Event()
        observed = []

        def worker():
            with collector_paused():
                entered.set()
                release.wait(10)
            observed.append(gc.isenabled())

        thread = threading.Thread(target=worker, name="worker")
        thread.start()
        assert entered.wait(10)
        with collector_paused():
            release.set()
            thread.join(10)
            # the worker's pause ended inside this one
            assert observed == [False] and enables == []
        assert enables == ["MainThread"]
        assert gc.isenabled()

    def test_many_threads_keep_the_depth_consistent(self):
        """A lost update of the depth would leave the collector off or
        re-enable it under an open pause."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        broken = []

        def worker():
            for _ in range(300):
                with collector_paused():
                    with collector_paused():
                        if gc.isenabled():
                            broken.append("enabled inside a pause")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert broken == []
        assert gcpause._depth == 0 and gc.isenabled()

    def test_the_outermost_exit_runs_at_most_one_young_collection(
        self, collections
    ):
        started, window = collections
        with collector_paused():
            keep = [[] for _ in range(YOUNG_CAP + 1)]
            window[0] = True
        window[0] = False
        assert started == [(0, True)]
        assert gc.get_count()[0] < YOUNG_CAP
        del keep

    def test_cycles_under_a_pause_held_past_the_cap_are_reclaimed(self):
        fired = []
        with collector_paused():
            _cycle(fired)
            keep = [[] for _ in range(YOUNG_CAP + 1)]
            assert fired == []
            # any pause boundary past the cap runs a young collection
            with collector_paused():
                pass
            assert fired == [True]
            assert not gc.isenabled()
        del keep

    def test_a_forked_child_keeps_only_its_own_pauses(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        entered, release = threading.Event(), threading.Event()

        def holder():
            with collector_paused():
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(10)
            pid = os.fork()
            if pid == 0:  # child: the holder thread is gone
                code = 0 if gc.isenabled() and gcpause._depth == 0 else 1
                os._exit(code)
            _, status = os.waitpid(pid, 0)
        finally:
            release.set()
            thread.join(10)
        assert os.waitstatus_to_exitcode(status) == 0


class TestPlacement:
    """No older collection starts inside certify or check."""

    @pytest.fixture(scope="class")
    def source(self):
        return make_shared_library(1000, seed=0)

    def _certify_and_check(self, spec, source, window):
        session = CertifySession(
            spec, "interproc", CertifyOptions(emit_certificate=True)
        )
        checker = CertificateChecker()
        window[0] = True
        report = session.certify(source)
        window[0] = False
        text = report.certificate.text()
        certificate = ConformanceCertificate(json.loads(text))
        window[0] = True
        verdict = checker.check(certificate)
        window[0] = False
        assert verdict.ok, verdict.detail
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_certify_and_check_start_no_older_collection(
        self, cmp_specification, source, collections, monkeypatch
    ):
        started, window = collections
        paused = self._certify_and_check(cmp_specification, source, window)
        inside = [generation for generation, inner in started if inner]
        assert not [generation for generation in inside if generation > 0]

        # the same calls with the pause taken out: older collections
        # do start inside them, so the gate above is not vacuous, and
        # the certificate bytes are the same
        started.clear()
        monkeypatch.setattr(
            "repro.api.collector_paused", contextlib.nullcontext
        )
        monkeypatch.setattr(
            "repro.cert.check.collector_paused", contextlib.nullcontext
        )
        unpaused = self._certify_and_check(cmp_specification, source, window)
        assert [generation for generation, inner in started if inner and generation > 0]
        assert paused == unpaused
