"""Crash safety of the on-disk store: WAL replay, torn writes, locking."""

import multiprocessing
import os

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.cert.check import CertificateChecker
from repro.cert.model import sha256_text
from repro.store import CertificateStore, StoreIO, WriteAheadLog
from repro.store.cas import certificate_request_key
from repro.suite import by_name
from repro.testing.chaos import FaultyIO, SimulatedCrash


@pytest.fixture(scope="module")
def certificates(cmp_specification):
    session = CertifySession(
        cmp_specification, options=CertifyOptions(emit_certificate=True)
    )
    built = []
    for name in ("fig3", "sec3_loop"):
        report = session.certify(by_name(name).source, "fds")
        assert report.certificate is not None
        built.append(report.certificate)
    return built


@pytest.fixture(scope="module")
def certificate(certificates):
    return certificates[0]


def clean_store(root, kind=None):
    store_cls = kind.store if kind is not None else CertificateStore
    return store_cls(str(root), io=StoreIO(fsync=False))


class TestKillAtEveryByte:
    def test_recovery_from_every_byte_boundary(
        self, store_kind, certificate, tmp_path, monkeypatch
    ):
        """Interrupt a put at every byte of its I/O stream; the store
        must always recover to serving either nothing or the exact
        fault-free bytes — never a torn object."""
        # pin the WAL timestamp: the shortest-roundtrip float repr of
        # time.time() varies by a byte between puts, which would shift
        # the byte boundaries against the probe's measured total
        monkeypatch.setattr(
            "repro.store.wal.time.time", lambda: 1700000000.123456
        )
        assert CertificateChecker().check(certificate).ok
        sample = store_kind.sample("kill", certificate=certificate)
        reference = sample.text

        probe = FaultyIO()
        sample.put(store_kind.store(str(tmp_path / "probe"), io=probe))
        total = probe.bytes_written
        assert total > len(reference)  # object + pointers + journal

        survived = 0
        for budget in range(total + 1):
            root = str(tmp_path / f"b{budget}")
            store = store_kind.store(
                root, io=FaultyIO(kill_after_bytes=budget)
            )
            try:
                sample.put(store)
                survived += 1
            except SimulatedCrash:
                pass
            # "reboot" with healthy I/O and repair
            store = clean_store(root, store_kind)
            store.recover(verify_objects=True)
            got = store_kind.get_text(store, sample.key)
            # byte-identity to the fault-free reference is the
            # invariant; a clean miss is always acceptable
            assert got is None or got == reference
            sample.put(store)
            assert store_kind.get_text(store, sample.key) == reference
            assert store.recover(verify_objects=True).clean
        # only the unconstrained budget completes the put
        assert survived == 1

    def test_dead_process_performs_no_further_io(self, tmp_path):
        io = FaultyIO(kill_after_bytes=3)
        with pytest.raises(SimulatedCrash):
            io.atomic_write_text(str(tmp_path / "f"), "hello world")
        assert not (tmp_path / "f").exists()
        # the torn temp survives: a dead process cannot clean up
        orphans = list(StoreIO().iter_orphans(str(tmp_path)))
        assert len(orphans) == 1
        with open(orphans[0], "rb") as handle:
            assert handle.read() == b"hel"  # exactly the budgeted bytes
        with pytest.raises(SimulatedCrash):
            io.atomic_write_text(str(tmp_path / "g"), "x")


class TestWalReplay:
    def _begin(self, store, store_kind, sample):
        """Journal a put's intent, as a put does before any write."""
        object_hash = sha256_text(sample.text)
        store.wal.begin(
            object_hash=object_hash,
            object_bytes=len(sample.text.encode("utf-8")),
            index_key=sample.key,
            lineage_key="lineage-key" if store_kind.has_lineage else None,
        )
        return object_hash

    def test_intact_object_rolls_forward(
        self, store_kind, certificate, tmp_path
    ):
        store = clean_store(tmp_path, store_kind)
        sample = store_kind.sample("forward", certificate=certificate)
        # crash window: intent journaled, object landed, pointers lost
        object_hash = self._begin(store, store_kind, sample)
        store.io.atomic_write_text(store.object_path(object_hash), sample.text)
        report = store.recover(verify_objects=True)
        assert report.rolled_forward == [object_hash]
        assert not report.rolled_back
        assert store_kind.get_text(store, sample.key) == sample.text

    def test_torn_object_rolls_back_and_quarantines(
        self, store_kind, certificate, tmp_path
    ):
        store = clean_store(tmp_path, store_kind)
        sample = store_kind.sample("back", certificate=certificate)
        object_hash = self._begin(store, store_kind, sample)
        torn = sample.text[: len(sample.text) // 2]
        store.io.atomic_write_text(store.object_path(object_hash), torn)
        store.io.atomic_write_text(
            store.pointer_path("index", sample.key), object_hash + "\n"
        )
        report = store.recover(verify_objects=True)
        assert report.rolled_back == [object_hash]
        assert report.quarantined  # evidence preserved, not deleted
        assert store_kind.get_text(store, sample.key) is None
        quarantine = os.path.join(
            str(tmp_path), "quarantine", object_hash + store_kind.suffix
        )
        with open(quarantine, "r", encoding="utf-8") as handle:
            assert handle.read() == torn

    def test_orphaned_temp_files_are_swept(
        self, store_kind, certificate, tmp_path
    ):
        store = clean_store(tmp_path, store_kind)
        store_kind.sample("orphans", certificate=certificate).put(store)
        debris = tmp_path / "objects" / ".tmp-debris~"
        debris.write_text("partial")
        report = store.recover(verify_objects=True)
        assert report.orphans_swept == 1
        assert not debris.exists()

    def test_checkpoint_preserves_sibling_pending_txn(
        self, store_kind, certificate, tmp_path
    ):
        """flush() must not drop a crashed sibling process's begin
        record — recovery still needs it to quarantine that put's
        debris."""
        store = clean_store(tmp_path, store_kind)
        store_kind.sample("flush", certificate=certificate).put(store)
        sibling = WriteAheadLog(str(tmp_path), StoreIO(fsync=False))
        sibling.begin(
            object_hash="f" * 64,
            object_bytes=10,
            index_key="sibling-key",
            lineage_key=None,
        )
        store.flush()  # checkpoint: drops committed, keeps pending
        pending = store.wal.pending()
        assert [rec["object"] for rec in pending] == ["f" * 64]
        report = store.recover(verify_objects=True)
        assert report.rolled_back == ["f" * 64]

    def test_torn_journal_tail_is_tolerated(
        self, store_kind, certificate, tmp_path
    ):
        store = clean_store(tmp_path, store_kind)
        sample = store_kind.sample("tail", certificate=certificate)
        sample.put(store)
        with open(store.wal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "begin", "txn"')  # append died mid-line
        report = store.recover(verify_objects=True)
        assert report.clean
        assert store_kind.get_text(store, sample.key) == sample.text


def _hammer(root: str, text: str, repeats: int) -> None:
    import json

    from repro.cert import ConformanceCertificate

    cert = ConformanceCertificate(json.loads(text))
    store = CertificateStore(root, io=StoreIO(fsync=False))
    for _ in range(repeats):
        store.put(cert)


class TestCrossProcessLock:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork",
    )
    def test_concurrent_writers_share_one_root(
        self, certificates, tmp_path
    ):
        root = str(tmp_path)
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_hammer, args=(root, cert.text(), 10)
            )
            for cert in certificates
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
            assert worker.exitcode == 0
        store = clean_store(root)
        assert store.recover(verify_objects=True).clean
        for cert in certificates:
            got = store.get(certificate_request_key(cert))
            assert got is not None and got.text() == cert.text()
