"""The content-addressed certificate store (repro.store.cas)."""

import os

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.cert import ConformanceCertificate
from repro.cert.model import sha256_text
from repro.store import CertificateStore
from repro.store.cas import certificate_request_key, request_key
from repro.suite import by_name
from tests.store_kinds import KINDS


@pytest.fixture(scope="module")
def fig3_certificate(cmp_specification):
    session = CertifySession(
        cmp_specification, options=CertifyOptions(emit_certificate=True)
    )
    report = session.certify(by_name("fig3").source, "fds")
    assert report.certificate is not None
    return report.certificate


class TestRequestKey:
    def test_deterministic_and_order_free(self):
        a = request_key(
            spec_hash="s", source_hash="c", fingerprint="f",
            abstraction_hash="a",
        )
        b = request_key(
            abstraction_hash="a", fingerprint="f", source_hash="c",
            spec_hash="s",
        )
        assert a == b and len(a) == 64

    def test_every_component_is_significant(self):
        base = dict(
            spec_hash="s", source_hash="c", fingerprint="f",
            abstraction_hash="a",
        )
        keys = {request_key(**base)}
        for field in base:
            keys.add(request_key(**{**base, field: "other"}))
        assert len(keys) == 5

    def test_certificate_request_key_uses_embedded_hashes(
        self, fig3_certificate
    ):
        key = certificate_request_key(fig3_certificate)
        payload = fig3_certificate.payload
        assert key == request_key(
            spec_hash=payload["spec_hash"],
            source_hash=payload["source_hash"],
            fingerprint=payload["fingerprint"],
            abstraction_hash=payload.get("abstraction_hash"),
        )


class TestInMemoryStore:
    def test_put_get_roundtrip(self, fig3_certificate):
        store = CertificateStore()
        cert_hash = store.put(fig3_certificate)
        key = certificate_request_key(fig3_certificate)
        assert store.resolve(key) == cert_hash
        hit = store.get(key)
        assert hit is not None
        assert hit.text() == fig3_certificate.text()
        assert store.stats.hits == 1 and store.stats.misses == 0

    def test_get_returns_cached_parse(self, fig3_certificate):
        store = CertificateStore()
        store.put(fig3_certificate)
        key = certificate_request_key(fig3_certificate)
        assert store.get(key) is store.get(key)

    def test_unknown_key_is_a_miss(self):
        store = CertificateStore()
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_put_is_idempotent(self, fig3_certificate):
        store = CertificateStore()
        first = store.put(fig3_certificate)
        second = store.put(fig3_certificate)
        assert first == second and len(store) == 1

    def test_object_size_matches_text(self, fig3_certificate):
        store = CertificateStore()
        cert_hash = store.put(fig3_certificate)
        assert store.object_size(cert_hash) == len(fig3_certificate.text())
        assert store.object_size("f" * 64) is None

    def test_tampered_object_is_evicted_and_counted(self, fig3_certificate):
        store = CertificateStore()
        cert_hash = store.put(fig3_certificate)
        key = certificate_request_key(fig3_certificate)
        # flip bytes behind the store's back: the object no longer
        # hashes to its address
        store._objects[cert_hash] = store._objects[cert_hash].replace(
            '"certified"', '"certifiedX"', 1
        )
        store._parsed.pop(cert_hash, None)
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        # the dangling index entry was dropped, so a re-certified
        # replacement can repoint it
        assert store.resolve(key) is None
        replacement = store.put(fig3_certificate, key)
        assert store.resolve(key) == replacement
        assert store.get(key) is not None


class TestOnDiskStore:
    def test_roundtrip_survives_process_restart(
        self, tmp_path, fig3_certificate
    ):
        root = str(tmp_path / "cas")
        cert_hash = CertificateStore(root).put(fig3_certificate)
        key = certificate_request_key(fig3_certificate)
        # a fresh instance sees only the on-disk layout
        reopened = CertificateStore(root)
        assert reopened.resolve(key) == cert_hash
        hit = reopened.get(key)
        assert hit is not None and hit.text() == fig3_certificate.text()
        assert len(reopened) == 1

    def test_parsed_certificates_are_bounded(
        self, tmp_path, fig3_certificate
    ):
        # a long-lived store keeps at most DEFAULT_CACHE_SIZE parsed
        # certificates; an evicted one is re-read from disk intact
        from repro.runtime.cache import DEFAULT_CACHE_SIZE

        store = CertificateStore(str(tmp_path / "cas"))
        certs = [
            ConformanceCertificate(
                dict(fig3_certificate.payload, subject=f"client-{i}")
            )
            for i in range(DEFAULT_CACHE_SIZE + 8)
        ]
        hashes = [store.put(cert) for cert in certs]
        for cert_hash in hashes:
            store.get_by_hash(cert_hash)
        assert len(store._parsed) <= DEFAULT_CACHE_SIZE
        assert hashes[0] not in store._parsed
        assert store.get_by_hash(hashes[0]) == certs[0]

    def test_recently_read_certificate_stays_parsed(
        self, tmp_path, fig3_certificate
    ):
        # eviction follows use, not insertion: a certificate read
        # between puts outlives the bound while older ones go
        from repro.runtime.cache import DEFAULT_CACHE_SIZE

        store = CertificateStore(str(tmp_path / "cas"))
        hot = store.put(fig3_certificate)
        cold = []
        for i in range(DEFAULT_CACHE_SIZE + 8):
            cold.append(
                store.put(
                    ConformanceCertificate(
                        dict(fig3_certificate.payload, subject=f"client-{i}")
                    )
                )
            )
            assert store.get_by_hash(hot) == fig3_certificate
        assert hot in store._parsed
        assert cold[0] not in store._parsed
        assert len(store._parsed) == DEFAULT_CACHE_SIZE

    def test_layout_is_sharded_by_hash_prefix(
        self, tmp_path, fig3_certificate
    ):
        root = str(tmp_path / "cas")
        cert_hash = CertificateStore(root).put(fig3_certificate)
        key = certificate_request_key(fig3_certificate)
        assert os.path.exists(
            os.path.join(
                root, "objects", cert_hash[:2], f"{cert_hash}.cert.json"
            )
        )
        assert os.path.exists(os.path.join(root, "index", key[:2], key))

    def test_tampered_file_is_rejected_and_unlinked(
        self, tmp_path, store_kind, fig3_certificate
    ):
        root = str(tmp_path / "cas")
        sample = store_kind.sample("tamper", certificate=fig3_certificate)
        store = store_kind.store(root)
        object_hash = sample.put(store)
        path = store.object_path(object_hash)
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[1] + text[0] + text[2:])
        fresh = store_kind.store(root)
        assert store_kind.get_text(fresh, sample.key) is None
        assert fresh.stats.corrupt == 1 and fresh.stats.misses == 1
        assert not os.path.exists(path)
        quarantined = os.path.join(
            root, "quarantine", object_hash + store_kind.suffix
        )
        with open(quarantined, encoding="utf-8") as handle:
            assert handle.read() == text[1] + text[0] + text[2:]
        # the dangling pointer went with it
        assert not os.path.exists(store.pointer_path("index", sample.key))

    def test_object_size_reads_disk(self, tmp_path, fig3_certificate):
        root = str(tmp_path / "cas")
        cert_hash = CertificateStore(root).put(fig3_certificate)
        assert CertificateStore(root).object_size(cert_hash) == len(
            fig3_certificate.text()
        )


class TestGetByHash:
    def test_hit_and_miss(self, fig3_certificate):
        store = CertificateStore()
        cert_hash = store.put(fig3_certificate)
        hit = store.get_by_hash(cert_hash)
        assert hit is not None
        assert sha256_text(hit.text()) == cert_hash
        assert store.get_by_hash("a" * 64) is None

    def test_returns_verified_parse(self, fig3_certificate):
        store = CertificateStore()
        cert_hash = store.put(fig3_certificate)
        cert = store.get_by_hash(cert_hash)
        assert isinstance(cert, ConformanceCertificate)
        assert cert.payload == fig3_certificate.payload


class TestGc:
    def _filled_store(self, store_kind, root, count=5, distinct=True):
        """``count`` objects whose recency increases with their index
        (or, with ``distinct=False``, is one shared instant)."""
        now = [0.0]
        store = store_kind.store(root, clock=lambda: now[0])
        keys, hashes = [], []
        for index in range(count):
            now[0] = 1000.0 + index if distinct else 1000.0
            sample = store_kind.sample(
                f"cert-{index}", key=f"{index:02d}" + "k" * 62
            )
            object_hash = sample.put(store)
            if root is not None:
                path = store.object_path(object_hash)
                os.utime(path, (now[0], now[0]))
            keys.append(sample.key)
            hashes.append(object_hash)
        return store, keys, hashes

    def test_max_entries_evicts_oldest_first(self, store_kind, tmp_path):
        store, keys, _ = self._filled_store(store_kind, str(tmp_path / "cas"))
        summary = store.gc(max_entries=2)
        assert summary["evicted"] == 3
        assert summary["objects_after"] == 2 and len(store) == 2
        for old in keys[:3]:
            assert store_kind.get_text(store, old) is None
        for recent in keys[3:]:
            assert store_kind.get_text(store, recent) is not None

    def test_equal_recency_evicts_in_hash_order(self, store_kind, tmp_path):
        store, keys, hashes = self._filled_store(
            store_kind, str(tmp_path / "cas"), distinct=False
        )
        store.gc(max_entries=2)
        kept = sorted(hashes)[3:]
        for key, object_hash in zip(keys, hashes):
            got = store_kind.get_text(store, key)
            assert (got is not None) == (object_hash in kept)

    def test_max_bytes_enforced(self, store_kind, tmp_path):
        store, _, hashes = self._filled_store(
            store_kind, str(tmp_path / "cas")
        )
        size = os.path.getsize(store.object_path(hashes[0]))
        summary = store.gc(max_bytes=2 * size)
        assert summary["bytes_after"] <= 2 * size
        assert summary["evicted"] == 3

    def test_gc_prunes_index_of_evicted_objects(self, store_kind, tmp_path):
        store, keys, _ = self._filled_store(store_kind, str(tmp_path / "cas"))
        store.gc(max_entries=1)
        # a fresh store over the same root must miss cleanly
        fresh = store_kind.store(store.root)
        assert store_kind.get_text(fresh, keys[0]) is None
        assert store_kind.get_text(fresh, keys[4]) is not None

    def test_gc_noop_under_limits(self, store_kind, tmp_path):
        store, keys, _ = self._filled_store(store_kind, str(tmp_path / "cas"))
        summary = store.gc(max_entries=10, max_bytes=10**9)
        assert summary["evicted"] == 0
        assert all(store_kind.get_text(store, k) is not None for k in keys)

    def test_gc_in_memory_store(self, store_kind):
        store, keys, _ = self._filled_store(store_kind, None)
        summary = store.gc(max_entries=2)
        assert summary["evicted"] == 3 and len(store) == 2
        assert store_kind.get_text(store, keys[-1]) is not None


class TestGcCli:
    @pytest.mark.parametrize(
        "kind_name, flags",
        [("certificate", []), ("summary", ["--kind", "summaries"])],
        ids=["certificate", "summary"],
    )
    def test_store_gc_command(self, tmp_path, kind_name, flags):
        from repro.cli import main

        kind = next(k for k in KINDS if k.name == kind_name)
        root = str(tmp_path / "cas")
        store = kind.store(root)
        for index in range(3):
            kind.sample(f"cli-{index}", key=f"{index:02d}" + "c" * 62).put(
                store
            )
        code = main(
            ["store", "gc", "--store", root, "--max-entries", "1", *flags]
        )
        assert code == 0
        assert len(kind.store(root)) == 1
