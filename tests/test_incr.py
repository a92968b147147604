"""Incremental recertification: delta certificates, dirty regions,
seeded fixpoints byte-identical to from-scratch runs, store lineage,
and the serve daemon's near-hit path."""

import asyncio
import copy

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.cert import (
    CertificateChecker,
    CertificateError,
    ConformanceCertificate,
    certificate_hash,
    check_delta,
    delta_text,
    encode_delta,
    load_delta,
    materialize_delta,
    write_delta,
)
from repro.cert.model import canonical_text
from repro.fuzz.edits import edit_sequence
from repro.fuzz.generator import generate_client
from repro.incr.dirty import clean_frontier, match_graphs
from repro.store.cas import CertificateStore, certificate_lineage_key

ENGINES = (
    "fds",
    "relational",
    "tvla-relational",
    "tvla-independent",
    "allocsite",
    "allocsite-recency",
    "shapegraph",
)


def tail_insert(source: str, statement: str = '    s0.add("x");') -> str:
    """``source`` with one statement inserted at the end of ``main`` —
    a universe-preserving edit that always takes the warm path."""
    lines = source.split("\n")
    assert lines[-3:] == ["  }", "}", ""]
    return "\n".join(lines[:-3] + [statement] + lines[-3:])


@pytest.fixture(scope="module")
def sessions(cmp_specification):
    def fresh():
        return CertifySession(
            cmp_specification,
            options=CertifyOptions(emit_certificate=True),
        )

    return fresh


# -- delta certificates ------------------------------------------------------


class TestDeltaCertificates:
    @pytest.fixture(scope="class")
    def pair(self, cmp_specification):
        session = CertifySession(
            cmp_specification,
            options=CertifyOptions(emit_certificate=True),
        )
        base = generate_client(1)
        parent = session.certify(base, "fds").certificate
        child = session.certify(tail_insert(base), "fds").certificate
        return parent, child

    def test_materialize_round_trips_byte_identically(self, pair):
        parent, child = pair
        delta = encode_delta(parent, child)
        rebuilt = materialize_delta(parent, delta)
        assert rebuilt.text() == child.text()
        assert certificate_hash(rebuilt) == delta["child_hash"]

    def test_delta_is_smaller_than_child(self, pair):
        parent, child = pair
        delta = encode_delta(parent, child)
        assert len(delta_text(delta)) < len(child.text())

    def test_delta_text_is_compact_canonical(self, pair):
        parent, child = pair
        delta = encode_delta(parent, child)
        assert delta_text(delta) == canonical_text(delta) + "\n"

    def test_version_one_delta_is_refused_as_unsupported(self, pair):
        """Version 1 hashed the indented certificate text, so its hashes
        match no current certificate: the version check refuses it
        before any hash is compared."""
        parent, child = pair
        delta = {**encode_delta(parent, child), "version": 1}
        with pytest.raises(CertificateError, match="unsupported version 1"):
            materialize_delta(parent, delta)

    def test_file_round_trip(self, pair, tmp_path):
        parent, child = pair
        delta = encode_delta(parent, child)
        path = str(tmp_path / "child.delta.json")
        write_delta(delta, path)
        assert load_delta(path) == delta

    def test_tampered_parent_is_rejected(self, pair):
        parent, child = pair
        delta = encode_delta(parent, child)
        tampered = ConformanceCertificate(
            {**parent.payload, "subject": "mallory"}
        )
        with pytest.raises(CertificateError):
            materialize_delta(tampered, delta)
        result, rebuilt = check_delta(
            tampered, delta, CertificateChecker()
        )
        assert not result.ok
        assert result.kind == "delta-mismatch"
        assert rebuilt is None

    def test_tampered_ops_are_rejected(self, pair):
        parent, child = pair
        delta = encode_delta(parent, child)
        delta = {
            **delta,
            "ops": {**delta["ops"], "set": {"subject": "mallory"}},
        }
        with pytest.raises(CertificateError):
            materialize_delta(parent, delta)

    def test_checked_delta_materializes_and_validates(
        self, pair, cmp_specification
    ):
        parent, child = pair
        delta = encode_delta(parent, child)
        result, rebuilt = check_delta(
            parent, delta, CertificateChecker(), spec=cmp_specification
        )
        assert result.ok
        assert rebuilt is not None and rebuilt.text() == child.text()

    def test_cli_delta_path_encodes_once_per_use(
        self, pair, tmp_path, monkeypatch
    ):
        """``certify --incremental-from P --emit-delta D --check`` encodes
        the child once (its file, hash and size), the parent once while
        encoding the delta, and the parent and the rebuilt child once
        each in the tamper check; the delta text is built once."""
        from repro.cert import delta as delta_module
        from repro.cli import main

        parent, _child = pair
        parent_path = tmp_path / "parent.cert.json"
        parent_path.write_text(parent.text(), encoding="utf-8")
        client = tmp_path / "child.jl"
        client.write_text(tail_insert(generate_client(1)), encoding="utf-8")
        calls = {"text": 0, "delta_text": 0}
        text, encode = ConformanceCertificate.text, delta_module.delta_text

        def counted_text(certificate):
            calls["text"] += 1
            return text(certificate)

        def counted_delta_text(delta):
            calls["delta_text"] += 1
            return encode(delta)

        monkeypatch.setattr(ConformanceCertificate, "text", counted_text)
        monkeypatch.setattr(delta_module, "delta_text", counted_delta_text)
        delta_path = tmp_path / "child.delta.json"
        assert main([
            "certify", str(client), "--engines", "fds",
            "--incremental-from", str(parent_path),
            "--emit-delta", str(delta_path), "--check", "--quiet",
        ]) == 0
        assert calls == {"text": 4, "delta_text": 1}
        rebuilt = materialize_delta(parent, load_delta(str(delta_path)))
        assert rebuilt.payload["source"] == client.read_text(encoding="utf-8")


# -- dirty-region computation ------------------------------------------------


class TestDirtyRegion:
    def test_identical_graphs_are_fully_clean(self):
        edges = [(0, 1, "a"), (1, 2, "b"), (2, 1, "c")]
        mapping, clean = match_graphs(0, edges, 0, edges)
        assert clean == {0, 1, 2}
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_changed_label_dirties_downstream_only(self):
        old = [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")]
        new = [(0, 1, "a"), (1, 2, "B"), (2, 3, "c")]
        _mapping, clean = match_graphs(0, old, 0, new)
        # 2 has a changed in-edge; 3's in-edge comes from an unclean
        # region boundary but its label and source node id still match —
        # cleanliness must not leak past the changed edge
        assert 0 in clean and 1 in clean
        assert 2 not in clean

    def test_clean_region_is_predecessor_closed(self):
        old = [(0, 1, "a"), (1, 2, "b")]
        new = [(0, 1, "A"), (1, 2, "b")]
        _mapping, clean = match_graphs(0, old, 0, new)
        assert 1 not in clean
        assert 2 not in clean  # pred 1 is dirty, closure removes 2

    def test_frontier_is_clean_nodes_feeding_dirty(self):
        new = [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")]
        assert clean_frontier({0, 1}, new) == (1,)


# -- seeded fixpoints == from-scratch ----------------------------------------


class TestIncrementalEquality:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tail_edit_is_byte_identical_and_warm(self, engine, sessions):
        base = generate_client(3)
        child = tail_insert(base)
        scratch = sessions().certify(child, engine)
        incr_session = sessions()
        parent = incr_session.certify(base, engine).certificate
        incremental = incr_session.certify(
            child, engine, incremental_from=parent
        )
        assert incremental.stats.get("incremental"), "fell back to full"
        assert incremental.certificate.text() == scratch.certificate.text()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fuzzed_edit_chain_is_byte_identical(self, engine, sessions):
        base = generate_client(5)
        scratch_session, incr_session = sessions(), sessions()
        parent = incr_session.certify(base, engine).certificate
        for source, _edit in edit_sequence(base, 3, 11):
            scratch = scratch_session.certify(source, engine)
            incremental = incr_session.certify(
                source, engine, incremental_from=parent
            )
            assert (
                incremental.certificate.text() == scratch.certificate.text()
            )
            parent = incremental.certificate

    def test_identity_edit_reuses_whole_graph(self, sessions):
        base = generate_client(2)
        session = sessions()
        parent = session.certify(base, "fds").certificate
        again = session.certify(base, "fds", incremental_from=parent)
        info = again.stats.get("incremental")
        assert info and info["clean_nodes"] == info["total_nodes"]
        assert again.certificate.text() == parent.text()

    def test_rename_falls_back_to_full_run(self, sessions):
        base = generate_client(2)
        session = sessions()
        parent = session.certify(base, "fds").certificate
        renamed = base.replace("s0", "zz0")
        report = session.certify(renamed, "fds", incremental_from=parent)
        assert report.stats.get("incremental") is None
        assert (
            report.certificate.text()
            == sessions().certify(renamed, "fds").certificate.text()
        )

    @pytest.mark.parametrize(
        "engine", ["fds", "relational", "tvla-relational", "tvla-independent"]
    )
    def test_other_universe_is_declined_before_parsing_the_parent(
        self, engine, sessions, monkeypatch
    ):
        from repro.incr import core
        from repro.runtime.trace import CollectingTracer, use_tracer

        child = generate_client(2)
        # one more variable: the parent's annotation counts another
        # variable universe, and its TVLA pool names the variable's
        # predicate, which the child's TVP lacks
        base = tail_insert(child, "    Set extra = new Set();")
        session = sessions()
        parent = session.certify(base, engine).certificate
        parsed = []
        parse = core.parse_program

        def recording_parse(source, spec):
            parsed.append(source)
            return parse(source, spec)

        monkeypatch.setattr(core, "parse_program", recording_parse)
        tracer = CollectingTracer()
        with use_tracer(tracer):
            report = session.certify(child, engine, incremental_from=parent)
        assert base not in parsed
        reasons = [
            event.meta["reason"]
            for event in tracer.events
            if event.phase == "incremental-fallback"
        ]
        assert reasons == ["universe-mismatch"]
        assert report.stats.get("incremental") is None
        assert (
            report.certificate.text()
            == sessions().certify(child, engine).certificate.text()
        )

    @pytest.mark.parametrize("engine", ["tvla-independent", "allocsite"])
    def test_negative_pool_ids_fall_back(self, engine, sessions):
        """Ids shifted by ``-len(pool)`` would index the same pool
        entries from the end; the parent decodes with the checker's own
        decoder, which refuses them, so the child certifies from
        scratch."""
        from repro.runtime.trace import CollectingTracer, use_tracer

        base = generate_client(3)
        child = tail_insert(base)
        session = sessions()
        payload = copy.deepcopy(session.certify(base, engine).certificate.payload)
        annotation = payload["annotation"]
        size = len(annotation["pool"])
        annotation["nodes"] = [
            [node, index - size] for node, index in annotation["nodes"]
        ]
        tracer = CollectingTracer()
        with use_tracer(tracer):
            report = session.certify(
                child, engine, incremental_from=ConformanceCertificate(payload)
            )
        reasons = [
            event.meta["reason"]
            for event in tracer.events
            if event.phase == "incremental-fallback"
        ]
        assert reasons == ["annotation-decode"]
        assert report.stats.get("incremental") is None
        assert (
            report.certificate.text()
            == sessions().certify(child, engine).certificate.text()
        )

    def test_options_carry_the_parent_too(self, cmp_specification):
        base = generate_client(2)
        parent = (
            CertifySession(
                cmp_specification,
                options=CertifyOptions(emit_certificate=True),
            )
            .certify(base, "fds")
            .certificate
        )
        session = CertifySession(
            cmp_specification,
            options=CertifyOptions(
                emit_certificate=True, incremental_from=parent
            ),
        )
        report = session.certify(tail_insert(base), "fds")
        assert report.stats.get("incremental")
        # the parent is an execution strategy, not an analysis input:
        # the emitted certificate's fingerprint must not change
        assert (
            report.certificate.payload["fingerprint"]
            == parent.payload["fingerprint"]
        )


# -- store lineage -----------------------------------------------------------


class TestStoreLineage:
    @pytest.fixture(scope="class")
    def certs(self, cmp_specification):
        session = CertifySession(
            cmp_specification,
            options=CertifyOptions(emit_certificate=True),
        )
        base = generate_client(1)
        return (
            session.certify(base, "fds").certificate,
            session.certify(tail_insert(base), "fds").certificate,
        )

    def test_lineage_points_at_latest_put(self, certs):
        parent, child = certs
        store = CertificateStore()
        store.put(parent)
        key = certificate_lineage_key(parent)
        assert key == certificate_lineage_key(child)
        assert store.get_lineage(key).text() == parent.text()
        store.put(child)
        assert store.get_lineage(key).text() == child.text()

    def test_lineage_survives_on_disk(self, certs, tmp_path):
        parent, _child = certs
        key = certificate_lineage_key(parent)
        CertificateStore(str(tmp_path)).put(parent)
        reopened = CertificateStore(str(tmp_path))
        assert reopened.get_lineage(key).text() == parent.text()

    def test_gc_prunes_lineage_of_evicted_objects(self, certs):
        parent, _child = certs
        store = CertificateStore()
        store.put(parent)
        store.gc(max_entries=0)
        assert store.get_lineage(certificate_lineage_key(parent)) is None


# -- serve daemon ------------------------------------------------------------


class TestServeNearHit:
    # process workers warm-start from the parent the daemon resolved,
    # exactly as the in-thread path does
    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_lineage_near_hit_warm_starts(self, worker_mode):
        from repro.serve.service import CertificationService, ServeConfig

        async def scenario():
            service = CertificationService(
                ServeConfig(specs=("cmp",), workers=1, worker_mode=worker_mode)
            )
            await service.start()
            base = generate_client(2)
            child = tail_insert(base)
            results = [
                await service.certify(
                    {"source": base, "engine": "fds", "spec": "cmp"}
                ),
                await service.certify(
                    {"source": child, "engine": "fds", "spec": "cmp"}
                ),
                await service.certify(
                    {"source": child, "engine": "fds", "spec": "cmp"}
                ),
            ]
            stats = service.stats()
            await service.stop()
            return results, stats

        results, stats = asyncio.run(scenario())
        (s1, p1), (s2, p2), (s3, p3) = results
        assert (s1, s2, s3) == (200, 200, 200)
        assert p1["served"]["path"] == "certify"
        assert p2["served"]["path"] == "incremental"
        assert p3["served"]["path"] == "check"  # exact hit now
        assert stats["requests"]["incremental"] == 1

    def test_miss_and_near_encode_the_certificate_once(self, monkeypatch):
        """The store put encodes a new certificate; the response's
        certificate section reuses that hash and size instead of encoding
        it again."""
        from repro.serve.service import CertificationService, ServeConfig

        calls = []
        text = ConformanceCertificate.text

        def counting_text(certificate):
            calls.append(certificate)
            return text(certificate)

        monkeypatch.setattr(ConformanceCertificate, "text", counting_text)

        async def scenario():
            service = CertificationService(
                ServeConfig(specs=("cmp",), workers=1)
            )
            await service.start()
            base = generate_client(2)
            counts = []
            for source in (base, tail_insert(base)):
                calls.clear()
                status, payload = await service.certify(
                    {"source": source, "engine": "fds", "spec": "cmp"}
                )
                assert status == 200
                counts.append((payload["served"]["path"], len(calls)))
                assert payload["certificate"]["hash"] == payload["served"]["hash"]
                assert payload["certificate"]["bytes"] == len(
                    text(calls[0]).encode("utf-8")
                )
            await service.stop()
            return counts

        assert asyncio.run(scenario()) == [("certify", 1), ("incremental", 1)]

    def test_explicit_parent_hash_is_honoured(self):
        from repro.serve.service import CertificationService, ServeConfig

        async def scenario():
            service = CertificationService(
                ServeConfig(specs=("cmp",), workers=1)
            )
            await service.start()
            base = generate_client(2)
            _status, p1 = await service.certify(
                {"source": base, "engine": "fds", "spec": "cmp"}
            )
            status, p2 = await service.certify(
                {
                    "source": tail_insert(base),
                    "engine": "fds",
                    "spec": "cmp",
                    "parent": p1["served"]["hash"],
                }
            )
            await service.stop()
            return status, p2

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["served"]["path"] == "incremental"


# -- bench gate --------------------------------------------------------------


class TestIncrementalBench:
    def test_tiny_bench_gates_green(self, cmp_specification):
        from repro.bench.incremental import run_incremental_bench

        result = run_incremental_bench(
            cmp_specification,
            seeds=2,
            edits=2,
            distances=(1,),
            reps=1,
        )
        assert result.mismatches == 0
        assert result.ok()
        payload = result.to_json()
        assert payload["pair_count"] == 4
        assert payload["speedups"][0]["identical"]
