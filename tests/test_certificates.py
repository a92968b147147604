"""Tests for proof-carrying conformance certificates (repro.cert).

The property at the heart of the feature: for every suite program and
every applicable engine, emit -> independent check accepts; and any
guaranteed-reject mutation (may-fact removal, verdict tamper, version
bump) is refused.  Plus unit tests for the delta codecs, the structure
codec, partial certificates, and byte determinism.
"""

import json
import random
import zlib

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.harness import HEAP_ENGINES, SHALLOW_ENGINES
from repro.cert import (
    CERT_VERSION,
    CertificateChecker,
    ConformanceCertificate,
    mutate_certificate,
)
from repro.cert import model
from repro.suite import all_programs, by_name


def applicable_engines(program):
    engines = SHALLOW_ENGINES if program.shallow else HEAP_ENGINES
    return [e for e in engines if e != "auto"]


ALL_CASES = [
    (program, engine)
    for program in all_programs()
    for engine in applicable_engines(program)
]


@pytest.fixture(scope="module")
def emitting_session(cmp_specification):
    return CertifySession(
        cmp_specification, options=CertifyOptions(emit_certificate=True)
    )


@pytest.fixture(scope="module")
def checker():
    return CertificateChecker()


class TestEmitCheckProperty:
    """Every suite program x engine: emit -> check accepts; a seeded
    strengthen mutation is rejected."""

    @pytest.mark.parametrize(
        "name,engine",
        [(p.name, e) for p, e in ALL_CASES],
    )
    def test_certificate_round_trips_and_mutant_rejected(
        self, emitting_session, checker, name, engine
    ):
        program = by_name(name)
        report = emitting_session.certify(program.source, engine=engine)
        certificate = report.certificate
        assert certificate is not None
        assert certificate.engine == engine
        assert not certificate.partial

        result = checker.check(certificate)
        assert result.ok, (
            f"{name}/{engine} rejected: {result.kind} "
            f"({result.detail}, edge={result.edge})"
        )
        assert result.nodes > 0

        rng = random.Random(zlib.crc32(f"{name}/{engine}".encode()))
        mutant, applied = mutate_certificate(
            certificate.payload, rng, "strengthen"
        )
        verdict = checker.check(mutant)
        assert not verdict.ok, (
            f"{name}/{engine}: {applied} mutant accepted"
        )


class TestDeterminism:
    def test_same_source_emits_identical_bytes(
        self, emitting_session
    ):
        source = by_name("fig3").source
        texts = {
            emitting_session.certify(source, engine=engine)
            .certificate.text()
            for engine in ("fds", "relational", "interproc")
        }
        assert len(texts) == 3  # engines differ...
        again = {
            emitting_session.certify(source, engine=engine)
            .certificate.text()
            for engine in ("fds", "relational", "interproc")
        }
        assert texts == again  # ...but re-emission is byte-identical

    def test_fresh_session_emits_identical_bytes(
        self, cmp_specification, emitting_session
    ):
        source = by_name("fig1_heap").source
        first = emitting_session.certify(
            source, engine="tvla-relational"
        ).certificate.text()
        fresh = CertifySession(
            cmp_specification,
            options=CertifyOptions(emit_certificate=True),
        )
        second = fresh.certify(
            source, engine="tvla-relational"
        ).certificate.text()
        assert first == second

    def test_no_timing_stats_leak_into_certificate(self, emitting_session):
        report = emitting_session.certify(
            by_name("fig3").source, engine="tvla-relational"
        )
        stats = report.certificate.payload["stats"]
        assert "seconds" not in stats
        assert "transfer_hits" not in stats
        assert "transfer_misses" not in stats


class TestMutations:
    @pytest.fixture(scope="class")
    def fds_certificate(self, emitting_session):
        return emitting_session.certify(
            by_name("fig3").source, engine="fds"
        ).certificate

    def test_verdict_mutation_rejected(self, checker, fds_certificate):
        mutant, applied = mutate_certificate(
            fds_certificate.payload, random.Random(3), "verdict"
        )
        assert applied == "verdict"
        verdict = checker.check(mutant)
        assert not verdict.ok
        assert verdict.kind == "alarm-mismatch"

    def test_version_mutation_rejected(self, checker, fds_certificate):
        mutant, applied = mutate_certificate(
            fds_certificate.payload, random.Random(3), "version"
        )
        assert applied == "version"
        verdict = checker.check(mutant)
        assert not verdict.ok
        assert verdict.kind == "version-mismatch"

    def test_source_tamper_rejected(self, checker, fds_certificate):
        import copy

        mutant = copy.deepcopy(fds_certificate.payload)
        mutant["source"] = mutant["source"] + "\n// tampered\n"
        verdict = checker.check(mutant)
        assert not verdict.ok
        assert verdict.kind == "source-hash-mismatch"

    @pytest.mark.parametrize("order", ["fifo", None])
    def test_non_rpo_worklist_rejected(self, checker, fds_certificate, order):
        """The engines only schedule in reverse postorder: a certificate
        recording any other worklist (or none) is malformed even when its
        fingerprint is recomputed to match the tampered options."""
        import copy

        mutant = copy.deepcopy(fds_certificate.payload)
        assert mutant["options"]["worklist"] == "rpo"
        if order is None:
            del mutant["options"]["worklist"]
        else:
            mutant["options"]["worklist"] = order
        mutant["fingerprint"] = model.options_fingerprint(
            mutant["engine"], mutant["options"]
        )
        verdict = checker.check(mutant)
        assert not verdict.ok
        assert verdict.kind == "malformed"
        assert "worklist" in verdict.detail

    def test_strengthen_reports_first_violating_edge(
        self, checker, fds_certificate
    ):
        rng = random.Random(5)
        mutant, applied = mutate_certificate(
            fds_certificate.payload, rng, "strengthen"
        )
        assert applied == "strengthen"
        verdict = checker.check(mutant)
        assert not verdict.ok
        if verdict.kind == "not-inductive":
            assert verdict.edge is not None

    @pytest.mark.parametrize("engine", ["fds", "interproc"])
    def test_negative_masks_rejected(self, emitting_session, checker, engine):
        """Regression: ``int("-1", 16)`` is -1, which passed the
        ``mask >= 1 << num_vars`` range check, so a certificate whose
        may-0 masks were all -1 ("every bit, and more") was accepted."""
        import copy

        payload = copy.deepcopy(
            emitting_session.certify(
                by_name("remove_self_ok").source, engine=engine
            ).certificate.payload
        )
        annotation = payload["annotation"]
        tables = (
            [context["nodes"] for context in annotation["contexts"]]
            if engine == "interproc"
            else [annotation["nodes"]]
        )
        tampered = 0
        for nodes in tables:
            for _node, entry in nodes:
                if "zero" in entry:
                    entry["zero"] = "-1"
                    tampered += 1
        assert tampered
        verdict = checker.check(payload)
        assert not verdict.ok
        assert verdict.kind == "malformed"

    @pytest.mark.parametrize(
        "engine",
        ["tvla-independent", "allocsite", "allocsite-recency", "shapegraph"],
    )
    def test_negative_pool_ids_rejected(
        self, emitting_session, checker, engine
    ):
        """Regression: a node's pool id minus the pool size names the
        same structure through Python's negative indexing, so the
        shifted certificate was accepted; tvla-relational already
        rejected it."""
        import copy

        from repro.bench.synthetic import make_heap_chain

        payload = copy.deepcopy(
            emitting_session.certify(
                make_heap_chain(24, seed=1), engine=engine
            ).certificate.payload
        )
        annotation = payload["annotation"]
        assert checker.check(copy.deepcopy(payload)).ok
        for entry in annotation["nodes"]:
            entry[1] -= len(annotation["pool"])
        verdict = checker.check(payload)
        assert not verdict.ok
        assert verdict.kind == "malformed"


class TestPartialCertificates:
    def test_breached_run_emits_partial_and_checker_rejects(
        self, cmp_specification, checker
    ):
        session = CertifySession(
            cmp_specification,
            options=CertifyOptions(
                max_steps=1, ladder=True, emit_certificate=True
            ),
        )
        report = session.certify(
            by_name("fig1_heap").source, engine="tvla-relational"
        )
        certificate = report.certificate
        assert certificate is not None
        assert certificate.partial
        salvage = certificate.payload["verdict"]["salvage"]
        assert salvage["breach"] == "steps"
        assert certificate.payload["annotation"] is None
        verdict = checker.check(certificate)
        assert not verdict.ok
        assert verdict.kind == "partial"

    def test_emit_requires_source_text(self, cmp_specification):
        from repro.lang.types import parse_program

        session = CertifySession(
            cmp_specification,
            options=CertifyOptions(emit_certificate=True),
        )
        program = parse_program(by_name("fig3").source, cmp_specification)
        with pytest.raises(ValueError, match="source"):
            session.certify_program(program, engine="fds")


class TestDeltaCodecs:
    def test_mask_delta_round_trip(self):
        preds = {2: [1], 3: [2, 1], 4: [3]}
        masks = {
            1: (0xABCDEF0123456789, 0x123456789ABCDEF0),
            2: (0xABCDEF0123456788, 0x123456789ABCDEF1),
            3: (0xABCDEF0123456788, 0x123456789ABCDEF1),
            4: (0x0000, 0xFFFF),
        }
        encoded = model.encode_masks(masks, preds)
        assert model.decode_masks(encoded) == masks
        # nodes 2 and 3 sit one bit-flip from their wide predecessor
        # masks: the xor-delta serialization is shorter (including its
        # extra key overhead), so it must be chosen
        by_node = {entry[0]: entry[1] for entry in encoded}
        assert "ref" in by_node[2]
        assert "ref" in by_node[3]
        # node 4 has no encoded predecessor: absolute form
        assert "one" in by_node[4]

    def test_mask_absolute_when_no_predecessor(self):
        masks = {7: (0b11, 0b00)}
        encoded = model.encode_masks(masks, {})
        assert "one" in encoded[0][1]
        assert model.decode_masks(encoded) == masks

    def test_int_set_delta_round_trip(self):
        preds = {2: [1]}
        sets = {
            1: frozenset(range(12)),
            2: (frozenset(range(12)) - {5}) | {19},
        }
        encoded = model.encode_int_sets(sets, preds)
        assert model.decode_int_sets(encoded) == sets
        by_node = {entry[0]: entry[1] for entry in encoded}
        assert "ref" in by_node[2]
        assert by_node[2]["add"] == [19]
        assert by_node[2]["drop"] == [5]

    def test_malformed_delta_reference_raises(self):
        with pytest.raises(model.CertificateError):
            model.decode_masks([[1, {"ref": 99, "one_x": "0", "zero_x": "0"}]])

    def test_absolute_annotation_strips_deltas(self):
        preds = {2: [1]}
        masks = {1: (0b11, 0b00), 2: (0b11, 0b00)}
        annotation = {
            "kind": "fds",
            "num_vars": 2,
            "nodes": model.encode_masks(masks, preds),
        }
        flat = model.absolute_annotation(annotation)
        for _node, payload in flat["nodes"]:
            assert "ref" not in payload
        assert model.decode_masks(flat["nodes"]) == masks


class TestStructureCodec:
    def test_structure_round_trip_preserves_canonical_key(
        self, emitting_session, checker
    ):
        report = emitting_session.certify(
            by_name("fig1_heap").source, engine="tvla-relational"
        )
        annotation = report.certificate.payload["annotation"]
        assert annotation["pool"], "heap program must pool structures"
        session_arts = emitting_session.artifacts(
            __import__("repro.lang.types", fromlist=["parse_program"])
            .parse_program(
                by_name("fig1_heap").source, emitting_session.spec
            ),
            "tvla-relational",
            source_key=by_name("fig1_heap").source,
        )
        preds = session_arts["engine_obj"].abstraction_preds
        for entry in annotation["pool"]:
            structure = model.structure_from_json(entry)
            again = model.structure_to_json(
                structure.canonicalize(preds), preds
            )
            assert again == entry

    def test_bad_structure_payload_raises(self):
        with pytest.raises(model.CertificateError):
            model.structure_from_json(
                {"nodes": 2, "summary": [0], "nullary": [], "unary": [],
                 "binary": []}
            )


class TestCertificateFile:
    def test_write_load_check(
        self, emitting_session, checker, tmp_path
    ):
        report = emitting_session.certify(
            by_name("scanner").source, engine="interproc"
        )
        path = tmp_path / "scanner.cert.json"
        report.certificate.write(str(path))
        loaded = ConformanceCertificate.load(str(path))
        assert loaded.payload == report.certificate.payload
        assert checker.check(loaded).ok
        # the on-disk form is compact canonical JSON: sorted keys, no
        # whitespace, trailing newline
        text = path.read_text()
        assert text == model.canonical_text(json.loads(text)) + "\n"
        assert text == report.certificate.text()

    def test_indented_certificate_loads_and_checks(
        self, emitting_session, checker, tmp_path
    ):
        """Certificates used to be written with ``indent=2``; such a file
        still loads and is accepted, and re-encodes to the compact form."""
        report = emitting_session.certify(
            by_name("scanner").source, engine="interproc"
        )
        path = tmp_path / "scanner.cert.json"
        path.write_text(
            json.dumps(report.certificate.payload, sort_keys=True, indent=2)
            + "\n"
        )
        loaded = ConformanceCertificate.load(str(path))
        assert checker.check(loaded).ok
        assert loaded.text() == report.certificate.text()

    def test_version_constant_recorded(self, emitting_session):
        report = emitting_session.certify(
            by_name("fig3").source, engine="fds"
        )
        assert report.certificate.payload["version"] == CERT_VERSION


class TestBatchCertificates:
    def test_batch_runner_writes_checkable_certificates(
        self, checker, tmp_path
    ):
        from repro.runtime.batch import BatchRunner, JobSpec

        jobs = [
            JobSpec(
                name="fig3", spec="cmp",
                source=by_name("fig3").source, engine="fds",
            ),
            JobSpec(
                name="holder_safe", spec="cmp",
                source=by_name("holder_safe").source, engine="shapegraph",
            ),
        ]
        runner = BatchRunner(
            jobs, max_workers=1, emit_certs_dir=str(tmp_path)
        )
        result = runner.run()
        assert result.ok
        for record in result.to_json()["results"]:
            assert record["certificate"] is not None
            loaded = ConformanceCertificate.load(
                record["certificate"]["path"]
            )
            assert checker.check(loaded).ok


class TestFuzzCertGate:
    def test_gate_accepts_and_kills_mutants_on_fuzzed_programs(
        self, cmp_specification
    ):
        from repro.fuzz import CertGate, run_campaign

        engines = ("fds", "tvla-relational")
        gate = CertGate(
            cmp_specification, engines, mutate=True, mutation_seed=1
        )
        run_campaign(range(0, 4), engines=engines, on_case=gate)
        assert gate.result.emitted > 0
        assert gate.result.accepted == gate.result.emitted
        assert gate.result.mutants_rejected == gate.result.mutants
        assert gate.result.ok
