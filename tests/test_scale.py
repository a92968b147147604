"""The scale harness: generator families, measurement, summary DB.

Covers the pieces the nightly scale-curve job depends on: every
synthetic family parses cleanly and hits its statement target across
sizes and seeds, the measurement harness produces well-formed rows
with uniform host metadata, superlinear detection flags blowups, and
the warm/cold summary-DB protocol keeps certificates byte-identical.
The property test at the end is the load-or-compute contract on
*fuzzed* programs: a summary database may change timings, never bytes.
"""

import json
import os

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.scale import (
    DEFAULT_ENGINES,
    ScaleRow,
    find_superlinear,
    host_meta,
    measure_cell,
    run_scale,
    warm_cold_protocol,
)
from repro.bench.synthetic import (
    SCALE_FAMILIES,
    count_statements,
    make_deep_calls,
    make_heap_chain,
    make_shared_library,
    make_wide_scc,
)
from repro.easl.library import get_spec
from repro.fuzz import FuzzConfig, generate_client
from repro.lang.types import parse_program

GENERATORS = {
    "deep-calls": make_deep_calls,
    "wide-scc": make_wide_scc,
    "heap-chain": make_heap_chain,
    "shared-library": make_shared_library,
}


class TestScaleFamilies:
    def test_registry_matches_generators(self):
        assert set(GENERATORS) == set(SCALE_FAMILIES)

    @pytest.mark.parametrize("family", sorted(SCALE_FAMILIES))
    @pytest.mark.parametrize("target", (200, 1000))
    def test_parse_clean_near_target(self, family, target):
        source = GENERATORS[family](target, seed=3)
        program = parse_program(source, get_spec("cmp"))
        assert program.entry is not None
        statements = count_statements(source)
        # generated sizes track the target within a small constant
        # factor at every scale — the harness records the real count
        assert statements >= target // 2
        assert statements <= 4 * target

    @pytest.mark.parametrize("family", sorted(SCALE_FAMILIES))
    def test_deterministic_per_seed(self, family):
        a = GENERATORS[family](300, seed=9)
        b = GENERATORS[family](300, seed=9)
        c = GENERATORS[family](300, seed=10)
        assert a == b
        assert a != c

    def test_shared_library_certifies_under_interproc(self):
        source = make_shared_library(300, seed=1)
        session = CertifySession(get_spec("cmp"), engine="interproc")
        report = session.certify(source)
        assert report.stats["contexts"] > 1


class TestMeasurement:
    def test_measure_cell_row_shape(self):
        row = measure_cell("deep-calls", 150, "interproc", seed=2)
        assert row.status == "ok"
        assert row.family == "deep-calls"
        assert row.statements > 0
        assert row.certify_seconds > 0
        assert row.check_seconds > 0
        assert row.peak_rss_kb > 0
        assert row.cert_sha256
        doc = row.to_json()
        assert doc["engine"] == "interproc"

    def test_heap_chain_incompatible_not_error(self):
        # deep heaps need TVLA; interproc refuses fast instead of
        # grinding the deadline — the harness records the refusal
        row = measure_cell("heap-chain", 150, "interproc", seed=2)
        assert row.status == "incompatible"
        assert row.gen_seconds > 0

    def test_host_meta_fields(self):
        meta = host_meta()
        assert meta["host_cpus"] >= 1
        assert isinstance(meta["python_version"], str)

    def test_find_superlinear_flags_blowup(self):
        rows = [
            ScaleRow(
                family="f", engine="e", target=n, statements=n, seed=1,
                status="ok", certify_seconds=t,
            )
            for n, t in ((1000, 1.0), (2000, 40.0))
        ]
        flagged = find_superlinear(rows, factor=3.0)
        assert len(flagged) == 1
        assert flagged[0]["time_ratio"] > 3.0 * flagged[0]["size_ratio"]

    def test_find_superlinear_accepts_linear(self):
        rows = [
            ScaleRow(
                family="f", engine="e", target=n, statements=n, seed=1,
                status="ok", certify_seconds=t,
            )
            for n, t in ((1000, 1.0), (2000, 2.1), (4000, 4.4))
        ]
        assert find_superlinear(rows, factor=3.0) == []

    def test_run_scale_report_document(self):
        report = run_scale(
            families=("deep-calls",),
            sizes=(150,),
            engines=DEFAULT_ENGINES,
            warm_cold=False,
        )
        doc = report.to_json()
        assert doc["kind"] == "scale"
        assert doc["meta"]["host_cpus"] >= 1
        assert len(doc["rows"]) == 1
        assert doc["warm_cold"] is None
        text = report.format()
        assert "deep-calls" in text


class TestWarmCold:
    def test_protocol_byte_identical(self, tmp_path):
        report = warm_cold_protocol(
            target=300, seed=1, summary_db=str(tmp_path / "db")
        )
        assert report.certificates_identical
        assert report.alarms_equal
        assert report.summaries_loaded > 0
        assert report.cold_seconds > 0 and report.warm_seconds > 0

    def test_summary_db_round_trip_stats(self, tmp_path):
        db = str(tmp_path / "db")
        source = make_shared_library(250, seed=4)
        spec = get_spec("cmp")
        cold = CertifySession(
            spec, engine="interproc",
            options=CertifyOptions(summary_db=db),
        ).certify(source)
        warm = CertifySession(
            spec, engine="interproc",
            options=CertifyOptions(summary_db=db),
        ).certify(source)
        assert cold.stats["summaries_stored"] > 0
        assert warm.stats["summaries_loaded"] > 0
        assert warm.stats["summaries_stored"] == 0


class TestLoadOrComputeProperty:
    """Summaries loaded from the DB must equal freshly computed ones."""

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_programs_byte_identical(self, seed, tmp_path):
        from repro.certifier.transform import TransformError

        source = generate_client(
            seed, FuzzConfig(max_helpers=3, helper_stmts=6, max_stmts=24)
        )
        spec = get_spec("cmp")
        db = str(tmp_path / f"db-{seed}")
        opts = CertifyOptions(emit_certificate=True, summary_db=db)
        fresh_opts = CertifyOptions(emit_certificate=True)
        try:
            fresh = CertifySession(
                spec, engine="interproc", options=fresh_opts
            ).certify(source)
        except TransformError:
            pytest.skip("fuzzed client outside the interproc fragment")
        cold = CertifySession(
            spec, engine="interproc", options=opts
        ).certify(source)
        warm = CertifySession(
            spec, engine="interproc", options=opts
        ).certify(source)
        fresh_alarms = sorted(a.line for a in fresh.alarms)
        assert sorted(a.line for a in cold.alarms) == fresh_alarms
        assert sorted(a.line for a in warm.alarms) == fresh_alarms
        assert fresh.certificate is not None
        assert cold.certificate.text() == fresh.certificate.text()
        assert warm.certificate.text() == fresh.certificate.text()

    def test_partial_db_still_byte_identical(self, tmp_path):
        """Regression: a database holding only a *subset* of a run's
        summaries (e.g. the writer died mid-persist) once produced a
        non-inductive certificate — a context installed by recursive
        validation never re-scheduled its queued dependents."""
        from repro.store.summary import SummaryStore

        source = make_shared_library(240, seed=7)
        spec = get_spec("cmp")
        full_db = str(tmp_path / "full")
        opts = CertifyOptions(emit_certificate=True, summary_db=full_db)
        reference = CertifySession(
            spec, engine="interproc", options=opts
        ).certify(source)

        full = SummaryStore(full_db)
        full.recover()
        keys = []
        index_root = os.path.join(full_db, "index")
        for sub in sorted(os.listdir(index_root)):
            keys.extend(sorted(os.listdir(os.path.join(index_root, sub))))
        assert len(keys) > 4
        from repro.cert.check import CertificateChecker

        checker = CertificateChecker()
        for drop in (1, len(keys) // 2, len(keys) - 1):
            partial_db = str(tmp_path / f"partial-{drop}")
            partial = SummaryStore(partial_db)
            for key in keys[:-drop]:
                payload = full.get(key)
                assert payload is not None
                partial.put(key, payload)
            got = CertifySession(
                spec, engine="interproc",
                options=CertifyOptions(
                    emit_certificate=True, summary_db=partial_db
                ),
            ).certify(source)
            assert got.certificate.text() == reference.certificate.text()
            assert checker.check(got.certificate).ok


def _drop_bit(table, node):
    """Clear the lowest set bit of ``table[node]``; False if none."""
    mask = int(table[node], 16)
    if not mask:
        return False
    table[node] = format(mask & (mask - 1), "x")
    return True


def _drop_at_non_entry(field):
    def tamper(payload):
        return any(
            _drop_bit(payload[field], node)
            for node in sorted(payload[field], key=int)
            if node != ENTRY_NODE
        )

    return tamper


def _exit_differs(payload):
    payload["exit"] = format(int(payload["exit"], 16) ^ 1, "x")
    return True


def _bit_beyond_num_vars(payload):
    node = max(payload["states"], key=int)
    mask = int(payload["states"][node], 16) | 1 << payload["num_vars"]
    payload["states"][node] = format(mask, "x")
    return True


def _entry_misses_seed(payload):
    entry_vector = int(payload["entry"], 16)
    if not entry_vector:
        return False
    mask = int(payload["states"][ENTRY_NODE], 16)
    payload["states"][ENTRY_NODE] = format(
        mask & ~(entry_vector & -entry_vector), "x"
    )
    return True


def _num_vars_mismatch(payload):
    payload["num_vars"] += 1
    return True


#: node id of every procedure's entry in the interproc boolean programs
ENTRY_NODE = "0"

#: name -> in-place tampering of one stored context payload; returns
#: False when the payload offers nothing to tamper with
SUMMARY_TAMPERS = {
    "non-inductive-may-one": _drop_at_non_entry("states"),
    "non-inductive-may-zero": _drop_at_non_entry("zeros"),
    "exit-differs": _exit_differs,
    "bit-beyond-num-vars": _bit_beyond_num_vars,
    "entry-misses-seed": _entry_misses_seed,
    "num-vars-mismatch": _num_vars_mismatch,
}


class TestTamperedSummaries:
    """The summary DB never installs a payload its replay rejects: a
    tampered context is recomputed, so the certificate keeps the cold
    run's bytes and the checker accepts it."""

    SOURCE = make_shared_library(240, seed=7)

    @pytest.fixture(scope="class")
    def primed(self, tmp_path_factory):
        from repro.cert.check import CertificateChecker
        from repro.store.summary import SummaryStore

        db = str(tmp_path_factory.mktemp("primed") / "db")
        cold = CertifySession(
            get_spec("cmp"), engine="interproc",
            options=CertifyOptions(emit_certificate=True, summary_db=db),
        ).certify(self.SOURCE)
        store = SummaryStore(db)
        store.recover()
        index_root = os.path.join(db, "index")
        payloads = {
            key: store.get(key)
            for sub in sorted(os.listdir(index_root))
            for key in sorted(os.listdir(os.path.join(index_root, sub)))
        }
        assert len(payloads) > 4
        return cold.certificate.text(), payloads, CertificateChecker()

    def _warm(self, tmp_path, payloads):
        from repro.store.summary import SummaryStore

        db = str(tmp_path / "tampered")
        store = SummaryStore(db)
        for key, payload in payloads.items():
            store.put(key, payload)
        return CertifySession(
            get_spec("cmp"), engine="interproc",
            options=CertifyOptions(emit_certificate=True, summary_db=db),
        ).certify(self.SOURCE)

    def _assert_recomputed(self, primed, report):
        cold_text, _payloads, checker = primed
        assert report.stats["summary_rejects"] > 0
        assert report.certificate.text() == cold_text
        assert checker.check(report.certificate).ok

    @pytest.mark.parametrize("case", sorted(SUMMARY_TAMPERS))
    def test_tampered_context_is_recomputed(self, primed, tmp_path, case):
        payloads = dict(primed[1])
        for key in sorted(payloads):
            payload = json.loads(json.dumps(payloads[key]))
            if SUMMARY_TAMPERS[case](payload):
                payloads[key] = payload
                break
        else:
            pytest.fail(f"no stored context offers a {case} tampering")
        self._assert_recomputed(primed, self._warm(tmp_path, payloads))

    def test_node_outside_the_procedure_is_recomputed(self, primed, tmp_path):
        """Regression: a payload naming node 99999 (no procedure has it)
        was installed, and the certificate it produced was rejected as
        ``malformed: bad node annotation``."""
        payloads = json.loads(json.dumps(primed[1]))
        for payload in payloads.values():
            payload["states"]["99999"] = "0"
            payload["zeros"]["99999"] = "0"
        self._assert_recomputed(primed, self._warm(tmp_path, payloads))


class TestBenchScaleCli:
    def test_scale_json_and_force_guard(self, tmp_path, capsys):
        from repro.cli import bench_main

        out = tmp_path / "scale.json"
        code = bench_main([
            "--scale", "--scale-sizes", "150", "--families", "deep-calls",
            "--no-warm-cold", "--quiet", "--json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "scale"
        assert doc["meta"]["host_cpus"] >= 1
        # a second write without --force must refuse
        code = bench_main([
            "--scale", "--scale-sizes", "150", "--families", "deep-calls",
            "--no-warm-cold", "--quiet", "--json", str(out),
        ])
        assert code == 2
        assert "--force" in capsys.readouterr().err
        code = bench_main([
            "--scale", "--scale-sizes", "150", "--families", "deep-calls",
            "--no-warm-cold", "--quiet", "--json", str(out), "--force",
        ])
        assert code == 0

    def test_meta_injected_for_precision_mode(self, tmp_path):
        from repro.cli import bench_main

        out = tmp_path / "precision.json"
        code = bench_main([
            "--engines", "fds", "--programs", "fig3", "--quiet",
            "--json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "precision"
        assert set(doc["meta"]) >= {"host_cpus", "python_version"}
