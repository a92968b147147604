"""The checker's verdicts on seeded mutants, pinned.

``tests/data/checker_verdicts.json`` maps each mutant of the fds and
interproc certificates of the shallow suite (and interproc for one
``make_shared_library(200)`` client) to the reject kind and first
violating edge the checker reported when the file was recorded.  The
``cert.mutate`` mutants never reach a few reject paths (a missing callee
context, a shrunken summary, an unknown node, an over-wide mask, a
variable-count mismatch), so a handful of hand-made tamperings pin
those too.  A refactor of the mask replay must reproduce every entry, so
a change in which edge is blamed first, or in how a violation is
classified, is seen here.  A deliberate verdict change updates the file
in the same commit: ``PYTHONPATH=src python tests/test_checker_verdicts.py``
rewrites it.
"""

import copy
import json
import random
import zlib
from pathlib import Path

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import make_shared_library
from repro.cert import CertificateChecker, mutate_certificate
from repro.easl.library import get_spec
from repro.suite import shallow_programs

TABLE = Path(__file__).resolve().parent / "data" / "checker_verdicts.json"

#: strengthen seeds per certificate (the shared-library client is large
#: enough to deserve more); verdict and version mutants use one seed each
STRENGTHEN_SEEDS = 12
LIBRARY_STRENGTHEN_SEEDS = 48


def _cases():
    """(case name, engine, source, strengthen seeds) per certificate."""
    cases = [
        (program.name, engine, program.source, STRENGTHEN_SEEDS)
        for program in shallow_programs()
        for engine in ("fds", "interproc")
    ]
    cases.append(
        (
            "shared_library_200",
            "interproc",
            make_shared_library(200),
            LIBRARY_STRENGTHEN_SEEDS,
        )
    )
    return cases


def _mutants(engine, seeds):
    yield "original", 0
    for seed in range(seeds):
        yield "strengthen", seed
    yield "verdict", 0
    yield "version", 0
    for tamper in TAMPERS[engine]:
        yield tamper, 0


def _first_node(annotation):
    return annotation["nodes"][0][1]


def _unknown_node(annotation):
    annotation["nodes"].append([99999, {"one": "0", "zero": "0"}])


def _wide_mask(annotation):
    _first_node(annotation)["one"] = format(1 << annotation["num_vars"], "x")


def _num_vars(annotation):
    annotation["num_vars"] += 1


def _contexts(tamper):
    def apply(annotation):
        for context in annotation["contexts"]:
            tamper(context)

    return apply


def _drop_callees(annotation):
    annotation["contexts"] = [
        context
        for context in annotation["contexts"]
        if [context["method"], context["entry"]] == annotation["root"]
    ]


def _shrink_summaries(annotation):
    for context in annotation["contexts"]:
        context["summary"] = "0"


#: engine -> hand-made tampering name -> in-place edit of the annotation
TAMPERS = {
    "fds": {
        "unknown-node": _unknown_node,
        "wide-mask": _wide_mask,
        "num-vars": _num_vars,
    },
    "interproc": {
        "unknown-node": _contexts(_unknown_node),
        "wide-mask": _contexts(_wide_mask),
        "num-vars": _contexts(_num_vars),
        "drop-callees": _drop_callees,
        "shrink-summary": _shrink_summaries,
    },
}


def _verdict(result):
    return {
        "kind": result.kind,
        "edge": list(result.edge) if result.edge is not None else None,
    }


def verdict_table():
    """Mutant id -> {"kind", "edge"} for every pinned mutant."""
    session = CertifySession(
        get_spec("cmp"), options=CertifyOptions(emit_certificate=True)
    )
    checker = CertificateChecker()
    table = {}
    for name, engine, source, seeds in _cases():
        payload = session.certify(source, engine=engine).certificate.payload
        for kind, seed in _mutants(engine, seeds):
            mutant_id = f"{name}/{engine}/{kind}/{seed}"
            if kind == "original":
                mutant = payload
            elif kind in TAMPERS[engine]:
                mutant = copy.deepcopy(payload)
                TAMPERS[engine][kind](mutant["annotation"])
            else:
                rng = random.Random(zlib.crc32(mutant_id.encode()))
                mutant, _applied = mutate_certificate(payload, rng, kind)
            table[mutant_id] = _verdict(checker.check(mutant))
    return table


@pytest.fixture(scope="module")
def computed():
    return verdict_table()


class TestCheckerVerdicts:
    def test_every_pinned_mutant_gets_its_recorded_verdict(self, computed):
        expected = json.loads(TABLE.read_text())
        assert sorted(computed) == sorted(expected)
        wrong = {
            mutant_id: (computed[mutant_id], verdict)
            for mutant_id, verdict in expected.items()
            if computed[mutant_id] != verdict
        }
        assert not wrong, wrong

    def test_originals_accepted_and_mutants_rejected(self, computed):
        """Tamperings may be harmless (dropping the callee contexts of a
        one-procedure client); ``cert.mutate`` mutants never are."""
        for mutant_id, verdict in computed.items():
            kind = mutant_id.split("/")[2]
            if kind == "original":
                assert verdict["kind"] == "accepted", mutant_id
            elif kind in ("strengthen", "verdict", "version"):
                assert verdict["kind"] != "accepted", mutant_id


if __name__ == "__main__":
    TABLE.write_text(
        "{\n"
        + ",\n".join(
            f"  {json.dumps(mutant_id)}: {json.dumps(verdict)}"
            for mutant_id, verdict in sorted(verdict_table().items())
        )
        + "\n}\n"
    )
