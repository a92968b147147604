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

``tests/data/checker_verdicts_states.json`` does the same for the state
families — relational, tvla-relational, tvla-independent, allocsite,
allocsite-recency and shapegraph — over every suite certificate those
engines emit and over one ``make_heap_chain(24, seed=1)`` client.  Beside
the ``cert.mutate`` mutants, hand tamperings reach each reject path of
the set-shaped and join-shaped passes: a kind or mode mismatch, an
unknown node, out-of-range and negative ids (valuations for relational),
a missing entry, an entry that does not subsume the initial state, and a
dropped successor annotation.  Accepted certificates also record their
node and edge counts.
"""

import copy
import json
import random
import zlib
from pathlib import Path

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.harness import HEAP_ENGINES
from repro.bench.synthetic import make_heap_chain, make_shared_library
from repro.cert import CertificateChecker, model, mutate_certificate
from repro.easl.library import get_spec
from repro.suite import all_programs, shallow_programs

DATA = Path(__file__).resolve().parent / "data"
TABLE = DATA / "checker_verdicts.json"
STATE_TABLE = DATA / "checker_verdicts_states.json"

#: strengthen seeds per certificate (the shared-library client is large
#: enough to deserve more); verdict and version mutants use one seed each
STRENGTHEN_SEEDS = 12
LIBRARY_STRENGTHEN_SEEDS = 48
#: the same for the state families: suite certificates, heap chain
STATE_STRENGTHEN_SEEDS = 3
CHAIN_STRENGTHEN_SEEDS = 12


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


# -- state families ----------------------------------------------------------


def _state_cases():
    """(case name, engine, source, strengthen seeds) per certificate of a
    state family: the suite matrix, and one heap-chain client."""
    cases = [
        (program.name, engine, program.source, STATE_STRENGTHEN_SEEDS)
        for program in sorted(all_programs(), key=lambda b: b.name)
        for engine in (
            ("relational",) + HEAP_ENGINES if program.shallow else HEAP_ENGINES
        )
    ]
    chain = make_heap_chain(24, seed=1)
    cases.extend(
        ("heap_chain_24", engine, chain, CHAIN_STRENGTHEN_SEEDS)
        for engine in HEAP_ENGINES
    )
    return cases


def _edit_sets(annotation, edit):
    """Decode a set-shaped annotation, edit {node: set}, re-encode."""
    sets = dict(model.decode_int_sets(annotation["nodes"]))
    edit(sets)
    annotation["nodes"] = model.encode_int_sets(sets, {}, delta=False)


def _entry_node(annotation):
    return annotation["nodes"][0][0]


def _set_kind(annotation):
    annotation["kind"] = "fds"


def _flip_mode(annotation):
    annotation["mode"] = (
        "independent" if annotation["mode"] == "relational" else "relational"
    )


def _set_unknown_node(annotation):
    def edit(sets):
        sets[99999] = sets[_entry_node(annotation)]

    _edit_sets(annotation, edit)


def _single_unknown_node(annotation):
    annotation["nodes"].append([99999, annotation["nodes"][0][1]])


def _set_value(value_of):
    """Add one value, computed from the annotation, to the entry set."""

    def apply(annotation):
        value = value_of(annotation)

        def edit(sets):
            entry = _entry_node(annotation)
            sets[entry] = sets[entry] | {value}

        _edit_sets(annotation, edit)

    return apply


def _single_id(value_of):
    """Repoint the entry node at an id computed from the annotation."""

    def apply(annotation):
        annotation["nodes"][0] = [
            annotation["nodes"][0][0],
            value_of(annotation),
        ]

    return apply


def _set_missing_entry(annotation):
    def edit(sets):
        del sets[_entry_node(annotation)]

    _edit_sets(annotation, edit)


def _single_missing_entry(annotation):
    del annotation["nodes"][0]


def _set_empty_entry(annotation):
    def edit(sets):
        sets[_entry_node(annotation)] = frozenset()

    _edit_sets(annotation, edit)


def _single_weak_entry(weaken):
    """Point the entry node at a new pool entry: its own, weakened."""

    def apply(annotation):
        node, index = annotation["nodes"][0]
        entry = copy.deepcopy(annotation["pool"][index])
        weaken(entry)
        annotation["pool"].append(entry)
        annotation["nodes"][0] = [node, len(annotation["pool"]) - 1]

    return apply


def _drop_nullary(structure):
    structure["nullary"] = []


def _forge_summary(state):
    state["summary"] = sorted(state["summary"] + [[["$forged"], 1]])


def _forge_mult(state):
    state["mult"] = sorted(state["mult"] + [["$forged", 1]])


def _set_drop_successor(annotation):
    def edit(sets):
        del sets[max(sets)]

    _edit_sets(annotation, edit)


def _single_drop_successor(annotation):
    nodes = annotation["nodes"]
    del nodes[max(range(len(nodes)), key=lambda i: nodes[i][0])]


def _valuation_limit(annotation):
    return 1 << annotation["num_vars"]


def _pool_size(annotation):
    return len(annotation.get("pool", []))


#: how the entry of a single-state annotation is weakened, per engine.
#: The generic domains start from their bottom state, which every entry
#: subsumes, so a forged fact there is caught at the entry's out-edges
WEAKEN_ENTRY = {
    "tvla-independent": _drop_nullary,
    "allocsite": _forge_mult,
    "allocsite-recency": _forge_mult,
    "shapegraph": _forge_summary,
}


def state_tampers(engine):
    """Hand-made tampering name -> in-place edit of the annotation."""
    if engine in ("relational", "tvla-relational"):
        bound = _valuation_limit if engine == "relational" else _pool_size
        return {
            "kind-mismatch": (
                _set_kind if engine == "relational" else _flip_mode
            ),
            "unknown-node": _set_unknown_node,
            "out-of-range-id": _set_value(bound),
            "negative-id": _set_value(lambda annotation: -1),
            "missing-entry": _set_missing_entry,
            "entry-not-subsuming": _set_empty_entry,
            "drop-successor": _set_drop_successor,
        }
    return {
        "kind-mismatch": (
            _flip_mode if engine == "tvla-independent" else _set_kind
        ),
        "unknown-node": _single_unknown_node,
        "out-of-range-id": _single_id(_pool_size),
        "negative-id": _single_id(lambda annotation: -1),
        "missing-entry": _single_missing_entry,
        "entry-not-subsuming": _single_weak_entry(WEAKEN_ENTRY[engine]),
        "drop-successor": _single_drop_successor,
    }


def _state_mutants(engine, seeds):
    yield "original", 0
    for seed in range(seeds):
        yield "strengthen", seed
    yield "verdict", 0
    yield "version", 0
    for tamper in state_tampers(engine):
        yield tamper, 0


def _state_verdict(result):
    verdict = _verdict(result)
    if result.ok:
        verdict.update(nodes=result.nodes, edges=result.edges)
    return verdict


def state_verdict_table():
    """Mutant id -> {"kind", "edge"} (and the node and edge counts of an
    accepted certificate) for every pinned state-family mutant."""
    session = CertifySession(
        get_spec("cmp"), options=CertifyOptions(emit_certificate=True)
    )
    checker = CertificateChecker()
    table = {}
    for name, engine, source, seeds in _state_cases():
        payload = session.certify(source, engine=engine).certificate.payload
        tampers = state_tampers(engine)
        for kind, seed in _state_mutants(engine, seeds):
            mutant_id = f"{name}/{engine}/{kind}/{seed}"
            if kind == "original":
                mutant = payload
            elif kind in tampers:
                mutant = copy.deepcopy(payload)
                tampers[kind](mutant["annotation"])
            else:
                rng = random.Random(zlib.crc32(mutant_id.encode()))
                mutant, _applied = mutate_certificate(payload, rng, kind)
            table[mutant_id] = _state_verdict(checker.check(mutant))
    return table


@pytest.fixture(scope="module")
def computed():
    return verdict_table()


@pytest.fixture(scope="module")
def computed_states():
    return state_verdict_table()


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


class TestStateFamilyVerdicts:
    def test_every_pinned_mutant_gets_its_recorded_verdict(
        self, computed_states
    ):
        expected = json.loads(STATE_TABLE.read_text())
        assert sorted(computed_states) == sorted(expected)
        wrong = {
            mutant_id: (computed_states[mutant_id], verdict)
            for mutant_id, verdict in expected.items()
            if computed_states[mutant_id] != verdict
        }
        assert not wrong, wrong

    def test_originals_accepted_and_mutants_rejected(self, computed_states):
        for mutant_id, verdict in computed_states.items():
            kind = mutant_id.split("/")[2]
            if kind == "original":
                assert verdict["kind"] == "accepted", mutant_id
            elif kind in ("strengthen", "verdict", "version"):
                assert verdict["kind"] != "accepted", mutant_id


def _write(path, table):
    path.write_text(
        "{\n"
        + ",\n".join(
            f"  {json.dumps(mutant_id)}: {json.dumps(verdict)}"
            for mutant_id, verdict in sorted(table.items())
        )
        + "\n}\n"
    )


if __name__ == "__main__":
    _write(TABLE, verdict_table())
    _write(STATE_TABLE, state_verdict_table())
