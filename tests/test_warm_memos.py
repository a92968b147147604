"""Certificates and verdicts do not depend on what ran before.

The client transformation is memoized on the derived abstraction, so a
session that has certified other clients transforms the next one from a
warm memo.  These tests pin that the memo changes only speed:

* one session certifying a set of clients in two different orders, and
  a fresh session per client, emit byte-identical certificates on the
  ``fds``, ``relational`` and ``interproc`` engines;
* emptying the memo when it reaches its cell bound changes no byte;
* one held checker running interleaved valid and tampered certificates
  returns the verdicts fresh checkers return, and its build cache stays
  within its bound;
* interprocedural call-site plans are charged against the same cell
  bound and emptied with the memo, emptying them in the middle of a
  certification changes no byte, and a held checker applying warm plans
  returns the verdicts fresh checkers return.
"""

import random

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import (
    make_client,
    make_deep_calls,
    make_shared_library,
)
from repro.cert import CertificateChecker, mutate_certificate
from repro.certifier import transform
from repro.certifier.interproc import InterproceduralCertifier
from repro.derivation import derive
from repro.lang import parse_program
from repro.runtime.cache import LRUCache
from repro.runtime.trace import CollectingTracer, use_tracer
from repro.suite import by_name

ENGINES = ("fds", "relational", "interproc")

#: two methods declare the same component variables, two of one sort in
#: opposite orders, so their instance universes share a sorted key but
#: not an order
_REORDERED = """
class Main {
    static Set shared;
    static void fill(Set s) {
        Set a = new Set();
        Set b = new Set();
        Iterator i = a.iterator();
        s.add(b);
        i.next();
        shared = b;
    }
    static void drain(Set s) {
        Set b = new Set();
        Set a = s;
        Iterator i = a.iterator();
        b.add(s);
        i.next();
        shared = a;
    }
    static void main() {
        Set v = new Set();
        fill(v);
        drain(v);
        Iterator k = v.iterator();
        k.next();
    }
}
"""

_SWAPPED = (
    _REORDERED.replace("fill", "tmp").replace("drain", "fill").replace("tmp", "drain")
)


def _clients(engine):
    suite = [
        by_name(name).source
        for name in (
            "fig3",
            "iterator_copy_web",
            "callee_mutates_param",
            "returned_iterator",
            "recursive_growth",
            "worklist_static",
        )
    ]
    if engine != "interproc":
        # the inlining engines: library-sized clients inline too deeply
        return suite + [_REORDERED, _SWAPPED, make_client(seed=5)]
    synthetic = [
        make_shared_library(200, seed=0, client_seed=1),
        make_shared_library(200, seed=0, client_seed=2),
        make_deep_calls(150, seed=3),
    ]
    return suite + [_REORDERED, _SWAPPED] + synthetic


def _session(spec):
    return CertifySession(
        spec,
        options=CertifyOptions(emit_certificate=True),
        cache=LRUCache(4, name="test-abstractions"),
    )


def _texts(session, clients, engine):
    return {
        source: session.certify(source, engine).certificate.text()
        for source in clients
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_certificates_independent_of_order_and_memo(cmp_specification, engine):
    clients = _clients(engine)
    held = _session(cmp_specification)
    forward = _texts(held, clients, engine)
    backward = _texts(held, list(reversed(clients)), engine)
    for source in clients:
        fresh = _texts(_session(cmp_specification), [source], engine)
        assert forward[source] == fresh[source]
        assert backward[source] == fresh[source]


def test_memo_empties_at_its_cell_bound(monkeypatch):
    monkeypatch.setattr(transform, "_MEMO_CELLS", 50)
    memo = transform._TransformMemo()
    memo.universes[("a",)] = None
    memo.charge(30)
    assert (memo.cells, len(memo.universes)) == (30, 1)
    memo.charge(30)
    assert (memo.cells, memo.universes) == (30, {})


def test_memo_bound_changes_no_byte(cmp_specification, monkeypatch):
    clients = _clients("interproc")
    unbounded = _texts(_session(cmp_specification), clients, "interproc")
    # small enough that the memo empties many times over the run
    monkeypatch.setattr(transform, "_MEMO_CELLS", 64)
    assert _texts(_session(cmp_specification), clients, "interproc") == unbounded


def test_held_checker_matches_fresh_checkers(cmp_specification):
    session = _session(cmp_specification)
    rng = random.Random(13)
    payloads = []
    for engine in ENGINES:
        for source in _clients(engine)[-4:]:
            payload = session.certify(source, engine).certificate.payload
            payloads.append(payload)
            payloads.append(mutate_certificate(payload, rng)[0])
    rng.shuffle(payloads)

    held = CertificateChecker()
    # a small bound, so the run evicts and re-builds
    held._builds = LRUCache(3, name="checker-builds")
    for payload in payloads:
        verdict = held.check(payload)
        fresh = CertificateChecker().check(payload)
        assert (verdict.ok, verdict.kind, verdict.edge) == (
            fresh.ok,
            fresh.kind,
            fresh.edge,
        )
        assert len(held._builds) <= 3
    assert held._builds.stats().evictions > 0
    assert not hasattr(held, "_certifiers")


def test_checker_build_cache_is_bounded():
    from repro.api import DEFAULT_CACHE_SIZE

    checker = CertificateChecker()
    assert isinstance(checker._builds, LRUCache)
    assert checker._builds.maxsize == DEFAULT_CACHE_SIZE


def test_call_plans_count_towards_the_cell_bound(cmp_specification, monkeypatch):
    abstraction = derive(cmp_specification, identity_families=True)
    program = parse_program(
        make_shared_library(200, seed=0, client_seed=1), cmp_specification
    )
    InterproceduralCertifier(program, abstraction).certify()
    memo = abstraction.transform_memo
    instances = sum(len(u.instances) for u in memo.universes.values())
    plan_cells = sum(plan.cells for plan in memo.plans.values())
    assert memo.plans and plan_cells > 0
    assert memo.cells >= instances + plan_cells
    # the next charge past the bound empties plans with the universes
    monkeypatch.setattr(transform, "_MEMO_CELLS", memo.cells)
    memo.charge(1)
    assert (memo.cells, memo.universes, memo.plans) == (1, {}, {})


def test_emptying_plans_mid_run_changes_no_byte(cmp_specification, monkeypatch):
    clients = _clients("interproc")
    unbounded = _texts(_session(cmp_specification), clients, "interproc")
    emptied = []
    charge = transform._TransformMemo.charge

    def counting_charge(memo, cells):
        if memo.plans and memo.cells + cells > transform._MEMO_CELLS:
            emptied.append(len(memo.plans))
        charge(memo, cells)

    # room for a client's universes and a share of its plans, so the
    # memo empties while a certification is compiling plans
    monkeypatch.setattr(transform, "_MEMO_CELLS", 400)
    monkeypatch.setattr(transform._TransformMemo, "charge", counting_charge)
    assert _texts(_session(cmp_specification), clients, "interproc") == unbounded
    assert emptied


def test_held_checker_with_warm_plans_matches_fresh_checkers(cmp_specification):
    session = _session(cmp_specification)
    rng = random.Random(29)
    payloads = []
    for source in _clients("interproc")[-5:]:
        payload = session.certify(source, "interproc").certificate.payload
        payloads.append(payload)
        for kind in ("strengthen", "verdict"):
            payloads.append(mutate_certificate(payload, rng, kind)[0])
    held = CertificateChecker()
    tracer = CollectingTracer()
    rejected = 0
    for payload in payloads:
        with use_tracer(tracer):
            verdict = held.check(payload)
        fresh = CertificateChecker().check(payload)
        assert (verdict.ok, verdict.kind, verdict.edge) == (
            fresh.ok,
            fresh.kind,
            fresh.edge,
        )
        rejected += not verdict.ok
    assert rejected >= len(payloads) * 2 // 3
    reused = sum(
        event.meta.get("call_plans_reused", 0)
        for event in tracer.events
        if event.phase == "check"
    )
    assert reused > 0
