"""Long-lived objects keep a flat heap.

A held :class:`~repro.cert.CertificateChecker` (or a ``repro serve``
daemon) sees an open-ended stream of clients, so every cache it reaches
needs an owner or a bound.  These tests pin four: a checker whose build
cache keeps evicting TVLA clients keeps one live-object count round
after round, the shared evaluator cache stays at its bound under a
stream of new clients, the compiled heap-domain conditions of a spec
runner die with it, and a checker derives one abstraction per spec and
flavour whatever options its certificates name.
"""

import gc
import weakref

from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import make_client
from repro.cert import CertificateChecker
from repro.easl import wp
from repro.easl.library import cmp_spec
from repro.generic_analysis import AllocSiteDomain
from repro.generic_analysis.framework import analyze_generic
from repro.lang import parse_program
from repro.lang.inline import inline_program
from repro.logic import packed
from repro.runtime.cache import LRUCache
from repro.suite import by_name


def _client(tag: str) -> str:
    return make_client(num_ops=12, tag=tag)


def _live_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_held_checker_keeps_a_flat_heap(monkeypatch):
    """More distinct TVLA clients than the build cache holds, checked
    round after round: every re-check rebuilds a specialized TVP, and
    nothing of the evicted builds may stay reachable."""
    session = CertifySession(
        cmp_spec(), options=CertifyOptions(emit_certificate=True)
    )
    certificates = [
        session.certify(_client(f"h{i}"), engine="tvla-relational").certificate
        for i in range(4)
    ]
    del session
    checker = CertificateChecker()
    monkeypatch.setattr(checker, "_builds", LRUCache(2, name="builds"))
    live = []
    for _round in range(4):
        for certificate in certificates:
            assert checker.check(certificate).ok
        live.append(_live_objects())
    assert max(live[1:]) - live[1] <= 16, live


def test_evaluator_cache_stays_at_its_bound(monkeypatch):
    sources = [_client(f"e{i}") for i in range(5)]
    unbounded = CertifySession(cmp_spec())
    expected = [
        unbounded.certify(source, engine="tvla-relational").alarms
        for source in sources
    ]
    cache = LRUCache(48, name="formula-evaluators")
    monkeypatch.setattr(packed, "_EVALUATORS", cache)
    session = CertifySession(cmp_spec())
    for source, alarms in zip(sources, expected):
        report = session.certify(source, engine="tvla-relational")
        assert report.alarms == alarms
        assert len(cache) <= cache.maxsize
    assert len(cache) == cache.maxsize
    assert cache.stats().evictions > 0


def test_heap_condition_dies_with_its_runner(monkeypatch):
    """Each analysis flattens the spec's operations anew; the compiled
    conditions belong to that run's spec runner and die with it."""
    conditions = []
    flatten = wp._Flattener.flatten_operation

    def recording(self, op):
        stmts = flatten(self, op)
        pending = list(stmts)
        while pending:
            stmt = pending.pop()
            if isinstance(stmt, (wp.NAssume, wp.NBranch)):
                conditions.append(weakref.ref(stmt.cond))
            if isinstance(stmt, wp.NBranch):
                pending.extend(stmt.then_body + stmt.else_body)
        return stmts

    monkeypatch.setattr(wp._Flattener, "flatten_operation", recording)
    spec = cmp_spec()
    program = parse_program(by_name("fig3").source, spec)
    result = analyze_generic(
        inline_program(program, None), AllocSiteDomain(), "allocsite"
    )
    assert result.report.alarms
    assert conditions
    del result
    gc.collect()
    assert [ref() for ref in conditions if ref() is not None] == []


def test_checker_derives_once_whatever_the_options():
    checker = CertificateChecker()
    for prune in (True, False):
        session = CertifySession(
            cmp_spec(),
            options=CertifyOptions(emit_certificate=True, prune_requires=prune),
        )
        certificate = session.certify(
            by_name("fig3").source, engine="fds"
        ).certificate
        assert checker.check(certificate).ok
    assert len(checker._abstractions) == 1
