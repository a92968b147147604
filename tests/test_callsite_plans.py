"""Compiled call-site plans equal the interpretive call maps.

At every call site the interprocedural certifier reaches on the shallow
suite programs and on ``make_shared_library`` / ``make_deep_calls``
clients, the site's :class:`~repro.certifier.callplan.CallPlan` and the
bit-by-bit oracle (``tests/callsite_oracle.py``) map the same masks to
the same results: seeded random caller and exit masks, plus all-zeros
and all-ones.  One session-wide abstraction is shared by every program,
so plans compiled at one site are reused, by key, at later sites with
the same shape; the ``rebound`` client puts sites that differ only in
their binding or result variable side by side, so a key that dropped
either would hand one of them the other's plan.  A failure names the
program, the site and the seed of the masks.
"""

import random
import zlib

import pytest

from repro.bench.synthetic import make_deep_calls, make_shared_library
from repro.certifier.callplan import BitPlan, caller_bit, exit_bit
from repro.certifier.interproc import InterproceduralCertifier
from repro.derivation import derive
from repro.lang import parse_program
from repro.suite import shallow_programs
from tests.callsite_oracle import InterpretiveCallMaps

#: random mask pairs per call site, after all-zeros and all-ones
SAMPLES = 12


#: callees called from sites that share both instance universes and
#: differ only in the formal-to-actual binding (``pick(a, ib)`` and
#: ``pick(b, ia)``, ``touch(a, b)`` and ``touch(b, a)``) or only in the
#: result variable (``x`` and ``z``)
_REBOUND = """
class Main {
  static Set g;
  static Iterator pick(Set s, Iterator i) {
    Iterator r = s.iterator();
    if (?) { r = i; }
    return r;
  }
  static void touch(Set s, Set t) {
    s.add("x");
    g = t;
  }
  static void main() {
    Set a = new Set();
    Set b = new Set();
    g = a;
    Iterator ia = a.iterator();
    Iterator ib = b.iterator();
    Iterator x = pick(a, ib);
    Iterator y = pick(b, ia);
    Iterator z = pick(a, ib);
    touch(a, b);
    touch(b, a);
    ia.next();
    ib.next();
    x.next();
    y.next();
    z.next();
  }
}
"""


def _programs():
    yield "rebound", _REBOUND
    yield from ((bench.name, bench.source) for bench in shallow_programs())
    for size, client_seed in ((200, 1), (200, 2), (1000, 0)):
        yield (
            f"shared_library({size}, client_seed={client_seed})",
            make_shared_library(size, seed=0, client_seed=client_seed),
        )
    yield "deep_calls(150)", make_deep_calls(150, seed=3)


def _masks(rng, caller_vars, callee_vars):
    caller_all = (1 << caller_vars) - 1
    callee_all = (1 << callee_vars) - 1
    yield 0, 0
    yield caller_all, callee_all
    for _ in range(SAMPLES):
        yield rng.getrandbits(caller_vars), rng.getrandbits(callee_vars)


def test_plans_match_the_interpretive_maps(
    cmp_specification, cmp_abstraction_id
):
    sites = 0
    for name, source in _programs():
        program = parse_program(source, cmp_specification)
        certifier = InterproceduralCertifier(program, cmp_abstraction_id)
        certifier.certify()
        oracle = InterpretiveCallMaps(certifier)
        for qualified, caller in sorted(certifier.spaces.items()):
            for src, dst, stm in caller.call_edges:
                callee = certifier.space(stm.callee)
                plan = certifier.call_plan(caller, src, dst, stm)
                seed = zlib.crc32(f"{name}|{qualified}|{src}|{dst}".encode())
                rng = random.Random(seed)
                site = f"{name}: {qualified} {src}->{dst} `{stm}` seed={seed}"
                for caller_mask, exit_mask in _masks(
                    rng, caller.boolprog.num_vars, callee.boolprog.num_vars
                ):
                    expected_entry = oracle.map_entry(
                        caller, caller_mask, stm, callee
                    )
                    assert plan.entry(caller_mask) == expected_entry, (
                        f"entry map differs at {site}, "
                        f"caller mask {caller_mask:x}"
                    )
                    expected_return = oracle.map_return(
                        caller, caller_mask, stm, callee, exit_mask
                    )
                    assert plan.ret(caller_mask, exit_mask) == (
                        expected_return
                    ), (
                        f"return map differs at {site}, caller mask "
                        f"{caller_mask:x}, exit mask {exit_mask:x}"
                    )
                sites += 1
    assert sites > 400


def test_plans_are_reused_across_clients(cmp_specification):
    abstraction = derive(cmp_specification, identity_families=True)
    stats = []
    for client_seed in (1, 2):
        source = make_shared_library(200, seed=0, client_seed=client_seed)
        certifier = InterproceduralCertifier(
            parse_program(source, cmp_specification), abstraction
        )
        certifier.certify()
        stats.append(dict(certifier.plan_stats))
    assert stats[0]["call_plans_built"] > 0
    # the second client shares the library, and with it most call sites
    assert stats[1]["call_plans_reused"] > stats[1]["call_plans_built"]


@pytest.mark.parametrize("variables", [0, 1, 7, 64, 130])
def test_bit_plan_copies_at_every_distance(variables):
    rng = random.Random(variables)
    sources = [rng.randrange(max(variables, 1)) for _ in range(variables)]
    plan = BitPlan(
        [
            caller_bit(source) if position % 2 else exit_bit(source)
            for position, source in enumerate(sources)
        ]
    )
    for _ in range(8):
        caller = rng.getrandbits(max(variables, 1))
        exit_ = rng.getrandbits(max(variables, 1))
        expected = 0
        for position, source in enumerate(sources):
            mask = caller if position % 2 else exit_
            expected |= (mask >> source & 1) << position
        assert plan.apply(caller, exit_) == expected
