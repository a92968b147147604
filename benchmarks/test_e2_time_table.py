"""E2 — running times per engine (the Section 7 timing columns).

Wall-clock comparison of the certifier configurations on representative
suite programs.  Absolute numbers are machine-specific; the shape that
must reproduce is relative: the staged polynomial certifiers are fast,
and the specialized abstraction keeps even the TVLA engines cheap, while
the generic composite-program analyses do strictly more work per edge.
"""

import pytest

from repro.lang import parse_program
from repro.suite import by_name

SHALLOW_CASES = ["fig3", "worklist_static", "two_sets_swap"]
HEAP_CASES = ["holder_invalidate", "holders_loop"]


@pytest.mark.parametrize("name", SHALLOW_CASES)
@pytest.mark.parametrize(
    "engine", ["fds", "relational", "interproc", "tvla-relational",
               "allocsite", "shapegraph"]
)
def test_time_shallow(benchmark, spec, certify, name, engine):
    program = parse_program(by_name(name).source, spec)
    report = benchmark(certify, program, engine)
    assert report is not None


@pytest.mark.parametrize("name", HEAP_CASES)
@pytest.mark.parametrize(
    "engine", ["tvla-relational", "tvla-independent", "shapegraph"]
)
def test_time_heap(benchmark, spec, certify, name, engine):
    program = parse_program(by_name(name).source, spec)
    report = benchmark(certify, program, engine)
    assert report is not None


def test_time_derivation_stage(benchmark):
    """Certifier-generation time (paid once per component, Section 1.3)."""
    from repro.derivation import derive
    from repro.easl.library import cmp_spec

    abstraction = benchmark(derive, cmp_spec())
    assert len(abstraction.families) == 4
