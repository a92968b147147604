"""E3 — the Fig. 7 / Fig. 8 comparison on the Fig. 3 client.

Section 4.4: after statement 5 (``i1.remove()``), the storage shape graph
merges the two unpointed version objects (Fig. 7(c)) and must
conservatively alarm at statement 7 (``i3.next()``), while the
specialized nullary abstraction (Fig. 8) remains both **more compact**
(a handful of boolean facts vs. a graph with per-object nodes and edges)
and **more precise** (no false alarm at statement 7).
"""

import pytest

from repro.certifier.transform import ClientTransformer
from repro.generic_analysis import ShapeGraphDomain, analyze_generic
from repro.lang import parse_program
from repro.lang.inline import inline_program
from repro.suite import by_name

FIG3 = by_name("fig3")
I3_NEXT_LINE = 11  # "statement 7" in the paper's numbering


@pytest.fixture(scope="module")
def program(spec):
    return parse_program(FIG3.source, spec)


def test_shape_graph_false_alarm_at_statement_7(
    benchmark, spec, certify, program
):
    report = benchmark(certify, program, "shapegraph")
    assert I3_NEXT_LINE in report.alarm_lines()
    assert I3_NEXT_LINE not in FIG3.expected_error_lines


def test_specialized_certifier_precise_at_statement_7(
    benchmark, spec, certify, program
):
    report = benchmark(certify, program, "fds")
    assert I3_NEXT_LINE not in report.alarm_lines()
    assert report.alarm_lines() == FIG3.expected_error_lines


def test_state_representations_compared(
    benchmark, spec, abstraction, program
):
    """Fig. 8's point: the specialized state is compact.

    The boolean program tracks 16 nullary facts for Fig. 3; the shape
    graph at the same point carries nodes, variable sets, field edges and
    summary bits — strictly more structure for strictly less precision.
    """
    def measure():
        boolprog = ClientTransformer(program, abstraction).transform_method(
            "Main.main"
        )
        inlined = inline_program(program)
        shape = analyze_generic(inlined, ShapeGraphDomain(), "shapegraph")
        # take the largest shape state as its size proxy
        shape_size = 0
        for state in shape.node_states.values():
            size = len(state.summary) + sum(
                len(t) for t in state.edges.values()
            )
            shape_size = max(shape_size, size)
        return boolprog.num_vars, shape_size

    num_facts, shape_size = benchmark.pedantic(measure, rounds=1)
    assert num_facts == 16  # Fig. 8: the nullary instances for 3 I × 1 V
    assert shape_size > 0
    print(
        f"\nspecialized state: {num_facts} boolean facts; "
        f"largest shape graph: {shape_size} nodes+edges"
    )
