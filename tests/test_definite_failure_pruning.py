"""A definitely-failing operation aborts every execution, so its
post-state must not flow onward (``prune_requires=True`` semantics).

Regression: the FDS and interprocedural solvers used to keep applying a
definitely-failing operation's update formulae — e.g. a ``remove()`` on a
stale iterator still staled every *other* live iterator — producing false
alarms downstream that the relational solver (which drops failing
valuations outright) never reported.  The three staged engines must agree
exactly, and all of them must match the exhaustive interpreter.
"""

import pytest

from repro.api import CertifySession
from repro.lang import parse_program
from repro.runtime import ExplorationBudget, explore

# line 7's remove() definitely throws (i went stale at line 5), so no
# execution reaches line 8 with j invalidated: alarming line 8 is false
CLIENT = """
class Main {
  static void main() {
    Set s = new Set();
    Iterator i = s.iterator();
    s.add("x");
    Iterator j = s.iterator();
    i.remove();
    j.next();
  }
}
"""

STAGED = ("fds", "relational", "interproc")


@pytest.mark.parametrize("engine", STAGED)
def test_no_alarm_after_definite_failure(cmp_specification, engine):
    report = CertifySession(cmp_specification, engine).certify(CLIENT)
    assert sorted(report.alarm_lines()) == [8]


def test_matches_exhaustive_interpreter(cmp_specification):
    program = parse_program(CLIENT, cmp_specification)
    truth = explore(program, ExplorationBudget())
    assert not truth.truncated
    failing_lines = sorted(
        site.line for site in truth.sites.values() if site.fail_count
    )
    assert failing_lines == [8]
    for engine in STAGED:
        report = CertifySession(cmp_specification, engine).certify(CLIENT)
        assert sorted(report.alarm_lines()) == failing_lines


def test_post_failure_states_still_explored_without_pruning(
    cmp_specification,
):
    """The A2 ablation (``prune_requires=False``) keeps the old behaviour:
    failing executions continue, so the downstream alarm reappears."""
    from repro import CertifyOptions, CertifySession

    session = CertifySession(
        cmp_specification,
        engine="fds",
        options=CertifyOptions(prune_requires=False),
    )
    report = session.certify(CLIENT)
    assert 9 in report.alarm_lines() or len(report.alarm_lines()) > 1
