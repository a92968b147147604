"""The worklist schedule of every engine, pinned.

Golden certificate hashes cover only completed runs, and a certificate
records no schedule-dependent counter.  ``tests/data/fixpoint_schedule.json``
therefore records, for every (program, engine) pair the suite certifies
(the ``test_golden_certs`` matrix), the schedule counters of a completed
run — ``iterations`` (pops of the worklist) and, for interproc, the edge
visits and summary updates of the tabulation — and, under two small
``max_steps`` budgets, what the breached run salvaged: the breach kind,
the alarm sites and the number of nodes analyzed.  Pop order, where the
governor is ticked and how iterations are counted all show here.  A
deliberate schedule change updates the file in the same commit:
``PYTHONPATH=src python -m tests.test_fixpoint_schedule`` rewrites it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.easl.library import cmp_spec
from repro.runtime.guard import ResourceExhausted
from tests.test_golden_certs import suite_matrix

TABLE = Path(__file__).resolve().parent / "data" / "fixpoint_schedule.json"

#: the step budgets a breached run is recorded under
BUDGETS = (3, 17)

#: the report stats that depend on the schedule
SCHEDULE_STATS = ("iterations", "edge_visits", "summary_updates")


def _counters(stats, keys=SCHEDULE_STATS):
    return {key: stats[key] for key in keys if key in stats}


def _run(session, source, engine):
    try:
        report = session.certify(source, engine=engine)
    except ResourceExhausted as error:
        partial = error.partial
        return {
            "breach": error.breach,
            "alarms": sorted(alarm.site_id for alarm in partial.alarms),
            "nodes_analyzed": partial.nodes_analyzed,
            # interproc's edge counters are recorded only complete here;
            # that a salvaged run's counters do not depend on the hash
            # seed is pinned by test_interproc_partial_ignores_hash_seed
            "stats": _counters(partial.stats, ("iterations",)),
        }
    return {"completed": _counters(report.stats)}


def schedule_table():
    """``program/engine`` -> completed counters and budgeted salvages."""
    spec = cmp_spec()
    sessions = {None: CertifySession(spec)}
    for steps in BUDGETS:
        sessions[steps] = CertifySession(
            spec, options=CertifyOptions(max_steps=steps)
        )
    table = {}
    for bench, engine in suite_matrix():
        table[f"{bench.name}/{engine}"] = {
            str(steps): _run(session, bench.source, engine)
            for steps, session in sessions.items()
        }
    return table


@pytest.fixture(scope="module")
def computed():
    return schedule_table()


def test_every_schedule_matches_its_recording(computed):
    expected = json.loads(TABLE.read_text())
    assert sorted(computed) == sorted(expected)
    wrong = {
        key: (computed[key], runs)
        for key, runs in expected.items()
        if computed[key] != runs
    }
    assert not wrong, wrong


def test_budgets_breach_and_unbudgeted_runs_complete(computed):
    for key, runs in computed.items():
        assert "completed" in runs["None"], key
        assert "breach" in runs[str(BUDGETS[0])], key


#: a budgeted interproc run whose salvage crosses re-queued callers
_PARTIAL = """
import json
from repro.api import CertifyOptions, CertifySession
from repro.easl.library import cmp_spec
from repro.runtime.guard import ResourceExhausted
from repro.suite import by_name

session = CertifySession(cmp_spec(), options=CertifyOptions(max_steps=17))
try:
    session.certify(by_name("recursive_growth").source, engine="interproc")
except ResourceExhausted as error:
    print(json.dumps(error.partial.stats, sort_keys=True))
"""


def test_interproc_partial_ignores_hash_seed():
    """Callers are re-queued in insertion order, so where a step budget
    lands in the tabulation is the same in every process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _PARTIAL],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        runs.append(_counters(json.loads(out)))
    assert "edge_visits" in runs[0] and "summary_updates" in runs[0]
    assert runs[0] == runs[1]


if __name__ == "__main__":
    TABLE.write_text(
        "{\n"
        + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(runs, sort_keys=True)}"
            for key, runs in sorted(schedule_table().items())
        )
        + "\n}\n"
    )
