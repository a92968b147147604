"""Jlite parse throughput at growing client sizes, one fresh process each.

Each sample runs in a new interpreter: it builds
``make_shared_library(n)`` (the ``interproc-library`` family), parses it
once with :func:`repro.lang.types.parse_program` while the cyclic
collector is paused, and reports the wall time.  Given several ``src``
trees, the samples alternate between them, so that a host whose speed
drifts slows every tree alike.  Printed per tree and size: the median,
min and max milliseconds over ``--runs`` samples and the median
throughput in thousands of statements per second.

    python examples/parse_scaling.py --sizes 1000,16000,64000 --runs 5
    python examples/parse_scaling.py ../before/src src --runs 5

With no tree given it measures this checkout's ``src``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, sys, time
from repro.bench.synthetic import count_statements, make_shared_library
from repro.easl.library import cmp_spec
from repro.lang.types import parse_program
from repro.runtime.gcpause import collector_paused

source = make_shared_library(int(sys.argv[1]))
spec = cmp_spec()
with collector_paused():
    started = time.perf_counter()
    parse_program(source, spec)
    seconds = time.perf_counter() - started
print(json.dumps({"statements": count_statements(source), "seconds": seconds}))
"""

HERE = os.path.dirname(os.path.abspath(__file__))


def sample(src: str, size: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(size)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    return json.loads(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "trees", nargs="*", metavar="SRC",
        help="src directories to measure (default: this checkout's)",
    )
    parser.add_argument("--sizes", default="1000,16000,64000")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    trees = args.trees or [os.path.join(os.path.dirname(HERE), "src")]
    for size in (int(text) for text in args.sizes.split(",")):
        samples = {tree: [] for tree in trees}
        for run in range(args.runs):
            # alternate which tree goes first, too
            order = trees if run % 2 == 0 else trees[::-1]
            for tree in order:
                samples[tree].append(sample(tree, size))
        for tree in trees:
            seconds = [s["seconds"] for s in samples[tree]]
            statements = samples[tree][0]["statements"]
            median = statistics.median(seconds)
            print(
                f"{tree}  n={size:6d} stmts={statements:6d} "
                f"median={median * 1000:9.1f} ms "
                f"[{min(seconds) * 1000:.1f}, {max(seconds) * 1000:.1f}] "
                f"{statements / median / 1000.0:6.1f} kstmt/s"
            )


if __name__ == "__main__":
    main()
