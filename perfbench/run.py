"""The repository benchmark: one command, four workloads, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interproc-library --seed 1 \\
        --seconds 14 --trace 0

``--seconds`` fixes the amount of work: each workload runs a number of
operations proportional to it, sized so that the measured phase takes
about that long on a 2-CPU x86 host, so the same arguments always give
the same work.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the same workload with spans around every public call and prints
the per-layer metrics instead.  End-to-end timings are scaled to a
reference host: each op's seconds are multiplied by the factor of the
host-speed samples taken just before and after it (``common.HostSpeed``),
because the shared hosts this runs on change speed by a third or more
within seconds to minutes; per-layer timings are as measured.  The last
line of standard output is the result object; the line before it
carries host metadata, the run's median host-speed sample and the
end-to-end timings as measured.  The program is imported from ``src/``
of the checkout, never from anywhere else, and the benchmark exits
non-zero without a result if that tree is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("interproc-library", "tvla-heap", "serve-mixed", "library-batch")

#: extra set-up runs in fresh processes; setup_s is the median of these
#: and the run's own set-up
SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="run only the workload's set-up and print its seconds",
    )
    parser.add_argument(
        "--work-out",
        metavar="PATH",
        help="also write the run's work counters (certificate hashes, "
        "contexts, iterations, paths, ...) as JSON to PATH",
    )
    return parser.parse_args(argv)


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    declared in the checkout's BENCHMARK.json.  Every end-to-end metric
    is reported on every workload; a layer a workload does not run
    reports 0 in the traced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in declared[kind]}


def workload_module(name: str):
    if name == "serve-mixed":
        import served

        return served
    if name == "library-batch":
        import batched

        return batched
    import inproc

    return inproc


def probe_setups(args) -> list:
    """Set-up seconds of fresh processes running only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = SRC
    from common import pin_environment, work_root

    recorded_env = pin_environment()
    # temporary files of this process and its children stay in the checkout
    os.environ["TMPDIR"] = work_root()
    try:
        return measure(args, recorded_env)
    finally:
        if not args.setup_probe:
            try:
                os.rmdir(work_root())
            except OSError:
                pass  # something in it is still in use


def measure(args, recorded_env) -> int:
    from common import HostSpeed, SetupClock, host_meta, median, metric

    clock = SetupClock(STARTED)
    import repro  # noqa: F401  (timed: importing the program is set-up)

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    module = workload_module(args.workload)
    if args.setup_probe:
        module.setup_only(args.workload, args.seed, args.seconds, clock)
        print(f"{clock.seconds:.9f}")
        return 0

    traced = bool(args.trace)
    speed = HostSpeed()
    try:
        result = module.run(args.workload, args.seed, args.seconds, traced, clock, speed)
        e2e = dict(result["e2e"])
        if "setup_s" not in e2e:
            samples = [clock.seconds] + ([] if traced else probe_setups(args))
            e2e["setup_s"] = median(samples)
        speed.sample()
        factor = speed.factor()
        result["layers"]["host.ref_ms"] = 1000.0 * speed.ref_seconds()
    finally:
        speed.close()
    if args.work_out:
        with open(args.work_out, "w", encoding="utf-8") as handle:
            json.dump(result["work"], handle, indent=1, sort_keys=True)

    setup_measured = e2e["setup_s"]
    failed = min(len(result["failures"]), int(result["attempted"]))
    for reason in sorted(set(result["failures"])):
        print(f"failure: {reason}", file=sys.stderr)
    if traced:
        layers = {**e2e, **result["layers"]}
        metrics = {
            name: metric(layers.get(name, 0.0), unit)
            for name, unit in metric_units("per_layer").items()
        }
    else:
        # the workloads scale each op by the host-speed samples around
        # it; set-up is scaled by the run's median sample
        e2e["setup_s"] = setup_measured * factor
        metrics = {
            name: metric(e2e[name], unit)
            for name, unit in metric_units("end_to_end").items()
        }
    meta = dict(host_meta(recorded_env), workload=args.workload)
    meta["host_speed"] = {"ref_ms": result["layers"]["host.ref_ms"], "factor": factor}
    meta["as_measured"] = {"setup_s": setup_measured}
    for name in ("check_per_s", "req_per_s", "hit_ms", "near_ms"):
        meta["as_measured"][name] = result["layers"][name]
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(result["attempted"]),
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
