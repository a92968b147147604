"""Reproduce the EXPERIMENTS.md E16 scale curve.

Run with ``PYTHONPATH=src python examples/scale_curve.py`` — renders
the committed ``BENCH_pr10.json`` as an ASCII chart (certify seconds
vs. statement count per family) plus the warm/cold summary-DB probe.
Pass ``--measure`` to re-measure a small curve on this machine instead
of reading the committed file (a few minutes; the committed numbers
come from the 1-CPU reference container, so absolute times differ
across hosts while the *shape* should not).

    PYTHONPATH=src python examples/scale_curve.py
    PYTHONPATH=src python examples/scale_curve.py --measure
    PYTHONPATH=src python examples/scale_curve.py path/to/other.json
"""

from __future__ import annotations

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_JSON = os.path.join(REPO, "BENCH_pr10.json")
CHART_WIDTH = 46


def measure() -> dict:
    from repro.bench.scale import run_scale

    report = run_scale(
        families=("deep-calls", "wide-scc", "shared-library"),
        sizes=(500, 1000, 2000),
        engines=("interproc",),
        seed=1,
        warm_cold=True,
        warm_cold_target=2000,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    return report.to_json()


def chart(doc: dict) -> None:
    rows = [r for r in doc["rows"] if r["status"] == "ok"]
    if not rows:
        print("no ok rows to chart")
        return
    top = max(r["certify_seconds"] for r in rows)
    by_family: dict = {}
    for r in rows:
        by_family.setdefault(r["family"], []).append(r)
    for family in sorted(by_family):
        print(f"\n{family} (certify seconds vs. statements)")
        for r in sorted(by_family[family], key=lambda r: r["statements"]):
            bar = "#" * max(1, round(CHART_WIDTH * r["certify_seconds"] / top))
            print(
                f"  {r['statements']:>7} | {bar:<{CHART_WIDTH}}"
                f" {r['certify_seconds']:7.2f}s"
                f"  (check {r['check_seconds']:.2f}s,"
                f" rss {r['peak_rss_kb'] / 1024:.0f}M)"
            )
    skipped = [r for r in doc["rows"] if r["status"] != "ok"]
    if skipped:
        kinds = sorted({(r["family"], r["status"]) for r in skipped})
        print("\nskipped cells:", ", ".join(f"{f}={s}" for f, s in kinds))


def main() -> None:
    argv = sys.argv[1:]
    if argv and argv[0] == "--measure":
        doc = measure()
    else:
        path = argv[0] if argv else DEFAULT_JSON
        if not os.path.exists(path):
            print(
                f"{path} not found — run `repro bench --scale --json {path}`"
                " or pass --measure",
                file=sys.stderr,
            )
            raise SystemExit(2)
        with open(path) as handle:
            doc = json.load(handle)

    meta = doc.get("meta", {})
    print(
        f"scale curve: {len(doc['rows'])} cells,"
        f" host_cpus={meta.get('host_cpus', '?')}"
    )
    chart(doc)

    warm = doc.get("warm_cold")
    if warm:
        print(
            f"\nwarm/cold summary DB ({warm['family']},"
            f" {warm['statements']} stmts):"
            f" {warm['cold_seconds']:.2f}s cold ->"
            f" {warm['warm_seconds']:.2f}s warm"
            f" = {warm['speedup']:.2f}x,"
            f" byte-identical={warm['certificates_identical']}"
        )
    blowups = doc.get("superlinear") or []
    print(f"superlinear cells (factor {doc.get('superlinear_factor')}):"
          f" {len(blowups)}")
    for cell in blowups:
        print("  BLOWUP:", cell)


if __name__ == "__main__":
    main()
