"""Command-line interface: ``repro`` / ``repro-certify``.

Single-client certification (the legacy surface)::

    repro-certify client.jl                      # CMP, auto engine
    repro-certify client.jl --engine fds
    repro-certify client.jl --spec grp --engine interproc
    repro-certify --show-abstraction --spec cmp  # print Figs. 4+5
    repro-certify client.jl --ground-truth       # compare vs interpreter

Batch certification on a process pool (see :mod:`repro.runtime.batch`)::

    repro batch manifest.json --jobs 4 --timeout 30 --trace out.jsonl
    repro batch manifest.json --jobs 4 --fallback fds --json summary.json
    repro batch manifest.json --checkpoint-dir ckpt   # journal progress
    repro batch manifest.json --checkpoint-dir ckpt --resume

Suite benchmarks (see :mod:`repro.bench.harness`)::

    repro bench --json table.json                # precision table
    repro bench --incremental --check            # warm-start vs scratch
    repro bench --scale --json BENCH_scale.json  # size sweep

Differential fuzzing with the soundness gate (see :mod:`repro.fuzz`)::

    repro fuzz --seed-range 0:200                # all engine families
    repro fuzz --seed-range 0:25 --engines fds,tvla-relational
    repro fuzz --seed-range 0:5000 --time-budget 1200 --json out.json
    repro fuzz --seed-range 0:200 --shrink --corpus tests/corpus

Proof-carrying certificates (see :mod:`repro.cert`)::

    repro certify client.jl --emit-cert client.cert.json
    repro certify --all-suite --emit-cert-dir certs/   # one per program x engine
    repro check certs/*.cert.json --json report.json   # no fixpoint re-run

The certification service (see :mod:`repro.serve`)::

    repro serve --port 8091 --specs cmp,grp --workers 4 --store certs.cas
    repro serve --tenants tenants.json --max-steps 200000 --prewarm
    repro bench serve --check --json BENCH_serve.json  # load generator

Fault-injection campaign (see :mod:`repro.testing.chaos`)::

    repro chaos --schedules 100 --seed 0 --json chaos.json
    repro chaos --schedules 20 --layers store --quiet
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.api import (
    ENGINES,
    CertifyOptions,
    CertifySession,
)
from repro.easl.library import available_specs, get_spec
from repro.lang.types import parse_program
from repro.runtime import explore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-certify",
        description=(
            "Statically certify a Jlite client against a component "
            "conformance specification (PLDI 2002 staged certification)."
        ),
    )
    parser.add_argument(
        "client", nargs="?", help="path to the Jlite client source"
    )
    parser.add_argument(
        "--spec",
        default="cmp",
        choices=available_specs(),
        help="which shipped specification to certify against",
    )
    parser.add_argument(
        "--engine", default="auto", choices=ENGINES, help="analysis engine"
    )
    parser.add_argument(
        "--show-abstraction",
        action="store_true",
        help="print the derived instrumentation predicates and method "
        "abstractions (the paper's Figs. 4 and 5) and exit",
    )
    parser.add_argument(
        "--ground-truth",
        action="store_true",
        help="also run the exhaustive interpreter and report false alarms",
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="do not assume a passing requires afterwards (A2 ablation)",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description=(
            "Run a manifest of (client, spec, engine) certification jobs "
            "on a process pool with per-job timeouts, engine fallback and "
            "per-phase JSONL tracing."
        ),
    )
    parser.add_argument(
        "manifest",
        nargs="?",
        default=None,
        help="path to the JSON job manifest (not needed with "
        "--shard-index or --merge-shards)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = run in-process, no pool)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock budget for jobs without one",
    )
    parser.add_argument(
        "--fallback",
        default=None,
        choices=ENGINES,
        help="default fallback engine for jobs without one",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per job after transient worker death",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write per-phase trace events as JSONL",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the aggregated batch summary as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--emit-certs",
        default=None,
        metavar="DIR",
        help="emit a proof-carrying certificate per job into DIR "
        "(<job>.cert.json; path recorded in the job's JSON record)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal every finished job (fsynced JSONL) under DIR so a "
        "killed run can be resumed",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="checkpoint journal name (default: a hash of the "
        "manifest's job identities, so the same manifest resumes "
        "its own journal)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore journaled results instead of re-certifying; "
        "emitted certificates are re-verified by SHA-256 first "
        "(requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary table"
    )
    group = parser.add_argument_group(
        "shards",
        "lay the run's certificates and checkpoint journals out as "
        "shards under --shard-dir (every job still runs on the one "
        "pool), or hand shards to other hosts via that directory",
    )
    group.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="lay the results out as N shards under --shard-dir (job i "
        "goes to shard i mod N; default N = --jobs)",
    )
    group.add_argument(
        "--shard-dir",
        default=None,
        metavar="DIR",
        help="shared directory holding the shard plan, per-shard "
        "manifests, certificate dirs and checkpoint journals",
    )
    group.add_argument(
        "--write-shards",
        action="store_true",
        help="only write the shard plan into --shard-dir and exit "
        "(for multi-host handoff via --shard-index)",
    )
    group.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="K",
        help="run shard K of the plan in --shard-dir on this host",
    )
    group.add_argument(
        "--merge-shards",
        action="store_true",
        help="merge completed per-shard certificates from --shard-dir "
        "(each re-verified by SHA-256 against its journal) and exit",
    )
    _add_governor_arguments(parser)
    return parser


def _add_governor_arguments(
    parser: argparse.ArgumentParser, steps_flag: str = "--max-steps"
) -> None:
    """Resource-governor knobs shared by batch / bench / fuzz."""
    group = parser.add_argument_group(
        "resource governor",
        "in-engine budgets; breached runs surrender a sound partial "
        "result instead of dying (see repro.runtime.guard)",
    )
    group.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cooperative wall-clock deadline per certification",
    )
    group.add_argument(
        steps_flag,
        dest="governor_steps",
        type=int,
        default=None,
        metavar="N",
        help="fixpoint step budget per certification",
    )
    group.add_argument(
        "--max-structures",
        type=int,
        default=None,
        metavar="N",
        help="abstract-structure budget per certification",
    )
    group.add_argument(
        "--ladder",
        action="store_true",
        help="on breach, re-run the unresolved residue at cheaper "
        "engine tiers (the default degradation ladder)",
    )


def _governor_options(args: argparse.Namespace):
    """A CertifyOptions carrying the governor flags, or None if unset."""
    if (
        args.deadline is None
        and args.governor_steps is None
        and args.max_structures is None
        and not args.ladder
    ):
        return None
    return CertifyOptions(
        deadline=args.deadline,
        max_steps=args.governor_steps,
        max_structures=args.max_structures,
        ladder=True if args.ladder else None,
    )


def _write_json(doc, dest: Optional[str]) -> None:
    """Write ``doc`` as indented JSON to ``dest`` (``-`` = stdout,
    ``None`` = nowhere): the one ``--json -|PATH`` behaviour."""
    if dest == "-":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif dest:
        with open(dest, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the suite benchmark: the precision table (default), the "
            "incremental-recertification bench (--incremental) or the "
            "scale harness (--scale), with machine-readable --json "
            "output and CI gating (--check)."
        ),
    )
    parser.add_argument(
        "--spec",
        default="cmp",
        choices=available_specs(),
        help="which shipped specification to benchmark against",
    )
    parser.add_argument(
        "--engines",
        default=None,
        metavar="E1,E2,...",
        help="comma-separated engine subset for the precision table",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="run the incremental-recertification bench: byte-diff "
        "warm-started vs from-scratch certificates over fuzzed edit "
        "chains, and time the speedup-vs-edit-distance curve on a "
        "loop-heavy heap client",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=8,
        metavar="N",
        help="fuzzed base clients for the --incremental equality corpus",
    )
    parser.add_argument(
        "--edits",
        type=int,
        default=5,
        metavar="N",
        help="edit-chain length per base client for --incremental",
    )
    parser.add_argument(
        "--edit-seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for the --incremental edit chains",
    )
    parser.add_argument(
        "--distances",
        default="1,2,4,8",
        metavar="D1,D2,...",
        help="edit distances for the --incremental speedup curve",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run the scale harness: certify/check wall time and peak "
        "RSS vs program size over the synthetic scale families, plus "
        "the cold-vs-warm summary-DB protocol on shared-library",
    )
    parser.add_argument(
        "--scale-sizes",
        default=None,
        metavar="N1,N2,...",
        help="target statement counts for --scale (default: "
        "1000,2000,4000)",
    )
    parser.add_argument(
        "--families",
        default=None,
        metavar="F1,F2,...",
        help="scale families for --scale (default: all; see "
        "repro.bench.synthetic.SCALE_FAMILIES)",
    )
    parser.add_argument(
        "--scale-engines",
        default=None,
        metavar="E1,E2,...",
        help="engines for --scale (default: interproc)",
    )
    parser.add_argument(
        "--scale-seed",
        type=int,
        default=1,
        metavar="S",
        help="generator seed for --scale",
    )
    parser.add_argument(
        "--superlinear-factor",
        type=float,
        default=3.0,
        metavar="X",
        help="with --scale and --check, fail when certify time grows "
        "more than X times faster than program size between adjacent "
        "sizes",
    )
    parser.add_argument(
        "--warm-cold-target",
        type=int,
        default=None,
        metavar="N",
        help="statement count for the --scale cold-vs-warm summary-DB "
        "protocol (default: the largest --scale-sizes entry)",
    )
    parser.add_argument(
        "--no-warm-cold",
        action="store_true",
        help="skip the --scale cold-vs-warm summary-DB protocol",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --check and --scale, fail unless the warm "
        "(summary-DB hit) run is at least X times faster than cold",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        metavar="N",
        help="timed repetitions per point of the --incremental speedup "
        "curve",
    )
    parser.add_argument(
        "--programs",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated suite-program subset",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="with --check and --incremental, fail unless the "
        "single-edit warm-start speedup is at least X",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate for CI: fail if any engine misses a real error "
        "(precision table), certificates or alarm sets differ / the "
        "speedup floor is not met (--incremental), or a scale gate "
        "trips (--scale)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="allow --json to overwrite an existing file",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the text table"
    )
    _add_governor_arguments(parser)
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Differential fuzzing: generate seeded random Jlite clients, "
            "obtain ground truth from the exhaustive interpreter, certify "
            "with every requested engine, and fail on any soundness "
            "violation (an engine missing a concretely-witnessed error)."
        ),
    )
    parser.add_argument(
        "--seed-range",
        default="0:100",
        metavar="A:B",
        help="half-open seed interval to fuzz (default 0:100)",
    )
    parser.add_argument(
        "--spec",
        default="cmp",
        choices=available_specs(),
        help="specification to certify against (note: the generator "
        "emits Set/Iterator clients shaped for CMP; other specs mostly "
        "exercise the not-applicable paths)",
    )
    parser.add_argument(
        "--engines",
        default=None,
        metavar="E1,E2,...",
        help="comma-separated engines (default: one per fixpoint family)",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=16,
        metavar="N",
        help="statement budget per generated main body",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=2,
        metavar="N",
        help="max nesting depth of generated branches/loops",
    )
    parser.add_argument(
        "--helpers",
        type=int,
        default=2,
        metavar="N",
        help="max generated static helper methods",
    )
    parser.add_argument(
        "--max-paths",
        type=int,
        default=8_000,
        metavar="N",
        help="oracle exploration budget: concrete paths per program",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=400,
        metavar="N",
        help="oracle exploration budget: steps per concrete path",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop generating new seeds after this much wall clock",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="minimize every gate-failing program before reporting it",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write (shrunk) gate-failing programs into this corpus dir",
    )
    parser.add_argument(
        "--fail-on-disagreement",
        action="store_true",
        help="also fail when engines disagree on alarm sets (default: "
        "disagreements are reported, only soundness fails the run)",
    )
    parser.add_argument(
        "--emit-cert",
        action="store_true",
        help="certificate round-trip gate: every fuzzed program is also "
        "certified with --emit-cert and the certificate must pass the "
        "independent checker",
    )
    parser.add_argument(
        "--mutate-certs",
        action="store_true",
        help="with --emit-cert, additionally apply one guaranteed-reject "
        "mutation per certificate and fail if the checker accepts it",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the campaign summary as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary table"
    )
    # --max-steps is taken by the oracle budget above, so the governor's
    # step budget gets a distinct spelling here
    _add_governor_arguments(parser, steps_flag="--governor-steps")
    return parser


def build_certify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro certify",
        description=(
            "Certify clients and emit proof-carrying conformance "
            "certificates: the post-fixpoint per-node abstract states, "
            "independently re-checkable without re-running any fixpoint "
            "(repro check)."
        ),
    )
    parser.add_argument(
        "client", nargs="?", help="path to the Jlite client source"
    )
    parser.add_argument(
        "--suite",
        default=None,
        metavar="P1,P2,...",
        help="certify these benchmark-suite programs instead of a client",
    )
    parser.add_argument(
        "--all-suite",
        action="store_true",
        help="certify the full benchmark suite",
    )
    parser.add_argument(
        "--spec",
        default="cmp",
        choices=available_specs(),
        help="which shipped specification to certify against",
    )
    parser.add_argument(
        "--engines",
        default=None,
        metavar="E1,E2,...",
        help="comma-separated engines (default: every engine applicable "
        "to each program; 'auto' for a single client)",
    )
    parser.add_argument(
        "--emit-cert",
        default=None,
        metavar="PATH",
        help="write the (single) certificate to this path",
    )
    parser.add_argument(
        "--emit-cert-dir",
        default=None,
        metavar="DIR",
        help="write one <program>-<engine>.cert.json per certification",
    )
    parser.add_argument(
        "--incremental-from",
        default=None,
        metavar="CERT",
        help="seed the fixpoint from this parent certificate "
        "(incremental recertification; falls back to a full run when "
        "the parent is unusable)",
    )
    parser.add_argument(
        "--emit-delta",
        default=None,
        metavar="PATH",
        help="with --incremental-from and a single certification, write "
        "a delta certificate against the parent instead of requiring a "
        "full --emit-cert",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="immediately validate every emitted certificate with the "
        "independent checker; any reject fails the run",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write one result envelope per certification as JSON "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run lines"
    )
    return parser


def certify_main(argv: Optional[List[str]] = None) -> int:
    from repro.bench.harness import HEAP_ENGINES, SHALLOW_ENGINES
    from repro.cert import CertificateChecker
    from repro.suite import all_programs

    args = build_certify_parser().parse_args(argv)
    spec = get_spec(args.spec)
    requested = (
        tuple(e.strip() for e in args.engines.split(","))
        if args.engines
        else None
    )
    if requested:
        bad = [e for e in requested if e not in ENGINES]
        if bad:
            print(f"error: unknown engine(s): {bad}", file=sys.stderr)
            return 2

    # (name, source, engines) work items
    items: List = []
    if args.all_suite or args.suite:
        if args.client:
            print(
                "error: give either a client path or a suite selection, "
                "not both",
                file=sys.stderr,
            )
            return 2
        by_name = {p.name: p for p in all_programs()}
        if args.all_suite:
            chosen = list(by_name)
        else:
            chosen = [name.strip() for name in args.suite.split(",")]
            unknown = set(chosen) - set(by_name)
            if unknown:
                print(
                    f"error: unknown suite program(s): {sorted(unknown)}",
                    file=sys.stderr,
                )
                return 2
        for name in sorted(chosen):
            bench = by_name[name]
            applicable = SHALLOW_ENGINES if bench.shallow else HEAP_ENGINES
            engines = tuple(
                e
                for e in (requested or applicable)
                if e != "auto" and e in applicable
            )
            items.append((name, bench.source, engines))
    else:
        if not args.client:
            print("error: no client source given", file=sys.stderr)
            return 2
        with open(args.client) as handle:
            source = handle.read()
        name = args.client.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        engines = tuple(e for e in (requested or ("auto",)))
        items.append((name, source, engines))

    if args.emit_cert and (args.emit_cert_dir or len(items) != 1):
        print(
            "error: --emit-cert takes exactly one certification; use "
            "--emit-cert-dir for suites",
            file=sys.stderr,
        )
        return 2
    parent = None
    if args.incremental_from:
        from repro.cert import CertificateError, ConformanceCertificate

        try:
            parent = ConformanceCertificate.load(args.incremental_from)
        except (OSError, json.JSONDecodeError, CertificateError) as error:
            print(
                f"error: bad parent certificate: {error}", file=sys.stderr
            )
            return 2
    if args.emit_delta:
        if parent is None:
            print(
                "error: --emit-delta needs --incremental-from",
                file=sys.stderr,
            )
            return 2
        if len(items) != 1 or len(items[0][2]) != 1:
            print(
                "error: --emit-delta takes exactly one certification",
                file=sys.stderr,
            )
            return 2
    if args.emit_cert_dir:
        import os

        os.makedirs(args.emit_cert_dir, exist_ok=True)

    import time as _time

    from repro import envelope as _envelope
    from repro.runtime.trace import CollectingTracer, use_tracer

    session = CertifySession(
        spec, options=CertifyOptions(emit_certificate=True)
    )
    checker = CertificateChecker() if args.check else None
    rejects = 0
    records: List[dict] = []
    for name, source, engines in items:
        for engine in engines:
            tracer = CollectingTracer()
            started = _time.monotonic()
            with use_tracer(tracer):
                report = session.certify(
                    source, engine=engine, incremental_from=parent
                )
            seconds = _time.monotonic() - started
            cert = report.certificate
            cert_path = None
            line = (
                f"{name:24s} {report.engine:18s} "
                + ("CERTIFIED" if report.certified else
                   f"{len(report.alarms)} alarm(s)")
            )
            if parent is not None:
                line += (
                    "  [incremental]"
                    if report.stats.get("incremental")
                    else "  [full fallback]"
                )
            if cert is not None:
                if args.emit_cert:
                    cert.write(args.emit_cert)
                    cert_path = args.emit_cert
                if args.emit_cert_dir:
                    cert_path = (
                        f"{args.emit_cert_dir}/{name}-{report.engine}"
                        ".cert.json"
                    )
                    cert.write(cert_path)
                line += f"  [{len(cert.text())} cert bytes]"
                if args.emit_delta:
                    from repro.cert import (
                        delta_text,
                        encode_delta,
                        write_delta,
                    )

                    delta = encode_delta(parent, cert)
                    write_delta(delta, args.emit_delta)
                    line += (
                        f"  [{len(delta_text(delta))} delta bytes "
                        f"-> {args.emit_delta}]"
                    )
                if checker is not None:
                    result = checker.check(cert)
                    if not result.ok:
                        rejects += 1
                        line += f"  CHECK-{result.kind.upper()}"
                    elif args.emit_delta:
                        from repro.cert import check_delta

                        delta_result, _ = check_delta(
                            parent, delta, checker, spec=spec
                        )
                        if not delta_result.ok:
                            rejects += 1
                            line += (
                                f"  DELTA-{delta_result.kind.upper()}"
                            )
            records.append(
                {
                    "name": name,
                    **_envelope.report_envelope(
                        report,
                        seconds=seconds,
                        events=tracer.events,
                        certificate_path=cert_path,
                    ),
                }
            )
            if not args.quiet:
                print(line)
    _write_json({"spec": args.spec, "certifications": records}, args.json)
    if rejects:
        print(f"{rejects} certificate(s) failed the check", file=sys.stderr)
        return 1
    return 0


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Independently validate proof-carrying conformance "
            "certificates in one linear pass (no fixpoint is re-run): "
            "inductiveness of the annotation, coverage of every "
            "reachable node, and entailment of the claimed alarm set."
        ),
    )
    parser.add_argument(
        "certs", nargs="+", metavar="CERT", help="certificate files"
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write per-certificate results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-certificate lines"
    )
    return parser


def check_main(argv: Optional[List[str]] = None) -> int:
    from repro.cert import (
        CertificateChecker,
        CertificateError,
        ConformanceCertificate,
    )

    import time as _time

    from repro import envelope as _envelope

    args = build_check_parser().parse_args(argv)
    checker = CertificateChecker()
    records = []
    accepted = rejected = 0
    for path in args.certs:
        cert = None
        started = _time.monotonic()
        try:
            cert = ConformanceCertificate.load(path)
            result = checker.check(cert)
        except (OSError, json.JSONDecodeError, CertificateError) as error:
            from repro.cert.check import CheckResult

            result = CheckResult(
                ok=False, kind="malformed", detail=str(error)
            )
        seconds = _time.monotonic() - started
        if result.ok:
            accepted += 1
        else:
            rejected += 1
        # record = the shared envelope plus the per-file bookkeeping the
        # summary (and CI) reads without digging into sections
        records.append(
            {
                "path": path,
                "ok": result.ok,
                **_envelope.check_envelope(
                    result, certificate=cert, path=path, seconds=seconds
                ),
            }
        )
        if not args.quiet:
            print(f"{path}: {result.describe()}")
    payload = {
        "accepted": accepted,
        "rejected": rejected,
        "certificates": records,
    }
    _write_json(payload, args.json)
    if not args.quiet:
        print(f"{accepted} accepted, {rejected} rejected")
    return 0 if rejected == 0 else 1


def _parse_seed_range(text: str) -> Optional[range]:
    parts = text.split(":")
    if len(parts) != 2:
        return None
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if start < 0 or stop < start:
        return None
    return range(start, stop)


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    from repro.fuzz import (
        DEFAULT_FUZZ_ENGINES,
        FuzzConfig,
        Oracle,
        run_campaign,
    )
    from repro.fuzz.shrink import (
        corpus_entry_name,
        shrink_source,
        write_corpus_entry,
    )
    from repro.runtime.interp import ExplorationBudget

    args = build_fuzz_parser().parse_args(argv)
    seeds = _parse_seed_range(args.seed_range)
    if seeds is None:
        print(
            f"error: bad --seed-range {args.seed_range!r} "
            "(expected A:B with 0 <= A <= B)",
            file=sys.stderr,
        )
        return 2
    engines = (
        tuple(e.strip() for e in args.engines.split(","))
        if args.engines
        else DEFAULT_FUZZ_ENGINES
    )
    bad = [e for e in engines if e not in ENGINES or e == "auto"]
    if bad:
        print(f"error: unknown engine(s): {bad}", file=sys.stderr)
        return 2
    config = FuzzConfig(
        max_stmts=args.size,
        max_depth=args.depth,
        max_helpers=args.helpers,
    )
    oracle = Oracle(
        ExplorationBudget(
            max_paths=args.max_paths, max_steps_per_path=args.max_steps
        )
    )
    options = _governor_options(args)
    spec = get_spec(args.spec)
    gate = None
    if args.emit_cert or args.mutate_certs:
        from repro.fuzz import CertGate

        gate = CertGate(
            spec,
            engines,
            options=options,
            mutate=args.mutate_certs,
            mutation_seed=seeds.start,
        )
    result = run_campaign(
        seeds,
        spec,
        engines=engines,
        config=config,
        oracle=oracle,
        time_budget=args.time_budget,
        options=options,
        on_case=gate,
    )

    shrunk: List[str] = []
    if args.shrink or args.corpus:
        from repro.fuzz import run_case
        existing: List[str] = []
        for case in result.failures:
            signature = case.failure_signature()

            def still_fails(source: str, _sig=signature) -> bool:
                candidate = run_case(
                    source, spec, engines, oracle=oracle, options=options
                )
                return bool(candidate.failure_signature() & _sig)

            reduced = (
                shrink_source(case.source, still_fails)
                if args.shrink
                else case.source
            )
            shrunk.append(reduced)
            if args.corpus:
                kind = sorted(k for _e, k in signature)[0]
                name = corpus_entry_name(case.seed, kind, existing)
                existing.append(name)
                write_corpus_entry(
                    args.corpus,
                    name,
                    reduced,
                    {
                        "kind": kind,
                        "spec": args.spec,
                        "seed": case.seed,
                        "engines": list(engines),
                        "failure": sorted(
                            f"{e}:{k}" for e, k in signature
                        ),
                        "oracle_failing_lines": sorted(
                            case.verdict.failing_lines()
                        ),
                    },
                )

    payload = result.to_json()
    payload["shrunk_reproducers"] = shrunk
    if gate is not None:
        payload["certificates"] = gate.result.to_json()
    _write_json(payload, args.json)
    if not args.quiet:
        print(result.format_summary())
        if gate is not None:
            g = gate.result
            print(
                f"certificates: {g.emitted} emitted, {g.accepted} accepted, "
                f"{g.rejected} rejected, {g.skipped} skipped; "
                f"{g.mutants_rejected}/{g.mutants} mutants rejected"
            )
            for failure in g.failures:
                print(f"  certificate gate: {failure}")
        for source in shrunk:
            print("\nshrunk reproducer:\n" + source)
    ok = result.ok and not (
        args.fail_on_disagreement and result.disagreements
    )
    if gate is not None and not gate.result.ok:
        ok = False
    return 0 if ok else 1


def bench_main(argv: Optional[List[str]] = None) -> int:
    from repro.bench import results_to_json, run_precision_table
    from repro.bench.harness import format_table
    from repro.suite import all_programs

    args = build_bench_parser().parse_args(argv)
    spec = get_spec(args.spec)
    programs = None
    if args.programs:
        wanted = {name.strip() for name in args.programs.split(",")}
        by_name = {p.name: p for p in all_programs()}
        unknown = wanted - set(by_name)
        if unknown:
            print(
                f"error: unknown suite program(s): {sorted(unknown)}",
                file=sys.stderr,
            )
            return 2
        programs = [by_name[name] for name in sorted(wanted)]

    options = _governor_options(args)
    if args.scale:
        from repro.bench.scale import (
            DEFAULT_ENGINES,
            DEFAULT_FAMILIES,
            DEFAULT_SIZES,
            run_scale,
        )
        from repro.bench.synthetic import SCALE_FAMILIES

        sizes = list(DEFAULT_SIZES)
        if args.scale_sizes:
            try:
                sizes = [
                    int(part) for part in args.scale_sizes.split(",") if part
                ]
            except ValueError:
                print(
                    f"error: bad --scale-sizes: {args.scale_sizes!r}",
                    file=sys.stderr,
                )
                return 2
        families = list(DEFAULT_FAMILIES)
        if args.families:
            families = [
                part.strip() for part in args.families.split(",") if part
            ]
            bad = [f for f in families if f not in SCALE_FAMILIES]
            if bad:
                print(
                    f"error: unknown scale family(s): {bad}; pick from "
                    f"{sorted(SCALE_FAMILIES)}",
                    file=sys.stderr,
                )
                return 2
        engines = list(DEFAULT_ENGINES)
        if args.scale_engines:
            engines = [
                part.strip() for part in args.scale_engines.split(",") if part
            ]
            bad = [e for e in engines if e not in ENGINES]
            if bad:
                print(f"error: unknown engine(s): {bad}", file=sys.stderr)
                return 2
        progress = None if args.quiet else (
            lambda line: print(f"  {line}", file=sys.stderr)
        )
        report = run_scale(
            families=families,
            sizes=sizes,
            engines=engines,
            seed=args.scale_seed,
            warm_cold=not args.no_warm_cold,
            warm_cold_target=args.warm_cold_target,
            superlinear_factor=args.superlinear_factor,
            progress=progress,
        )
        payload = report.to_json()
        # the CI gate: no hard errors, no superlinear blowup, and when
        # the warm/cold protocol ran its certificates must be
        # byte-identical with alarm parity (plus the speedup floor)
        ok = not any(r.status == "error" for r in report.rows)
        ok = ok and not payload["superlinear"]
        if report.warm_cold is not None:
            w = report.warm_cold
            ok = ok and w.certificates_identical and w.alarms_equal
            if args.min_warm_speedup is not None:
                ok = ok and w.speedup >= args.min_warm_speedup
        elif args.min_warm_speedup is not None:
            ok = False
        if not args.quiet:
            print(report.format())
    elif args.incremental:
        from repro.bench.incremental import run_incremental_bench

        try:
            distances = [
                int(part) for part in args.distances.split(",") if part
            ]
        except ValueError:
            print(
                f"error: bad --distances: {args.distances!r}",
                file=sys.stderr,
            )
            return 2
        result = run_incremental_bench(
            spec=spec,
            seeds=args.seeds,
            edits=args.edits,
            edit_seed=args.edit_seed,
            distances=distances,
            reps=args.reps,
        )
        payload = result.to_json()
        ok = result.ok(args.min_speedup or 0.0)
        if not args.quiet:
            print(result.format(args.min_speedup or 0.0))
    else:
        engines = (
            [e.strip() for e in args.engines.split(",")]
            if args.engines
            else None
        )
        if engines:
            bad = [e for e in engines if e not in ENGINES]
            if bad:
                print(f"error: unknown engine(s): {bad}", file=sys.stderr)
                return 2
        results = run_precision_table(
            spec=spec, engines=engines, programs=programs, options=options
        )
        payload = results_to_json(results)
        ok = all(
            run.sound
            for result in results
            for run in result.runs.values()
        )
        if not args.quiet:
            print(format_table(results))

    from repro.bench.scale import host_meta

    # every committed BENCH_*.json row set carries the same host
    # provenance (cpu count, python version), whichever bench mode
    # produced it
    payload.setdefault("meta", host_meta())
    if args.json not in (None, "-") and os.path.exists(args.json) and not args.force:
        print(
            f"error: {args.json} exists; pass --force to overwrite",
            file=sys.stderr,
        )
        return 2
    _write_json(payload, args.json)
    if args.check and not ok:
        print("bench check FAILED", file=sys.stderr)
        return 1
    return 0


def batch_main(argv: Optional[List[str]] = None) -> int:
    from repro.runtime.batch import BatchRunner, ManifestError, load_manifest

    args = build_batch_parser().parse_args(argv)

    if args.merge_shards:
        from repro.runtime.coordinator import merge_shards

        if not args.shard_dir:
            print(
                "error: --merge-shards requires --shard-dir",
                file=sys.stderr,
            )
            return 2
        try:
            summary = merge_shards(args.shard_dir)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"error: merge failed: {error}", file=sys.stderr)
            return 2
        _write_json(summary, args.json)
        if not args.quiet:
            print(
                f"merged {summary['merged']}/{summary['jobs_journaled']} "
                f"certificates from {summary['shards']} shard(s) into "
                f"{summary['dest']} "
                f"({len(summary['mismatched'])} mismatched, "
                f"{len(summary['missing'])} missing)"
            )
        return 0 if summary["ok"] else 1

    sharded = args.shard_dir is not None or args.shard_index is not None
    # a shard layout fixes where certificates and journals go
    clash = [
        flag
        for flag, value in (
            ("--emit-certs", args.emit_certs),
            ("--checkpoint-dir", args.checkpoint_dir),
            ("--run-id", args.run_id),
            (
                "--shards",
                args.shards if args.shard_index is not None else None,
            ),
        )
        if value is not None
    ]
    if sharded and clash:
        print(
            f"error: {', '.join(clash)} conflict(s) with the shard layout: "
            "a sharded run writes certificates and journals under "
            "--shard-dir (collect the certificates with --merge-shards)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not (args.checkpoint_dir or args.shard_dir):
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    runner_options = dict(
        max_workers=args.jobs,
        default_timeout=args.timeout,
        default_fallback=args.fallback,
        max_retries=args.retries,
        default_deadline=args.deadline,
        default_max_steps=args.governor_steps,
        default_max_structures=args.max_structures,
        default_ladder=True if args.ladder else None,
        resume=args.resume,
    )

    if args.shard_index is not None:
        from repro.runtime.coordinator import run_shard

        if not args.shard_dir:
            print(
                "error: --shard-index requires --shard-dir",
                file=sys.stderr,
            )
            return 2
        try:
            result = run_shard(
                args.shard_dir, args.shard_index, **runner_options
            )
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"error: shard run failed: {error}", file=sys.stderr)
            return 2
    else:
        if args.manifest is None:
            print(
                "error: a manifest is required unless --shard-index or "
                "--merge-shards is given",
                file=sys.stderr,
            )
            return 2
        try:
            jobs = load_manifest(args.manifest)
        except (OSError, json.JSONDecodeError, ManifestError) as error:
            print(f"error: bad manifest: {error}", file=sys.stderr)
            return 2

        if args.write_shards:
            from repro.runtime.coordinator import write_shard_plan

            if not args.shard_dir:
                print(
                    "error: --write-shards requires --shard-dir",
                    file=sys.stderr,
                )
                return 2
            plan = write_shard_plan(
                jobs, args.shard_dir, shards=args.shards or max(args.jobs, 1)
            )
            if not args.quiet:
                print(
                    f"wrote shard plan {plan['run_id']}: {plan['shards']} "
                    f"shard(s) over {len(jobs)} job(s) in {args.shard_dir}"
                )
            return 0

        try:
            runner = BatchRunner(
                jobs,
                emit_certs_dir=args.emit_certs,
                checkpoint_dir=args.checkpoint_dir,
                run_id=args.run_id,
                shards=args.shards,
                shard_dir=args.shard_dir,
                **runner_options,
            )
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = runner.run()
    if args.trace:
        result.write_trace(args.trace)
    _write_json(result.to_json(), args.json)
    if not args.quiet:
        print(result.format_summary())
        if args.trace:
            print(f"trace: {args.trace}")
    return 0 if result.ok else 1


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the long-lived certification service: warm analysis "
            "sessions per spec, a bounded request queue with 429 "
            "backpressure, per-tenant resource budgets, and a "
            "content-addressed certificate store (hit = linear check, "
            "miss = certify + store).  HTTP/JSON on POST /certify, "
            "POST /check, GET /certificates/<hash>, /healthz, /stats."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8091,
        help="bind port (0 picks an ephemeral one)",
    )
    parser.add_argument(
        "--specs",
        default=None,
        metavar="S1,S2,...",
        help="comma-separated specs to serve (default: every registered "
        f"spec: {','.join(available_specs())})",
    )
    parser.add_argument(
        "--engine",
        default="auto",
        choices=ENGINES,
        help="default engine for requests that name none",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="worker threads"
    )
    parser.add_argument(
        "--worker-mode",
        default="thread",
        choices=("thread", "process"),
        help="'process' offloads each certify-on-miss fixpoint to a "
        "process pool of --workers, scaling the CPU-bound path past "
        "the GIL's ~2-core ceiling (default: thread)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="queued requests beyond which new ones get 429",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persist the certificate store under DIR (default: in-memory)",
    )
    parser.add_argument(
        "--tenants",
        default=None,
        metavar="PATH",
        help="JSON file mapping tenant name to a budget object with any "
        "of deadline, max_steps, max_structures, quota_steps",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint on 429 refusals",
    )
    parser.add_argument(
        "--prewarm",
        action="store_true",
        help="derive every served spec's abstraction before accepting "
        "traffic (otherwise sessions warm on first request)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT: stop admitting, finish in-flight "
        "requests for up to this long, flush the store, then exit "
        "(a second signal aborts the wait)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock bound for process workers; a "
        "worker exceeding it is killed and the request retried once "
        "(default: no bound)",
    )
    parser.add_argument(
        "--summary-db",
        default=None,
        metavar="DIR",
        help="persistent interprocedural summary store: certify-on-miss "
        "loads procedure summaries by (spec, body, context) hash and "
        "persists newly computed ones under DIR",
    )
    group = parser.add_argument_group(
        "default tenant budget",
        "per-request governor caps for tenants without a --tenants entry",
    )
    group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS"
    )
    group.add_argument("--max-steps", type=int, default=None, metavar="N")
    group.add_argument(
        "--max-structures", type=int, default=None, metavar="N"
    )
    group.add_argument(
        "--quota-steps",
        type=int,
        default=None,
        metavar="N",
        help="cumulative fixpoint-step quota per tenant (429 once spent)",
    )
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    import asyncio

    from repro.serve import ServeConfig, ServeDaemon, TenantBudget

    args = build_serve_parser().parse_args(argv)
    specs = (
        tuple(s.strip().lower() for s in args.specs.split(","))
        if args.specs
        else ()
    )
    unknown = [s for s in specs if s not in available_specs()]
    if unknown:
        print(
            f"error: unknown spec(s) {unknown}; "
            f"registered: {available_specs()}",
            file=sys.stderr,
        )
        return 2
    tenants = {}
    if args.tenants:
        try:
            with open(args.tenants) as handle:
                raw = json.load(handle)
            tenants = {
                str(name): TenantBudget.from_json(budget)
                for name, budget in raw.items()
            }
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as error:
            print(f"error: bad --tenants file: {error}", file=sys.stderr)
            return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        specs=specs,
        options=CertifyOptions(
            emit_certificate=True, summary_db=args.summary_db
        ),
        default_engine=args.engine,
        workers=args.workers,
        worker_mode=args.worker_mode,
        queue_limit=args.queue_limit,
        store_path=args.store,
        retry_after=args.retry_after,
        heartbeat=args.heartbeat,
        default_budget=TenantBudget(
            deadline=args.deadline,
            max_steps=args.max_steps,
            max_structures=args.max_structures,
            quota_steps=args.quota_steps,
        ),
        tenants=tenants,
    )

    async def run() -> None:
        daemon = ServeDaemon(config=config)
        await daemon.start()
        daemon.install_signal_handlers(args.drain_timeout)
        if args.prewarm:
            daemon.service.prewarm()
        print(
            f"repro serve: listening on {config.host}:{daemon.port} "
            f"(specs: {', '.join(sorted(daemon.service.healthz()['specs']))}; "
            f"{config.workers} {config.worker_mode} worker(s), "
            f"queue {config.queue_limit})",
            flush=True,
        )
        try:
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def build_bench_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench serve",
        description=(
            "Load-generate against an in-process certification service: "
            "a cold phase (distinct clients, all store misses), a hot "
            "concurrent phase (repeats, all store hits answered by the "
            "linear-pass checker), and a queue-overflow backpressure "
            "probe.  Reports p50/p99 latency, throughput, hit rate and "
            "the check-on-hit vs certify-on-miss speedup."
        ),
    )
    parser.add_argument(
        "--spec", default="cmp", choices=available_specs()
    )
    parser.add_argument(
        "--engine",
        default="tvla-relational",
        choices=[e for e in ENGINES if e != "auto"],
        help="engine driven by every request",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="distinct synthetic clients (cold-phase size)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=32,
        metavar="N",
        help="hot-phase request count over the same clients",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="concurrent connections in both measured phases",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=96,
        metavar="N",
        help="operations per synthetic client (fixpoint weight)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="service workers"
    )
    parser.add_argument(
        "--worker-mode",
        default="thread",
        choices=("thread", "process"),
        help="service executor flavour (process = certify-on-miss runs "
        "on a process pool)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        metavar="X",
        help="with --check, fail unless hit-check p50 beats cold-certify "
        "p50 by at least this factor",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate for CI: fail unless verdicts are identical on hits, "
        "hits skip the fixpoint, the speedup floor holds, and the "
        "backpressure probe drops no accepted work",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the text summary"
    )
    return parser


def bench_serve_main(argv: Optional[List[str]] = None) -> int:
    from repro.serve.loadgen import (
        ServeBenchConfig,
        format_serve_bench,
        run_serve_bench,
        serve_bench_ok,
    )

    args = build_bench_serve_parser().parse_args(argv)
    results = run_serve_bench(
        ServeBenchConfig(
            spec=args.spec,
            engine=args.engine,
            clients=args.clients,
            num_ops=args.ops,
            hit_requests=args.requests,
            concurrency=args.concurrency,
            workers=args.workers,
            worker_mode=args.worker_mode,
        )
    )
    if isinstance(results, dict):
        from repro.bench.scale import host_meta

        results.setdefault("meta", host_meta())
    _write_json(results, args.json)
    if not args.quiet:
        print(format_serve_bench(results))
    if args.check and not serve_bench_ok(
        results, min_speedup=args.min_speedup
    ):
        print("bench serve check FAILED", file=sys.stderr)
        return 1
    return 0


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description=(
            "Maintain an on-disk certificate or summary store.  'gc' "
            "evicts least-recently-used objects until the store fits the "
            "given limits and prunes index entries left dangling by "
            "evictions."
        ),
    )
    parser.add_argument(
        "action", choices=("gc",), help="maintenance action to run"
    )
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="root of the on-disk store",
    )
    parser.add_argument(
        "--kind",
        default="certs",
        choices=("certs", "summaries"),
        help="which store lives at --store: certificates (default) or "
        "interprocedural procedure summaries",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict oldest objects until total object bytes <= N",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="evict oldest objects until the object count <= N",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the gc summary as JSON instead of text",
    )
    return parser


def store_main(argv: Optional[List[str]] = None) -> int:
    from repro.store import CertificateStore, SummaryStore

    args = build_store_parser().parse_args(argv)
    if not os.path.isdir(args.store):
        print(
            f"error: {args.store!r} is not a directory", file=sys.stderr
        )
        return 2
    if args.max_bytes is None and args.max_entries is None:
        print(
            "error: gc needs --max-bytes and/or --max-entries",
            file=sys.stderr,
        )
        return 2
    # both stores run gc in one storage core (repro.store.core), so
    # the reporting below is kind-agnostic
    store_cls = SummaryStore if args.kind == "summaries" else CertificateStore
    store = store_cls(args.store)
    summary = store.gc(
        max_bytes=args.max_bytes, max_entries=args.max_entries
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"store gc: {summary['evicted']} object(s) evicted, "
            f"{summary['index_pruned']} index entr(ies) pruned; "
            f"{summary['objects_after']} object(s) / "
            f"{summary['bytes_after']} byte(s) remain "
            f"(was {summary['objects_before']} / "
            f"{summary['bytes_before']})"
        )
    return 0


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Run a seeded fault-injection campaign against the stateful "
            "layers: torn/ENOSPC/EIO store writes with crash recovery, "
            "SIGKILLed serve workers with supervised retry, and "
            "SIGKILLed batch runs with checkpoint/resume.  Exits 1 the "
            "moment any schedule violates an invariant (a certificate "
            "failing the linear checker, or a verdict differing from a "
            "fault-free run)."
        ),
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=100,
        metavar="N",
        help="fault schedules to run (default: 100)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="campaign seed; every schedule's fault point derives "
        "deterministically from it",
    )
    parser.add_argument(
        "--layers",
        default="store,serve,batch",
        metavar="L1,L2,...",
        help="comma-separated layers to attack (default: store, serve "
        "and batch; 'coordinator' and 'summarydb' attack a sharded "
        "batch run and the persistent summary database and run only "
        "when named)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="scratch directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the full campaign report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-schedule progress lines",
    )
    return parser


def chaos_main(argv: Optional[List[str]] = None) -> int:
    from repro.testing.chaos import SCENARIOS, run_campaign

    args = build_chaos_parser().parse_args(argv)
    layers = tuple(
        layer.strip().lower()
        for layer in args.layers.split(",")
        if layer.strip()
    )
    unknown = [layer for layer in layers if layer not in SCENARIOS]
    if unknown:
        print(
            f"error: unknown layer(s) {unknown}; "
            f"known: {sorted(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    report = run_campaign(
        args.schedules,
        seed=args.seed,
        layers=layers,
        workdir=args.workdir,
        progress=None if args.quiet else lambda line: print(line, flush=True),
    )
    _write_json(report.to_json(), args.json)
    print(report.format_summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    if argv and argv[0] == "bench":
        if len(argv) > 1 and argv[1] == "serve":
            return bench_serve_main(argv[2:])
        return bench_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "certify":
        return certify_main(argv[1:])
    if argv and argv[0] == "check":
        return check_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])

    args = build_parser().parse_args(argv)
    spec = get_spec(args.spec)

    if args.show_abstraction:
        abstraction = CertifySession(spec).abstraction()
        print(abstraction.describe())
        stats = abstraction.stats
        print(
            f"\n{stats.families} families, {stats.wp_calls} WP calls, "
            f"{stats.equivalence_checks} equivalence checks, "
            f"{stats.elapsed_seconds:.2f}s"
        )
        return 0

    if not args.client:
        print("error: no client source given", file=sys.stderr)
        return 2

    with open(args.client) as handle:
        source = handle.read()

    session = CertifySession(
        spec,
        args.engine,
        CertifyOptions(prune_requires=not args.no_prune),
    )
    report = session.certify(source)
    print(report.describe())

    if args.ground_truth:
        program = parse_program(source, spec)
        truth = explore(program)
        summary = truth.compare(report.alarm_sites())
        print(
            f"ground truth: {summary.real_errors} real error site(s); "
            f"{summary.false_alarms} false alarm(s); "
            f"{summary.missed_errors} missed"
            + (" [exploration truncated]" if truth.truncated else "")
        )

    return 0 if report.certified else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
