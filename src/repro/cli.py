"""Command-line interface: ``repro`` / ``repro-certify``.

One argparse tree (:func:`build_parser`) holds every command.  Flags
that several commands share (``--spec``, ``--json``/``--quiet``, the
resource governor, ``--workers``/``--worker-mode``) are declared once,
as parent parsers.  Bad input, found by argparse or by a handler, is a
:class:`UsageError`, which :func:`main` prints as ``error: ...`` before
exiting 2.  ``repro --help`` lists the commands::

    repro client.jl --engine fds                  # bare form: one client
    repro --show-abstraction --spec cmp           # print Figs. 4+5
    repro certify --all-suite --emit-cert-dir certs/
    repro check certs/*.cert.json --json report.json
    repro batch manifest.json --jobs 4 --trace out.jsonl
    repro bench --json table.json                 # or --incremental, --scale
    repro bench serve --check                     # load-generate the service
    repro fuzz --seed-range 0:200 --emit-cert
    repro serve --port 8091 --specs cmp,grp --store certs.cas
    repro store gc --store certs.cas --max-entries 1000
    repro chaos --schedules 100 --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.api import (
    ENGINES,
    CertifyOptions,
    CertifySession,
)
from repro.easl.library import available_specs, get_spec
from repro.lang.types import parse_program
from repro.runtime import explore

# the command words; any other first argument is the bare single-client form
COMMANDS = (
    "certify", "check", "batch", "bench", "fuzz", "serve", "store", "chaos"
)
DEFAULT_SPEC = "cmp"


class UsageError(Exception):
    """Bad command-line input: :func:`main` prints ``error: <message>``
    on stderr and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Reports parse errors as :class:`UsageError`, so every usage error
    leaves through the one exit in :func:`main`."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _split(
    text: Optional[str],
    flag: str,
    choices: Optional[Sequence[str]] = None,
    noun: str = "",
    default=None,
):
    """The comma-separated parts of a ``flag`` value (``default`` when
    the flag is unset), empty parts dropped.  With ``choices`` every
    part must be one of them (``noun`` names a part in the error);
    without, every part must be an int."""
    if not text:
        return default
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if choices is None:
        try:
            return [int(part) for part in parts]
        except ValueError:
            raise UsageError(f"bad {flag}: {text!r}") from None
    bad = [part for part in parts if part not in choices]
    if bad:
        raise UsageError(
            f"unknown {noun}(s) in {flag}: {bad}; "
            f"choose from {', '.join(choices)}"
        )
    return parts


def _reject_unhonoured(
    mode: str, flags: Iterable[Tuple[str, object]], reason: str
) -> None:
    """The one rule for flags a mode cannot honour: a UsageError naming
    every given flag, i.e. every ``(flag, value)`` whose value is not the
    unset ``None`` / ``False``."""
    given = [f for f, v in flags if v is not None and v is not False]
    if given:
        raise UsageError(
            f"{', '.join(given)} conflict(s) with {mode}: {reason}"
        )


def _seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    try:
        seeds = range(int(start), int(stop))
    except ValueError:
        seeds = None
    if seeds is None or seeds.start < 0 or seeds.stop < seeds.start:
        raise UsageError(
            f"bad --seed-range {text!r} (expected A:B with 0 <= A <= B)"
        )
    return seeds


def _governor_options(args: argparse.Namespace):
    """A CertifyOptions carrying the governor flags, or None if unset."""
    budget = dict(
        deadline=args.deadline,
        max_steps=args.governor_steps,
        max_structures=args.max_structures,
        ladder=True if args.ladder else None,
    )
    if all(value is None for value in budget.values()):
        return None
    return CertifyOptions(**budget)


def _write_json(doc, dest: Optional[str]) -> None:
    """Write ``doc`` as indented JSON to ``dest`` (``-`` = stdout,
    ``None`` = nowhere): the one ``--json -|PATH`` behaviour."""
    if dest == "-":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif dest:
        with open(dest, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _governor_parent(
    steps_flag: str = "--max-steps", ladder: bool = True
) -> argparse.ArgumentParser:
    """The resource-governor group.  fuzz spells the step budget
    ``--governor-steps`` (its ``--max-steps`` is the oracle budget);
    serve applies the caps per tenant and has no degradation ladder."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "resource governor",
        "in-engine budgets; breached runs surrender a sound partial "
        "result instead of dying (see repro.runtime.guard)",
    )
    group.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="cooperative wall-clock deadline per certification",
    )
    group.add_argument(
        steps_flag,
        dest="governor_steps",
        type=int,
        metavar="N",
        help="fixpoint step budget per certification",
    )
    group.add_argument(
        "--max-structures",
        type=int,
        metavar="N",
        help="abstract-structure budget per certification",
    )
    if ladder:
        group.add_argument(
            "--ladder",
            action="store_true",
            help="on breach, re-run the unresolved residue at cheaper "
            "engine tiers (the default degradation ladder)",
        )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser tree.  Each command parser sets ``run`` (its
    handler) and ``command`` (its name); command ``""`` is the bare
    single-client form, and :func:`parse_args` maps the first words of
    argv to a command name."""
    root = _Parser(
        prog="repro",
        description=(
            "Statically certify Jlite clients against component "
            "conformance specifications (PLDI 2002 staged certification)."
        ),
        epilog=(
            "Without a COMMAND, repro (alias repro-certify) certifies one "
            "client file; 'repro CLIENT --help' lists that form's options."
        ),
    )
    commands = root.add_subparsers(
        dest="command", metavar="COMMAND", title="commands"
    )
    # the shared flag groups, each passed to its commands as a parent
    spec, output, workers = (
        argparse.ArgumentParser(add_help=False) for _ in range(3)
    )
    spec.add_argument(
        "--spec",
        default=DEFAULT_SPEC,
        choices=available_specs(),
        help="which shipped specification to certify against",
    )
    output.add_argument(
        "--json",
        metavar="PATH",
        help="write the results as JSON ('-' for stdout)",
    )
    output.add_argument(
        "--quiet", action="store_true", help="suppress the text output"
    )
    workers.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="service workers (threads, or processes with --worker-mode "
        "process)",
    )
    workers.add_argument(
        "--worker-mode",
        default="thread",
        choices=("thread", "process"),
        help="'process' offloads each certify-on-miss fixpoint to a "
        "process pool of --workers, scaling the CPU-bound path past "
        "the GIL's ~2-core ceiling (default: thread)",
    )
    governor = _governor_parent()

    def command(group, name, run, declare, parents=()):
        # the handler's docstring is the command's --help description;
        # its first paragraph is the command's line in 'repro --help'
        doc = run.__doc__ or ""  # None under python -OO
        parser = group.add_parser(
            name,
            help=doc.split("\n\n")[0],
            description=doc,
            parents=parents,
        )
        parser.set_defaults(run=run)
        declare(parser)
        return parser

    # no help= keeps the bare form out of the command list
    bare = commands.add_parser(
        "",
        prog="repro",
        parents=[spec],
        description="Statically certify one Jlite client against a "
        "component conformance specification.",
    )
    bare.set_defaults(run=_certify_one)
    _certify_one_arguments(bare)
    root.usage = "%(prog)s [-h] COMMAND ...\n       " + (
        bare.format_usage().split(" ", 1)[1].rstrip()
    )

    command(commands, "certify", _certify, _certify_arguments, [spec, output])
    command(commands, "check", _check, _check_arguments, [output])
    command(commands, "batch", _batch, _batch_arguments, [output, governor])
    command(
        commands, "bench", _bench, _bench_arguments, [spec, output, governor]
    )
    # parse_args folds the words 'bench serve' into this one name
    command(
        commands,
        "bench serve",
        _bench_serve,
        _bench_serve_arguments,
        [spec, output, workers],
    )
    command(
        commands,
        "fuzz",
        _fuzz,
        _fuzz_arguments,
        [spec, output, _governor_parent(steps_flag="--governor-steps")],
    )
    command(
        commands,
        "serve",
        _serve,
        _serve_arguments,
        [workers, _governor_parent(ladder=False)],
    )
    command(commands, "store", _store, _store_arguments)
    command(commands, "chaos", _chaos, _chaos_arguments, [output])
    return root


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` without running anything.  A first word that names
    no command (and is not ``-h``/``--help``) selects the bare form."""
    argv = list(argv)
    if argv[:2] == ["bench", "serve"]:
        argv[:2] = ["bench serve"]
    elif not argv or argv[0] not in (*COMMANDS, "-h", "--help"):
        argv.insert(0, "")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        # bench refuses the flags of the modes it does not run, and most
        # of them have defaults, so it asks argv what was given
        args.given = _given_options(parser, argv)
    return args


def _given_options(parser: argparse.ArgumentParser, argv) -> frozenset:
    """The option strings ``argv`` gives its command, whatever their
    values: ``argv`` parsed again with every default suppressed, so
    only the options it names reach the namespace.  Spends ``parser``.
    """
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    command = commands.choices[argv[0]]
    for action in command._actions:
        action.default = argparse.SUPPRESS
    given = vars(command.parse_args(argv[1:]))
    return frozenset(
        action.option_strings[0]
        for action in command._actions
        if action.option_strings and action.dest in given
    )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.run(args)
    except UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def batch_main(argv: Optional[List[str]] = None) -> int:
    """``repro batch ARGV``."""
    return main(["batch", *(sys.argv[1:] if argv is None else argv)])


def bench_main(argv: Optional[List[str]] = None) -> int:
    """``repro bench ARGV``."""
    return main(["bench", *(sys.argv[1:] if argv is None else argv)])


def _certify_one_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "client", nargs="?", help="path to the Jlite client source"
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


def _certify_one(args: argparse.Namespace) -> int:
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
        raise UsageError("no client source given")
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
        truth = explore(parse_program(source, spec))
        summary = truth.compare(report.alarm_sites())
        print(
            f"ground truth: {summary.real_errors} real error site(s); "
            f"{summary.false_alarms} false alarm(s); "
            f"{summary.missed_errors} missed"
            + (" [exploration truncated]" if truth.truncated else "")
        )

    return 0 if report.certified else 1


def _certify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "client", nargs="?", help="path to the Jlite client source"
    )
    parser.add_argument(
        "--suite",
        metavar="P1,P2,...",
        help="certify these benchmark-suite programs instead of a client",
    )
    parser.add_argument(
        "--all-suite",
        action="store_true",
        help="certify the full benchmark suite",
    )
    parser.add_argument(
        "--engines",
        metavar="E1,E2,...",
        help="comma-separated engines (default: every engine applicable "
        "to each program; 'auto' for a single client)",
    )
    parser.add_argument(
        "--emit-cert",
        metavar="PATH",
        help="write the (single) certificate to this path",
    )
    parser.add_argument(
        "--emit-cert-dir",
        metavar="DIR",
        help="write one <program>-<engine>.cert.json per certification",
    )
    parser.add_argument(
        "--incremental-from",
        metavar="CERT",
        help="seed the fixpoint from this parent certificate "
        "(incremental recertification; falls back to a full run when "
        "the parent is unusable)",
    )
    parser.add_argument(
        "--emit-delta",
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


def _certify(args: argparse.Namespace) -> int:
    """Certify clients and emit proof-carrying certificates.

    A certificate holds the post-fixpoint per-node abstract states and
    is re-checkable without re-running any fixpoint (repro check).
    """
    from repro.bench.harness import HEAP_ENGINES, SHALLOW_ENGINES
    from repro import envelope as _envelope
    from repro.cert import (
        CertificateChecker,
        CertificateError,
        ConformanceCertificate,
        check_delta,
        encode_delta,
        write_delta,
    )
    from repro.cert.model import sha256_text
    from repro.runtime.trace import CollectingTracer, use_tracer
    from repro.suite import all_programs

    spec = get_spec(args.spec)
    requested = _split(args.engines, "--engines", ENGINES, "engine")

    # (name, source, engines) work items
    items: List = []
    if args.all_suite or args.suite:
        if args.client:
            raise UsageError(
                "give either a client path or a suite selection, not both"
            )
        by_name = {p.name: p for p in all_programs()}
        chosen = _split(
            None if args.all_suite else args.suite,
            "--suite",
            sorted(by_name),
            "suite program",
            default=list(by_name),
        )
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
            raise UsageError("no client source given")
        with open(args.client) as handle:
            source = handle.read()
        name = args.client.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        engines = tuple(requested or ("auto",))
        items.append((name, source, engines))

    if args.emit_cert and (args.emit_cert_dir or len(items) != 1):
        raise UsageError(
            "--emit-cert takes exactly one certification; use "
            "--emit-cert-dir for suites"
        )
    parent = None
    if args.incremental_from:
        try:
            parent = ConformanceCertificate.load(args.incremental_from)
        except (OSError, json.JSONDecodeError, CertificateError) as error:
            raise UsageError(f"bad parent certificate: {error}") from None
    if args.emit_delta:
        if parent is None:
            raise UsageError("--emit-delta needs --incremental-from")
        if len(items) != 1 or len(items[0][2]) != 1:
            raise UsageError("--emit-delta takes exactly one certification")
    if args.emit_cert_dir:
        os.makedirs(args.emit_cert_dir, exist_ok=True)

    session = CertifySession(
        spec, options=CertifyOptions(emit_certificate=True)
    )
    checker = CertificateChecker() if args.check else None
    rejects = 0
    records: List[dict] = []
    for name, source, engines in items:
        for engine in engines:
            tracer = CollectingTracer()
            started = time.monotonic()
            with use_tracer(tracer):
                report = session.certify(
                    source, engine=engine, incremental_from=parent
                )
            seconds = time.monotonic() - started
            cert = report.certificate
            cert_path = None
            cert_hash = cert_bytes = None
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
                # encoded once: the files, the byte count and the
                # envelope's hash all come from this text
                text = cert.text()
                cert_hash = sha256_text(text)
                cert_bytes = len(text)
                if args.emit_cert:
                    cert_path = args.emit_cert
                elif args.emit_cert_dir:
                    cert_path = (
                        f"{args.emit_cert_dir}/{name}-{report.engine}"
                        ".cert.json"
                    )
                if cert_path is not None:
                    with open(cert_path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                line += f"  [{cert_bytes} cert bytes]"
                if args.emit_delta:
                    delta = encode_delta(parent, cert, child_hash=cert_hash)
                    delta_bytes = len(write_delta(delta, args.emit_delta))
                    line += (
                        f"  [{delta_bytes} delta bytes -> {args.emit_delta}]"
                    )
                if checker is not None:
                    result = checker.check(cert)
                    if not result.ok:
                        rejects += 1
                        line += f"  CHECK-{result.kind.upper()}"
                    elif args.emit_delta:
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
                        cert_hash=cert_hash,
                        cert_bytes=cert_bytes,
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


def _check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "certs", nargs="+", metavar="CERT", help="certificate files"
    )


def _check(args: argparse.Namespace) -> int:
    """Validate certificates in one linear pass.

    No fixpoint is re-run: the pass checks inductiveness of the
    annotation, coverage of every reachable node, and entailment of the
    claimed alarm set.
    """
    from repro import envelope as _envelope
    from repro.cert import (
        CertificateChecker,
        CertificateError,
        ConformanceCertificate,
    )
    from repro.cert.check import CheckResult

    checker = CertificateChecker()
    records = []
    accepted = rejected = 0
    for path in args.certs:
        cert = None
        started = time.monotonic()
        try:
            cert = ConformanceCertificate.load(path)
            result = checker.check(cert)
        except (OSError, json.JSONDecodeError, CertificateError) as error:
            result = CheckResult(
                ok=False, kind="malformed", detail=str(error)
            )
        seconds = time.monotonic() - started
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
    _write_json(
        {"accepted": accepted, "rejected": rejected, "certificates": records},
        args.json,
    )
    if not args.quiet:
        print(f"{accepted} accepted, {rejected} rejected")
    return 0 if rejected == 0 else 1


def _fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed-range",
        default="0:100",
        metavar="A:B",
        help="half-open seed interval to fuzz (default 0:100)",
    )
    parser.add_argument(
        "--engines",
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


def _fuzz(args: argparse.Namespace) -> int:
    """Fuzz the engines against the exhaustive interpreter.

    Seeded random Jlite clients get their ground truth from the
    interpreter and are certified with every requested engine; any
    soundness violation (an engine missing a concretely-witnessed
    error) fails the run.  The generator emits Set/Iterator clients
    shaped for CMP; other specs mostly exercise the not-applicable
    paths.
    """
    from repro.fuzz import (
        DEFAULT_FUZZ_ENGINES,
        CertGate,
        FuzzConfig,
        Oracle,
        run_campaign,
        run_case,
        shrink_source,
        write_corpus_entry,
    )
    from repro.fuzz.shrink import corpus_entry_name
    from repro.runtime.interp import ExplorationBudget

    seeds = _seed_range(args.seed_range)
    engines = tuple(
        _split(
            args.engines,
            "--engines",
            [e for e in ENGINES if e != "auto"],
            "engine",
            default=DEFAULT_FUZZ_ENGINES,
        )
    )
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


def _bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engines",
        metavar="E1,E2,...",
        help="comma-separated engine subset for the precision table",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
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
    mode.add_argument(
        "--scale",
        action="store_true",
        help="run the scale harness: certify/check wall time and peak "
        "RSS vs program size over the synthetic scale families, plus "
        "the cold-vs-warm summary-DB protocol on shared-library",
    )
    parser.add_argument(
        "--scale-sizes",
        metavar="N1,N2,...",
        help="target statement counts for --scale (default: "
        "1000,2000,4000)",
    )
    parser.add_argument(
        "--families",
        metavar="F1,F2,...",
        help="scale families for --scale (default: all; see "
        "repro.bench.synthetic.SCALE_FAMILIES)",
    )
    parser.add_argument(
        "--scale-engines",
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
        metavar="P1,P2,...",
        help="comma-separated suite-program subset",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
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
        "--force",
        action="store_true",
        help="allow --json to overwrite an existing file",
    )


#: the flags only the precision table, --incremental or --scale reads
_TABLE_FLAGS = (
    "--engines", "--programs", "--deadline", "--max-steps",
    "--max-structures", "--ladder",
)
_INCREMENTAL_FLAGS = (
    "--seeds", "--edits", "--edit-seed", "--distances", "--reps",
    "--min-speedup",
)
_SCALE_FLAGS = (
    "--scale-sizes", "--families", "--scale-engines", "--scale-seed",
    "--superlinear-factor", "--warm-cold-target", "--no-warm-cold",
    "--min-warm-speedup",
)


def _bench(args: argparse.Namespace) -> int:
    """Benchmark the suite: precision table, --incremental or --scale.

    The precision table is the default; --incremental runs the
    incremental-recertification bench and --scale the scale harness,
    with machine-readable --json output and CI gating (--check).  'repro
    bench serve' load-generates against the certification service.
    """
    from repro.bench.scale import (
        DEFAULT_ENGINES,
        DEFAULT_FAMILIES,
        DEFAULT_SIZES,
        host_meta,
        run_scale,
    )

    def given(flags):
        return [(flag, flag in args.given or None) for flag in flags]

    if args.scale or args.incremental:
        _reject_unhonoured(
            "--scale" if args.scale else "--incremental",
            [("--spec", args.scale and args.spec != DEFAULT_SPEC or None)]
            + given(_TABLE_FLAGS)
            + given(_SCALE_FLAGS if args.incremental else _INCREMENTAL_FLAGS),
            "only the precision table reads --engines, --programs and the "
            "governor flags, --scale certifies CMP clients only (its "
            "engines are --scale-engines), and each of --scale and "
            "--incremental reads only its own flags",
        )
    else:
        _reject_unhonoured(
            "the precision table",
            given(_INCREMENTAL_FLAGS + _SCALE_FLAGS),
            "those flags configure --incremental or --scale",
        )
    if (
        args.json not in (None, "-")
        and os.path.exists(args.json)
        and not args.force
    ):
        raise UsageError(f"{args.json} exists; pass --force to overwrite")

    spec = get_spec(args.spec)
    if args.scale:
        from repro.bench.synthetic import SCALE_FAMILIES

        progress = None if args.quiet else (
            lambda line: print(f"  {line}", file=sys.stderr)
        )
        report = run_scale(
            families=_split(
                args.families,
                "--families",
                sorted(SCALE_FAMILIES),
                "scale family",
                default=DEFAULT_FAMILIES,
            ),
            sizes=_split(
                args.scale_sizes, "--scale-sizes", default=DEFAULT_SIZES
            ),
            engines=_split(
                args.scale_engines,
                "--scale-engines",
                ENGINES,
                "engine",
                default=DEFAULT_ENGINES,
            ),
            seed=args.scale_seed,
            warm_cold=not args.no_warm_cold,
            warm_cold_target=args.warm_cold_target,
            superlinear_factor=args.superlinear_factor,
            progress=progress,
        )
        payload = report.to_json()
        ok = report.ok(args.min_warm_speedup)
        if not args.quiet:
            print(report.format())
    elif args.incremental:
        from repro.bench.incremental import run_incremental_bench

        result = run_incremental_bench(
            spec=spec,
            seeds=args.seeds,
            edits=args.edits,
            edit_seed=args.edit_seed,
            distances=_split(args.distances, "--distances", default=[]),
            reps=args.reps,
        )
        payload = result.to_json()
        ok = result.ok(args.min_speedup or 0.0)
        if not args.quiet:
            print(result.format(args.min_speedup or 0.0))
    else:
        from repro.bench import results_to_json, run_precision_table
        from repro.bench.harness import format_table
        from repro.suite import all_programs

        by_name = {p.name: p for p in all_programs()}
        wanted = _split(
            args.programs, "--programs", sorted(by_name), "suite program"
        )
        results = run_precision_table(
            spec=spec,
            engines=_split(args.engines, "--engines", ENGINES, "engine"),
            programs=wanted and [by_name[n] for n in sorted(set(wanted))],
            options=_governor_options(args),
        )
        payload = results_to_json(results)
        ok = all(
            run.sound
            for result in results
            for run in result.runs.values()
        )
        if not args.quiet:
            print(format_table(results))

    # every committed BENCH_*.json row set carries the same host
    # provenance (cpu count, python version), whichever bench mode
    # produced it
    payload.setdefault("meta", host_meta())
    _write_json(payload, args.json)
    if args.check and not ok:
        print("bench check FAILED", file=sys.stderr)
        return 1
    return 0


def _bench_serve_arguments(parser: argparse.ArgumentParser) -> None:
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
        "--min-speedup",
        type=float,
        default=5.0,
        metavar="X",
        help="with --check, fail unless hit-check p50 beats cold-certify "
        "p50 by at least this factor; the 5x default fails about 1 run "
        "in 3 on a 2-CPU host, where CI uses --min-speedup 2",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate for CI: fail unless verdicts are identical on hits, "
        "hits skip the fixpoint, the speedup floor holds, and the "
        "backpressure probe drops no accepted work",
    )


def _bench_serve(args: argparse.Namespace) -> int:
    """Load-generate against an in-process certification service.

    The phases: cold (distinct clients, all store misses), hot
    concurrent (repeats, all store hits answered by the linear-pass
    checker), near-hit (one edit per client, incremental path) and a
    queue-overflow backpressure probe.  Reports p50/p99 latency,
    throughput, hit rate and the check-on-hit vs certify-on-miss
    speedup.
    """
    from repro.bench.scale import host_meta
    from repro.serve.loadgen import (
        ServeBenchConfig,
        format_serve_bench,
        run_serve_bench,
        serve_bench_ok,
    )

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


def _batch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("manifest", help="path to the JSON job manifest")
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
        metavar="SECONDS",
        help="default per-job wall-clock budget for jobs without one",
    )
    parser.add_argument(
        "--fallback",
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
        metavar="PATH",
        help="write per-phase trace events as JSONL",
    )
    parser.add_argument(
        "--emit-certs",
        metavar="DIR",
        help="emit a proof-carrying certificate per job into DIR "
        "(<job>.cert.json; path recorded in the job's JSON record)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="journal every finished job (fsynced JSONL) under DIR so a "
        "killed run can be resumed",
    )
    parser.add_argument(
        "--run-id",
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


def _batch(args: argparse.Namespace) -> int:
    """Run a manifest of certification jobs on a process pool.

    Jobs are (client, spec, engine) triples, run with per-job timeouts,
    engine fallback and per-phase JSONL tracing.
    """
    from repro.runtime.batch import BatchRunner, ManifestError, load_manifest

    if args.resume and not args.checkpoint_dir:
        raise UsageError("--resume requires --checkpoint-dir")
    try:
        jobs = load_manifest(args.manifest)
    except (OSError, json.JSONDecodeError, ManifestError) as error:
        raise UsageError(f"bad manifest: {error}") from None
    result = BatchRunner(
        jobs,
        max_workers=args.jobs,
        default_timeout=args.timeout,
        default_fallback=args.fallback,
        max_retries=args.retries,
        default_deadline=args.deadline,
        default_max_steps=args.governor_steps,
        default_max_structures=args.max_structures,
        default_ladder=True if args.ladder else None,
        emit_certs_dir=args.emit_certs,
        checkpoint_dir=args.checkpoint_dir,
        run_id=args.run_id,
        resume=args.resume,
    ).run()
    if args.trace:
        result.write_trace(args.trace)
    _write_json(result.to_json(), args.json)
    if not args.quiet:
        print(result.format_summary())
        if args.trace:
            print(f"trace: {args.trace}")
    return 0 if result.ok else 1


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8091,
        help="bind port (0 picks an ephemeral one)",
    )
    parser.add_argument(
        "--specs",
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
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="queued requests beyond which new ones get 429",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="persist the certificate store under DIR (default: in-memory)",
    )
    parser.add_argument(
        "--tenants",
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
        metavar="SECONDS",
        help="per-request wall-clock bound for process workers; a "
        "worker exceeding it is killed and the request retried once "
        "(default: no bound)",
    )
    parser.add_argument(
        "--summary-db",
        metavar="DIR",
        help="persistent interprocedural summary store: certify-on-miss "
        "loads procedure summaries by (spec, body, context) hash and "
        "persists newly computed ones under DIR",
    )
    parser.add_argument(
        "--quota-steps",
        type=int,
        metavar="N",
        help="cumulative fixpoint-step quota per tenant without a "
        "--tenants entry (429 once spent)",
    )


def _serve(args: argparse.Namespace) -> int:
    """Run the HTTP/JSON certification service.

    Warm analysis sessions per spec, a bounded request queue with 429
    backpressure, per-tenant resource budgets, and a content-addressed
    certificate store (hit = linear check, miss = certify + store) on
    POST /certify, POST /check, GET /certificates/<hash>, /healthz and
    /stats.  The governor flags are the budget of tenants without a
    --tenants entry.
    """
    import asyncio

    from repro.serve import ServeConfig, ServeDaemon, TenantBudget

    specs = tuple(
        _split(
            args.specs and args.specs.lower(),
            "--specs",
            available_specs(),
            "spec",
            default=(),
        )
    )
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
            raise UsageError(f"bad --tenants file: {error}") from None
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
            max_steps=args.governor_steps,
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


def _store_arguments(parser: argparse.ArgumentParser) -> None:
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
        metavar="N",
        help="evict oldest objects until total object bytes <= N",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        metavar="N",
        help="evict oldest objects until the object count <= N",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the gc summary as JSON instead of text",
    )


def _store(args: argparse.Namespace) -> int:
    """Maintain an on-disk certificate or summary store.

    'gc' evicts least-recently-used objects until the store fits the
    given limits and prunes index entries left dangling by evictions.
    """
    from repro.store import CertificateStore, SummaryStore

    if not os.path.isdir(args.store):
        raise UsageError(f"{args.store!r} is not a directory")
    if args.max_bytes is None and args.max_entries is None:
        raise UsageError("gc needs --max-bytes and/or --max-entries")
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


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
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
        "and batch; 'summarydb' attacks the persistent summary "
        "database and runs only when named)",
    )
    parser.add_argument(
        "--workdir",
        metavar="DIR",
        help="scratch directory (default: a fresh temp dir)",
    )


def _chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault-injection campaign.

    The campaign attacks the stateful layers: torn/ENOSPC/EIO store
    writes with crash recovery, SIGKILLed serve workers with supervised
    retry, and SIGKILLed batch runs with checkpoint/resume.  It exits 1
    the moment any schedule violates an invariant (a certificate
    failing the linear checker, or a verdict differing from a
    fault-free run).  --quiet keeps the final summary.
    """
    from repro.testing.chaos import SCENARIOS, run_campaign

    layers = _split(args.layers.lower(), "--layers", SCENARIOS, "layer")
    report = run_campaign(
        args.schedules,
        seed=args.seed,
        layers=tuple(layers or ()),
        workdir=args.workdir,
        progress=None if args.quiet else lambda line: print(line, flush=True),
    )
    _write_json(report.to_json(), args.json)
    print(report.format_summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
