"""Scale harness: certify/check wall time and peak RSS vs program size.

The synthetic scale families (:data:`repro.bench.synthetic.SCALE_FAMILIES`)
emit parse-clean Jlite clients from a few hundred statements up to the
10**6 range with deterministic seeds.  For every requested
(family, size, engine) cell this harness measures, **in a forked child
process** so peak-RSS readings do not pollute each other:

* generation and parse wall time,
* certify wall time (with certificate emission on),
* independent-checker wall time over the emitted certificate,
* peak RSS (``ru_maxrss``) of the child,
* the alarm count and a digest of the certificate bytes.

Engines that reject a family (the interprocedural engine refuses
non-shallow clients such as ``heap-chain``) produce ``incompatible``
rows rather than failures: the family still demonstrates parse-clean
generation at scale.

Two derived checks ride on the rows:

* :func:`warm_cold_protocol` runs the ``shared-library`` family twice
  against one summary DB — a cold run that populates it and a warm run
  that loads summaries back — and compares certificate digests and
  alarm sets byte-for-byte while reporting the speedup.  This is the
  merge-blocking CI gate.
* :func:`find_superlinear` flags adjacent-size pairs whose time ratio
  exceeds ``factor`` times the size ratio — the nightly scale-curve
  alarm for accidental quadratic blowups.

Every emitted JSON document carries the uniform host metadata
(:func:`host_meta`): ``host_cpus`` and ``python_version``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.synthetic import SCALE_FAMILIES, count_statements

#: sizes used when the caller does not pass any (kept modest so the
#: default ``repro bench --scale`` finishes in minutes; the nightly
#: curve job passes larger ceilings explicitly)
DEFAULT_SIZES = (1000, 2000, 4000)
DEFAULT_FAMILIES = tuple(sorted(SCALE_FAMILIES))
DEFAULT_ENGINES = ("interproc",)


def host_meta() -> Dict[str, object]:
    """Uniform per-document host metadata for committed BENCH files."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-linux fallback
        cpus = os.cpu_count() or 1
    return {
        "host_cpus": cpus,
        "python_version": platform.python_version(),
    }


@dataclass
class ScaleRow:
    """One (family, size, engine) measurement."""

    family: str
    engine: str
    target: int
    statements: int
    seed: int
    status: str = "ok"  # ok | incompatible | error
    gen_seconds: float = 0.0
    parse_seconds: float = 0.0
    certify_seconds: float = 0.0
    check_seconds: float = 0.0
    peak_rss_kb: int = 0
    alarms: int = -1
    contexts: int = 0
    cert_sha256: str = ""
    error: str = ""

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "engine": self.engine,
            "target": self.target,
            "statements": self.statements,
            "seed": self.seed,
            "status": self.status,
            "gen_seconds": round(self.gen_seconds, 6),
            "parse_seconds": round(self.parse_seconds, 6),
            "certify_seconds": round(self.certify_seconds, 6),
            "check_seconds": round(self.check_seconds, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "alarms": self.alarms,
            "contexts": self.contexts,
            "cert_sha256": self.cert_sha256,
            "error": self.error,
        }


def _cert_digest(certificate) -> str:
    from repro.cert.model import canonical_text

    return hashlib.sha256(
        canonical_text(certificate.payload).encode("utf-8")
    ).hexdigest()


def _measure_once(
    family: str,
    target: int,
    seed: int,
    engine: str,
    summary_db: Optional[str],
) -> Dict[str, object]:
    """The in-child measurement body.  Returns a plain-JSON dict."""
    from repro.api import CertifyOptions, CertifySession
    from repro.cert.check import CertificateChecker
    from repro.certifier.transform import TransformError
    from repro.easl.library import cmp_spec
    from repro.lang.types import parse_program

    out: Dict[str, object] = {"status": "ok", "error": ""}
    t0 = time.perf_counter()
    source = SCALE_FAMILIES[family](target, seed=seed)
    out["gen_seconds"] = time.perf_counter() - t0
    out["statements"] = count_statements(source)

    spec = cmp_spec()
    t0 = time.perf_counter()
    parse_program(source, spec)
    out["parse_seconds"] = time.perf_counter() - t0

    session = CertifySession(
        spec,
        engine=engine,
        options=CertifyOptions(
            emit_certificate=True, summary_db=summary_db
        ),
    )
    try:
        t0 = time.perf_counter()
        result = session.certify(source)
        out["certify_seconds"] = time.perf_counter() - t0
    except TransformError as exc:
        out["status"] = "incompatible"
        out["error"] = str(exc)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        out["status"] = "error"
        out["error"] = f"{type(exc).__name__}: {exc}"
    else:
        out["alarms"] = len(result.alarms)
        out["alarm_lines"] = sorted(
            {alarm.line for alarm in result.alarms}
        )
        out["contexts"] = int(result.stats.get("contexts", 0) or 0)
        out["summaries_loaded"] = int(
            result.stats.get("summaries_loaded", 0) or 0
        )
        if result.certificate is not None:
            out["cert_sha256"] = _cert_digest(result.certificate)
            checker = CertificateChecker()
            t0 = time.perf_counter()
            verdict = checker.check(result.certificate)
            out["check_seconds"] = time.perf_counter() - t0
            if not verdict.ok:
                out["status"] = "error"
                out["error"] = f"checker rejected: {verdict.kind}"
    out["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    return out


def _in_forked_child(task: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    """Run ``task`` in a forked child so its peak RSS is isolated.

    Falls back to in-process execution where ``fork`` is unavailable
    (the RSS reading then reflects the whole process, which the caller
    tolerates)."""
    if not hasattr(os, "fork"):  # pragma: no cover - non-posix fallback
        return task()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 1
        try:
            try:
                result = task()
            except BaseException as exc:  # noqa: BLE001 - reported, not raised
                result = {
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            payload = json.dumps(result).encode("utf-8")
            with os.fdopen(write_fd, "wb") as sink:
                sink.write(payload)
            code = 0
        except BaseException:  # noqa: BLE001 - child must never unwind
            pass
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        raw = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    if not raw:
        return {
            "status": "error",
            "error": f"measurement child died (wait status {wait_status})",
        }
    return json.loads(raw.decode("utf-8"))


def measure_cell(
    family: str,
    target: int,
    engine: str,
    *,
    seed: int = 1,
    summary_db: Optional[str] = None,
    isolate: bool = True,
) -> ScaleRow:
    """Measure one (family, size, engine) cell, forked by default."""
    task = lambda: _measure_once(family, target, seed, engine, summary_db)
    data = _in_forked_child(task) if isolate else task()
    return ScaleRow(
        family=family,
        engine=engine,
        target=target,
        statements=int(data.get("statements", 0) or 0),
        seed=seed,
        status=str(data.get("status", "error")),
        gen_seconds=float(data.get("gen_seconds", 0.0) or 0.0),
        parse_seconds=float(data.get("parse_seconds", 0.0) or 0.0),
        certify_seconds=float(data.get("certify_seconds", 0.0) or 0.0),
        check_seconds=float(data.get("check_seconds", 0.0) or 0.0),
        peak_rss_kb=int(data.get("peak_rss_kb", 0) or 0),
        alarms=int(data.get("alarms", -1)),
        contexts=int(data.get("contexts", 0) or 0),
        cert_sha256=str(data.get("cert_sha256", "")),
        error=str(data.get("error", "")),
    )


@dataclass
class WarmColdReport:
    """Cold-vs-warm summary-DB protocol on one family/size."""

    family: str
    target: int
    statements: int
    cold_seconds: float
    warm_seconds: float
    certificates_identical: bool
    alarms_equal: bool
    summaries_loaded: int = 0

    @property
    def speedup(self) -> float:
        if self.warm_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "target": self.target,
            "statements": self.statements,
            "cold_seconds": round(self.cold_seconds, 6),
            "warm_seconds": round(self.warm_seconds, 6),
            "speedup": round(self.speedup, 3),
            "certificates_identical": self.certificates_identical,
            "alarms_equal": self.alarms_equal,
            "summaries_loaded": self.summaries_loaded,
        }


def warm_cold_protocol(
    *,
    family: str = "shared-library",
    target: int = 4000,
    seed: int = 1,
    engine: str = "interproc",
    summary_db: Optional[str] = None,
) -> WarmColdReport:
    """Cold run populates the summary DB; warm run must load it back,
    reproduce byte-identical certificates and alarms, and be faster.

    The two runs are forked children sharing only the DB directory, so
    the warm run pays its own parse/derivation and the speedup isolates
    what the summary DB buys."""
    own_dir = summary_db is None
    db_dir = summary_db or tempfile.mkdtemp(prefix="repro-summary-")
    try:
        cold = _in_forked_child(
            lambda: _measure_once(family, target, seed, engine, db_dir)
        )
        warm = _in_forked_child(
            lambda: _measure_once(family, target, seed, engine, db_dir)
        )
    finally:
        if own_dir:
            import shutil

            shutil.rmtree(db_dir, ignore_errors=True)
    for side, name in ((cold, "cold"), (warm, "warm")):
        if side.get("status") != "ok":
            raise RuntimeError(
                f"{name} run failed: {side.get('error', 'unknown')}"
            )
    return WarmColdReport(
        family=family,
        target=target,
        statements=int(cold.get("statements", 0) or 0),
        cold_seconds=float(cold.get("certify_seconds", 0.0)),
        warm_seconds=float(warm.get("certify_seconds", 0.0)),
        certificates_identical=(
            bool(cold.get("cert_sha256"))
            and cold.get("cert_sha256") == warm.get("cert_sha256")
        ),
        alarms_equal=cold.get("alarm_lines") == warm.get("alarm_lines"),
        summaries_loaded=int(warm.get("summaries_loaded", 0) or 0),
    )


def find_superlinear(
    rows: Sequence[ScaleRow], *, factor: float = 3.0
) -> List[dict]:
    """Adjacent-size pairs where certify time grows more than ``factor``
    times faster than program size (per family/engine, ok rows only).

    Pairs under 0.2s total are skipped — at that scale timer noise and
    interpreter warmup dominate and the ratio is meaningless."""
    violations: List[dict] = []
    series: Dict[tuple, List[ScaleRow]] = {}
    for row in rows:
        if row.status != "ok" or row.certify_seconds <= 0:
            continue
        series.setdefault((row.family, row.engine), []).append(row)
    for (family, engine), cells in sorted(series.items()):
        cells.sort(key=lambda r: r.statements)
        for prev, cur in zip(cells, cells[1:]):
            if prev.statements <= 0 or prev.certify_seconds <= 0:
                continue
            if prev.certify_seconds + cur.certify_seconds < 0.2:
                continue
            size_ratio = cur.statements / prev.statements
            time_ratio = cur.certify_seconds / prev.certify_seconds
            if time_ratio > factor * size_ratio:
                violations.append(
                    {
                        "family": family,
                        "engine": engine,
                        "from_statements": prev.statements,
                        "to_statements": cur.statements,
                        "size_ratio": round(size_ratio, 3),
                        "time_ratio": round(time_ratio, 3),
                        "factor": factor,
                    }
                )
    return violations


@dataclass
class ScaleReport:
    rows: List[ScaleRow] = field(default_factory=list)
    warm_cold: Optional[WarmColdReport] = None
    superlinear_factor: float = 3.0

    def to_json(self) -> dict:
        return {
            "kind": "scale",
            "meta": host_meta(),
            "families": sorted({r.family for r in self.rows}),
            "rows": [r.to_json() for r in self.rows],
            "warm_cold": (
                self.warm_cold.to_json() if self.warm_cold else None
            ),
            "superlinear": find_superlinear(
                self.rows, factor=self.superlinear_factor
            ),
            "superlinear_factor": self.superlinear_factor,
        }

    def ok(self, min_warm_speedup: Optional[float] = None) -> bool:
        """The CI gate: no hard errors, no superlinear blowup, and when
        the warm/cold protocol ran its certificates are byte-identical
        with alarm parity (plus the speedup floor, which fails when the
        protocol did not run)."""
        if any(r.status == "error" for r in self.rows):
            return False
        if find_superlinear(self.rows, factor=self.superlinear_factor):
            return False
        w = self.warm_cold
        if w is None:
            return min_warm_speedup is None
        return (
            w.certificates_identical
            and w.alarms_equal
            and (min_warm_speedup is None or w.speedup >= min_warm_speedup)
        )

    def format(self) -> str:
        lines = [
            f"{'family':16s} {'engine':10s} {'stmts':>8s} {'certify':>9s}"
            f" {'check':>8s} {'rss':>9s} {'alarms':>7s} {'status':>12s}",
        ]
        lines.append("-" * len(lines[0]))
        for r in self.rows:
            lines.append(
                f"{r.family:16s} {r.engine:10s} {r.statements:8d} "
                f"{r.certify_seconds:8.2f}s {r.check_seconds:7.2f}s "
                f"{r.peak_rss_kb / 1024:8.1f}M "
                f"{(r.alarms if r.alarms >= 0 else '-'):>7} "
                f"{r.status:>12s}"
            )
        if self.warm_cold:
            w = self.warm_cold
            lines.append(
                f"warm/cold {w.family}@{w.statements}: "
                f"cold {w.cold_seconds:.2f}s warm {w.warm_seconds:.2f}s "
                f"(x{w.speedup:.2f}) certs_identical="
                f"{w.certificates_identical} alarms_equal={w.alarms_equal}"
            )
        blowups = find_superlinear(
            self.rows, factor=self.superlinear_factor
        )
        if blowups:
            for v in blowups:
                lines.append(
                    f"SUPERLINEAR {v['family']}/{v['engine']}: "
                    f"{v['from_statements']}->{v['to_statements']} stmts, "
                    f"time x{v['time_ratio']} vs size x{v['size_ratio']}"
                )
        else:
            lines.append(
                f"no superlinear blowup (factor {self.superlinear_factor})"
            )
        return "\n".join(lines)


def run_scale(
    *,
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    engines: Sequence[str] = DEFAULT_ENGINES,
    seed: int = 1,
    warm_cold: bool = True,
    warm_cold_target: Optional[int] = None,
    superlinear_factor: float = 3.0,
    progress: Optional[Callable[[str], None]] = None,
) -> ScaleReport:
    """Sweep the grid and attach the warm/cold summary-DB protocol."""
    report = ScaleReport(superlinear_factor=superlinear_factor)
    for family in families:
        if family not in SCALE_FAMILIES:
            raise ValueError(
                f"unknown scale family {family!r}; "
                f"pick from {sorted(SCALE_FAMILIES)}"
            )
        for target in sizes:
            for engine in engines:
                row = measure_cell(
                    family, target, engine, seed=seed
                )
                report.rows.append(row)
                if progress is not None:
                    progress(
                        f"{family}/{engine}@{row.statements}: "
                        f"{row.status} certify={row.certify_seconds:.2f}s"
                    )
    if warm_cold and "shared-library" in families:
        target = warm_cold_target or max(sizes)
        report.warm_cold = warm_cold_protocol(
            target=target, seed=seed
        )
        if progress is not None:
            w = report.warm_cold
            progress(
                f"warm/cold shared-library@{w.statements}: x{w.speedup:.2f}"
            )
    return report
