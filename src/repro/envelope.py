"""The unified JSON result envelope.

Every surface that reports a certification or check outcome as JSON —
``repro certify --json``, ``repro check --json``, the batch runtime's
per-job records, and the HTTP responses of :mod:`repro.serve` — builds
the same five-section shape from the helpers here instead of hand-rolling
its own dict:

::

    {
      "verdict":     {subject, engine, status, certified, partial, ...},
      "alarms":      [ {site_id, line, op_key, instance, ...}, ... ],
      "certificate": {hash, bytes, path, cached, ...} | null,
      "governor":    {breach, salvaged, unknown_sites, degraded_to} | null,
      "timings":     {seconds, phases: {parse: ..., fixpoint: ..., ...}}
    }

Sections are plain JSON-safe dicts; serialize them with ``sort_keys``.
``verdict.status`` is ``"ok"`` for a completed run, ``"breached"`` for a
governor-salvaged one, or an error kind; checker results use the
:class:`~repro.cert.check.CheckResult` kind (``"accepted"`` /
reject kinds).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.cert import model

#: the envelope's (sorted) top-level keys
ENVELOPE_KEYS = ("alarms", "certificate", "governor", "timings", "verdict")


def make_envelope(
    *,
    verdict: Dict[str, object],
    alarms: Iterable[Mapping[str, object]] = (),
    certificate: Optional[Dict[str, object]] = None,
    governor: Optional[Dict[str, object]] = None,
    timings: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the five envelope sections (insertion order is sorted
    key order, so ``json.dumps(..., sort_keys=True)`` is a no-op
    reordering)."""
    return {
        "alarms": list(alarms),
        "certificate": certificate,
        "governor": governor,
        "timings": timings if timings is not None else timings_section(),
        "verdict": verdict,
    }


# -- sections ---------------------------------------------------------------


def verdict_section(
    *,
    subject: str,
    engine: str,
    certified: Optional[bool],
    status: str = "ok",
    partial: bool = False,
    **extra: object,
) -> Dict[str, object]:
    verdict: Dict[str, object] = {
        "subject": subject,
        "engine": engine,
        "status": status,
        "certified": certified,
        "partial": bool(partial),
    }
    verdict.update(extra)
    return verdict


def governor_section(
    *,
    breach: Optional[str] = None,
    salvaged: Optional[int] = None,
    unknown_sites: Optional[int] = None,
    degraded_to: Optional[str] = None,
    **extra: object,
) -> Optional[Dict[str, object]]:
    """``None`` when no budget tripped — the envelope's ``governor``
    slot only materializes for governed runs that breached."""
    if (
        breach is None
        and salvaged is None
        and unknown_sites is None
        and degraded_to is None
        and not extra
    ):
        return None
    section: Dict[str, object] = {
        "breach": breach,
        "salvaged": salvaged,
        "unknown_sites": unknown_sites,
        "degraded_to": degraded_to,
    }
    section.update(extra)
    return section


def phase_totals(events: Iterable[object]) -> Dict[str, float]:
    """Seconds per trace phase, summed (events are
    :class:`repro.runtime.trace.TraceEvent`)."""
    totals: Dict[str, float] = {}
    for event in events:
        phase = getattr(event, "phase", None)
        if phase is None:
            continue
        totals[phase] = totals.get(phase, 0.0) + float(
            getattr(event, "seconds", 0.0)
        )
    return totals


def timings_section(
    *,
    seconds: Optional[float] = None,
    phases: Optional[Mapping[str, float]] = None,
    events: Optional[Iterable[object]] = None,
) -> Dict[str, object]:
    if phases is None and events is not None:
        phases = phase_totals(events)
    return {
        "seconds": round(seconds, 6) if seconds is not None else None,
        "phases": {
            name: round(value, 6) for name, value in sorted((phases or {}).items())
        },
    }


def certificate_section(
    certificate=None,
    *,
    path: Optional[str] = None,
    cached: Optional[bool] = None,
    cert_hash: Optional[str] = None,
    cert_bytes: Optional[int] = None,
    **extra: object,
) -> Optional[Dict[str, object]]:
    """Describe an emitted/stored certificate (never embeds the full
    payload — responses point at it by content hash and/or path).

    ``cert_hash``/``cert_bytes`` let callers that already know the
    content address (e.g. a store hit) skip re-serializing the payload.
    """
    if certificate is None and path is None and not extra:
        return None
    section: Dict[str, object] = {}
    if certificate is not None:
        if cert_hash is None or cert_bytes is None:
            text = certificate.text()
            cert_hash = model.sha256_text(text)
            cert_bytes = len(text)
        section["hash"] = cert_hash
        section["bytes"] = cert_bytes
        section["engine"] = certificate.engine
        section["partial"] = certificate.partial
    section["path"] = path
    if cached is not None:
        section["cached"] = bool(cached)
    section.update(extra)
    return section


# -- convenience builders ---------------------------------------------------

#: report.stats keys that feed the governor section
_GOVERNOR_STATS = ("breach", "salvaged", "degraded_to")


def report_envelope(
    report,
    *,
    status: Optional[str] = None,
    seconds: Optional[float] = None,
    events: Optional[Iterable[object]] = None,
    certificate_path: Optional[str] = None,
    cached: Optional[bool] = None,
    cert_hash: Optional[str] = None,
    cert_bytes: Optional[int] = None,
) -> Dict[str, object]:
    """The envelope for a live :class:`~repro.certifier.report.CertificationReport`.

    ``cert_hash``/``cert_bytes`` pass through to
    :func:`certificate_section`: a caller that already serialized the
    certificate (a store put, a file write) hands them over instead of
    having it encoded a second time.
    """
    stats = report.stats or {}
    partial = bool(stats.get("partial")) or stats.get("breach") is not None
    return make_envelope(
        verdict=verdict_section(
            subject=report.subject,
            engine=report.engine,
            certified=report.certified,
            status=status or ("breached" if stats.get("breach") else "ok"),
            partial=partial,
        ),
        alarms=model.alarms_to_json(report.alarms),
        certificate=certificate_section(
            report.certificate,
            path=certificate_path,
            cached=cached,
            cert_hash=cert_hash,
            cert_bytes=cert_bytes,
        ),
        governor=governor_section(
            breach=stats.get("breach"),
            salvaged=stats.get("salvaged"),
            unknown_sites=stats.get("sites_unresolved"),
            degraded_to=stats.get("degraded_to"),
        ),
        timings=timings_section(seconds=seconds, events=events),
    )


def check_envelope(
    result,
    *,
    certificate=None,
    path: Optional[str] = None,
    cached: Optional[bool] = None,
    seconds: Optional[float] = None,
    events: Optional[Iterable[object]] = None,
    cert_hash: Optional[str] = None,
    cert_bytes: Optional[int] = None,
) -> Dict[str, object]:
    """The envelope for a :class:`~repro.cert.check.CheckResult`.

    When the checked certificate is at hand its *claimed* verdict and
    alarm set fill the verdict/alarm sections (on accept the checker
    proved exactly those claims; on reject they are reported alongside
    the reject kind, which callers must treat as authoritative).
    """
    claimed = (
        certificate.payload.get("verdict", {}) if certificate is not None else {}
    )
    certified = claimed.get("certified")
    return make_envelope(
        verdict=verdict_section(
            subject=result.subject
            or (certificate.subject if certificate is not None else "?"),
            engine=result.engine
            or (certificate.engine if certificate is not None else "?"),
            certified=bool(certified) if certified is not None else None,
            status=result.kind,
            partial=bool(claimed.get("partial")),
            ok=result.ok,
            detail=result.detail or None,
            edge=list(result.edge) if result.edge else None,
            nodes=result.nodes,
            edges=result.edges,
        ),
        alarms=list(claimed.get("alarms") or ()),
        certificate=certificate_section(
            certificate,
            path=path,
            cached=cached,
            cert_hash=cert_hash,
            cert_bytes=cert_bytes,
        ),
        governor=None,
        timings=timings_section(seconds=seconds, events=events),
    )


def error_envelope(
    *,
    subject: str,
    engine: str,
    status: str,
    detail: str,
    governor: Optional[Dict[str, object]] = None,
    alarms: Iterable[Mapping[str, object]] = (),
    seconds: Optional[float] = None,
) -> Dict[str, object]:
    """The envelope for a run that produced no report (worker error,
    unhandled breach, malformed request)."""
    return make_envelope(
        verdict=verdict_section(
            subject=subject,
            engine=engine,
            certified=None,
            status=status,
            partial=governor is not None,
            detail=detail,
        ),
        alarms=alarms,
        governor=governor,
        timings=timings_section(seconds=seconds),
    )
