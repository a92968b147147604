"""Reproduction of *Deriving Specialized Program Analyses for Certifying
Component-Client Conformance* (Ramalingam, Warshavsky, Field, Goyal, Sagiv —
PLDI 2002).

The package implements the paper's staged certification pipeline:

1. :mod:`repro.easl` — the Easl specification language in which a component
   author describes component behaviour and ``requires`` constraints.
2. :mod:`repro.derivation` — certifier-generation time: a symbolic backward
   weakest-precondition fixpoint that derives instrumentation predicate
   families and per-method update formulae from an Easl specification.
3. :mod:`repro.certifier` — the derived abstraction combined with analysis
   engines: a precise polynomial FDS solver for SCMP clients, a relational
   solver, and a context-sensitive interprocedural solver (Section 8).
4. :mod:`repro.tvp` / :mod:`repro.tvla` — first-order predicate abstraction
   for unrestricted (heap-using) clients, analysed with a TVLA-style
   3-valued-logic engine (Section 5).

Supporting substrates: :mod:`repro.lang` (the Jlite client language),
:mod:`repro.logic` (first-order logic, Kleene logic, decision procedures),
:mod:`repro.generic_analysis` (the Section 3 baselines),
:mod:`repro.runtime` (a concrete interpreter giving ground truth), and
:mod:`repro.suite` (the benchmark corpus).

Quickstart::

    from repro import CertifySession
    from repro.easl.library import cmp_spec

    session = CertifySession(cmp_spec())
    report = session.certify(CLIENT_SOURCE)
    for alarm in report.alarms:
        print(alarm)

For many clients at once — with a process pool, per-job timeouts,
engine fallback, and per-phase tracing — see
:mod:`repro.runtime.batch` and the ``repro batch`` CLI.
"""

from repro.api import CertificationReport, CertifyOptions, CertifySession

__version__ = "1.1.0"

__all__ = [
    "CertificationReport",
    "CertifyOptions",
    "CertifySession",
    "__version__",
]
