"""What the certificate checker depends on, and what it keeps.

The checker is the light side of proof-carrying code: it replays an
annotation, so it needs no fixpoint engine, and a held checker keeps per
recent client only what that replay reads.  These tests pin both: the
modules ``cert/check.py`` imports, and the objects a checker still
reaches after checking a certificate, which must include no parsed
program, method or CFG.  A re-check of the same certificate must then neither
parse the source nor build a fact space.
"""

import ast
import copy
import gc
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro.cert
from repro.api import CertifyOptions, CertifySession
from repro.bench.synthetic import make_shared_library
from repro.cert import CertificateChecker, check
from repro.certifier.spaces import FactSpaces
from repro.lang import types as lang_types
from repro.lang.cfg import CFG
from repro.lang.types import MethodInfo, Program
from repro.suite import by_name

#: the fixpoint engines and their worklists
ENGINE_MODULES = {
    "repro.certifier.fds",
    "repro.certifier.relational",
    "repro.certifier.interproc",
    "repro.util.worklist",
}


def _imported(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_checker_imports_no_fixpoint_engine():
    assert not _imported(Path(check.__file__)) & ENGINE_MODULES
    for path in Path(repro.cert.__file__).parent.glob("*.py"):
        assert "InterproceduralCertifier" not in path.read_text(), path.name


#: loaded by none of the checker's imports: the delta codec and the
#: certificate mutator are not needed to check, and the Jlite frontend
#: has no syntax tree
NOT_LOADED_BY_CHECKER = {
    "repro.cert.delta",
    "repro.cert.mutate",
    "repro.lang.parser",
    "repro.lang.ast",
}


#: lines of source in every ``repro`` module a fresh ``import
#: repro.cert.check`` loads (56 modules).  A ceiling to lower as the
#: checker's trusted base shrinks, not a target to grow into
CHECKER_CLOSURE_LINES = 16522


def test_checker_import_closure_leaves_out_codec_mutator_and_ast():
    """In a fresh interpreter, ``import repro.cert.check`` (and with it
    the ``repro.cert`` package) loads none of :data:`NOT_LOADED_BY_CHECKER`
    and at most :data:`CHECKER_CLOSURE_LINES` lines of ``repro`` source,
    while ``from repro.cert import mutate_certificate`` still works."""
    code = (
        "import sys\n"
        "import repro.cert.check\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "print(sum(len(open(m.__file__).readlines())\n"
        "          for name, m in list(sys.modules.items())\n"
        "          if name.split('.')[0] == 'repro'\n"
        "          and getattr(m, '__file__', None)))\n"
        "from repro.cert import DELTA_FORMAT, mutate_certificate\n"
        "import repro.cert\n"
        "assert all(hasattr(repro.cert, name) for name in repro.cert.__all__)\n"
    )
    src = str(Path(repro.cert.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    modules, lines = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.splitlines()
    loaded = modules.split()
    assert "repro.cert.check" in loaded
    assert not NOT_LOADED_BY_CHECKER & set(loaded)
    assert int(lines) <= CHECKER_CLOSURE_LINES


def _reachable(root) -> list:
    """Every object reachable from ``root`` through instance data:
    modules, classes and code are not followed, and a function only
    through its closure and defaults."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            refs = list(obj.__closure__ or ()) + list(obj.__defaults__ or ())
        elif isinstance(
            obj,
            (type, types.ModuleType, types.CodeType, types.BuiltinFunctionType),
        ):
            continue
        else:
            refs = gc.get_referents(obj)
        for ref in refs:
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return found


@pytest.fixture(scope="module")
def certificates(cmp_specification):
    """engine -> certificate: fig3 on fds and relational, one
    ``make_shared_library(200)`` client on interproc, and fig1_heap on
    a TVLA and a heap-domain engine."""
    session = CertifySession(
        cmp_specification, options=CertifyOptions(emit_certificate=True)
    )
    sources = {
        "fds": by_name("fig3").source,
        "relational": by_name("fig3").source,
        "interproc": make_shared_library(200),
        "tvla-relational": by_name("fig1_heap").source,
        "allocsite": by_name("fig1_heap").source,
    }
    return {
        engine: session.certify(source, engine).certificate
        for engine, source in sources.items()
    }


@pytest.fixture(scope="module")
def library_certificate(certificates):
    return certificates["interproc"]


@pytest.mark.parametrize(
    "engine",
    ["fds", "relational", "interproc", "tvla-relational", "allocsite"],
)
def test_held_checker_keeps_no_program_and_rechecks_without_parsing(
    certificates, engine, monkeypatch
):
    certificate = certificates[engine]
    parses = []
    built = []
    parse_program = lang_types.parse_program
    space = FactSpaces.space
    monkeypatch.setattr(
        lang_types,
        "parse_program",
        lambda *args: parses.append(1) or parse_program(*args),
    )
    monkeypatch.setattr(
        FactSpaces,
        "space",
        lambda facts, qualified: built.append(qualified)
        or space(facts, qualified),
    )
    checker = CertificateChecker()
    assert checker.check(certificate).ok
    assert parses
    assert bool(built) == (engine == "interproc")
    # a heap domain replays over the inlined CFG itself
    kinds = (Program, MethodInfo) if engine == "allocsite" else (
        Program, MethodInfo, CFG
    )
    kept = [
        type(obj).__name__
        for obj in _reachable(checker)
        if isinstance(obj, kinds)
    ]
    assert not kept
    parses.clear()
    built.clear()
    assert checker.check(certificate).ok
    assert parses == []
    assert built == []


def test_context_of_an_unknown_method_is_malformed(library_certificate):
    """Contexts replay in sorted order, so one for a method that sorts
    first is looked up before any other context is replayed."""
    payload = copy.deepcopy(library_certificate.payload)
    contexts = payload["annotation"]["contexts"]
    contexts.append(dict(contexts[0], method="A.nowhere"))
    verdict = CertificateChecker().check(payload)
    assert not verdict.ok
    assert verdict.kind == "malformed"
