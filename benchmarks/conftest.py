"""Shared fixtures for the evaluation benchmarks."""

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.derivation import derive
from repro.easl.library import cmp_spec
from repro.runtime.cache import DEFAULT_CACHE_SIZE, LRUCache


@pytest.fixture(scope="session")
def spec():
    return cmp_spec()


@pytest.fixture(scope="session")
def abstraction(spec):
    return derive(spec)


@pytest.fixture(scope="session")
def abstraction_id(spec):
    return derive(spec, identity_families=True)


@pytest.fixture(scope="session")
def certify():
    """``certify(program, engine, **options)`` on a fresh session per call.

    The sessions share one abstraction cache, so a call pays inlining,
    transformation and the fixpoint but never derivation — derivation is
    paid once per component (Section 1.3)."""
    abstractions = LRUCache(DEFAULT_CACHE_SIZE, name="abstractions")

    def run(program, engine="auto", **options):
        session = CertifySession(
            program.spec, engine, CertifyOptions(**options), cache=abstractions
        )
        return session.certify_program(program)

    return run
