"""Shared fixtures: specs, abstractions, and suite programs."""

import pytest
from hypothesis import settings

from repro.easl.library import aop_spec, cmp_spec, grp_spec, imp_spec
from repro.derivation import derive
from tests.store_kinds import KINDS

#: ``--hypothesis-profile=nightly``: ten times hypothesis's default
#: examples for every random test that does not pin its own count
settings.register_profile("nightly", max_examples=1000)


@pytest.fixture(scope="session")
def cmp_specification():
    return cmp_spec()


@pytest.fixture(scope="session")
def grp_specification():
    return grp_spec()


@pytest.fixture(scope="session")
def imp_specification():
    return imp_spec()


@pytest.fixture(scope="session")
def aop_specification():
    return aop_spec()


@pytest.fixture(scope="session")
def cmp_abstraction(cmp_specification):
    return derive(cmp_specification)


@pytest.fixture(scope="session")
def cmp_abstraction_id(cmp_specification):
    return derive(cmp_specification, identity_families=True)


@pytest.fixture(params=KINDS, ids=lambda kind: kind.name)
def store_kind(request):
    """Each content-addressed store front end (see ``store_kinds``)."""
    return request.param
