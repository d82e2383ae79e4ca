"""Shared fixtures: the built-in scheme zoo and cached spectral data.

Decompositions are reused across test modules through session-scoped
fixtures so the whole suite stays fast.  Every test starts with an empty
store (`_store.STORE`: builders' results, axiom reports
and algebra records), so a test that counts builds or checks, or patches
them, sees its own objects built, checked and decomposed.

The hypothesis profile named by HYPOTHESIS_PROFILE is loaded; "ci" draws
its examples from a fixed seed, so a red CI run reproduces locally with
HYPOTHESIS_PROFILE=ci.
"""
from __future__ import annotations

import os

import pytest
from hypothesis import settings

from schemewalk import (
    _store,
    build_conjugacy_scheme,
    build_grassmann,
    build_group_scheme,
    build_johnson,
    decompose,
    groups,
    hypergroup_from,
    krein_parameters,
)

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _empty_store():
    _store.STORE.clear()


def _builtin_constructors():
    specs = {}
    for n in range(2, 9):
        specs[f"group_z{n}"] = lambda n=n: build_group_scheme(groups.cyclic(n))
    specs["group_s3"] = lambda: build_group_scheme(groups.symmetric(3))
    specs["group_s4"] = lambda: build_group_scheme(groups.symmetric(4))
    specs["group_d4"] = lambda: build_group_scheme(groups.dihedral(4))
    specs["group_q8"] = lambda: build_group_scheme(groups.quaternion())
    specs["conjugacy_s3"] = lambda: build_conjugacy_scheme(groups.symmetric(3))
    specs["conjugacy_s4"] = lambda: build_conjugacy_scheme(groups.symmetric(4))
    specs["conjugacy_q8"] = lambda: build_conjugacy_scheme(groups.quaternion())
    specs["johnson_4_2"] = lambda: build_johnson(4, 2)
    specs["johnson_5_2"] = lambda: build_johnson(5, 2)
    specs["johnson_6_3"] = lambda: build_johnson(6, 3)
    specs["grassmann_2_3_1"] = lambda: build_grassmann(2, 3, 1)
    specs["grassmann_2_4_2"] = lambda: build_grassmann(2, 4, 2)
    specs["grassmann_3_2_1"] = lambda: build_grassmann(3, 2, 1)
    return specs


BUILTIN_NAMES = tuple(_builtin_constructors())
NONCOMMUTATIVE = ("group_s3", "group_s4", "group_d4", "group_q8")
COMMUTATIVE_NAMES = tuple(n for n in BUILTIN_NAMES if n not in NONCOMMUTATIVE)


@pytest.fixture(scope="session")
def builtin_schemes():
    return {name: make() for name, make in _builtin_constructors().items()}


@pytest.fixture(scope="session")
def decompositions(builtin_schemes):
    return {name: decompose(builtin_schemes[name]) for name in COMMUTATIVE_NAMES}


@pytest.fixture(scope="session")
def krein_tensors(decompositions):
    return {name: krein_parameters(dec) for name, dec in decompositions.items()}


@pytest.fixture(scope="session")
def hypergroups(decompositions, krein_tensors):
    return {
        name: hypergroup_from(decompositions[name], krein_tensors[name])
        for name in COMMUTATIVE_NAMES
    }


@pytest.fixture(scope="session")
def j42(builtin_schemes):
    return builtin_schemes["johnson_4_2"]


@pytest.fixture(scope="session")
def j42_dec(decompositions):
    return decompositions["johnson_4_2"]


@pytest.fixture(scope="session")
def j42_krein(krein_tensors):
    return krein_tensors["johnson_4_2"]


@pytest.fixture(scope="session")
def j42_hypergroup(hypergroups):
    return hypergroups["johnson_4_2"]
