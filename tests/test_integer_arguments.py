"""Every integer argument follows the one rule of `errors.require_integer`:
an int or a NumPy integer, never a bool and never a float.  Whatever
breaks it is refused with ValidationError before any work is done."""
import numpy as np
import pytest

from schemewalk import (
    ValidationError,
    braid_generators,
    build_grassmann,
    build_johnson,
    build_orbit_scheme,
    builtin_fusion_system,
    cyclic_fusion_system,
    groups,
)

ISING = builtin_fusion_system("ising")

CASES = {
    "build_johnson float v": (lambda: build_johnson(5.0, 2), "v must be an integer"),
    "build_johnson bool k": (lambda: build_johnson(4, True), "k must be an integer"),
    "build_grassmann float q": (lambda: build_grassmann(2.0, 4, 2), "q must be an integer"),
    "build_orbit_scheme float n":
        (lambda: build_orbit_scheme([[1, 2, 0]], 3.0), "point count must be an integer"),
    "groups.symmetric float": (lambda: groups.symmetric(3.0), "n must be an integer"),
    "groups.cyclic bool": (lambda: groups.cyclic(True), "n must be an integer"),
    "groups.dihedral bool": (lambda: groups.dihedral(True), "n must be an integer"),
    "cyclic_fusion_system float": (lambda: cyclic_fusion_system(2.5), "order must be an integer"),
    "label_index bool": (lambda: ISING.label_index(True), "unknown label True"),
    "braid_generators bool": (lambda: braid_generators(ISING, True), "unknown label True"),
    "adjacency float": (lambda: build_johnson(4, 2).adjacency(1.5), "class index must be"),
}


@pytest.mark.parametrize("entry", CASES, ids=list(CASES))
def test_an_integer_argument_refuses_bools_and_floats(entry):
    call, witness = CASES[entry]
    with pytest.raises(ValidationError, match=witness):
        call()


def test_numpy_integers_are_integer_arguments():
    assert build_johnson(np.int64(5), np.int32(2)) == build_johnson(5, 2)
    assert groups.cyclic(np.int16(6)) == groups.cyclic(6)
    assert ISING.label_index(np.int64(1)) == 1
