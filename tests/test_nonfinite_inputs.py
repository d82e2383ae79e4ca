"""Every entry validator refuses NaN and infinite entries with ValidationError."""
import json

import numpy as np
import pytest

from schemewalk import (
    SchurChannel,
    ValidationError,
    convolve,
    cyclic_fusion_system,
    dilation_unitary,
    iterate_channel,
    make_fusion_system,
    make_transition_expectation,
    serialize,
    stationary_distribution,
    szegedy_walk,
    walk,
)

Z2 = cyclic_fusion_system(2)

ENTRY_POINTS = {
    "serialize.loads distribution":
        lambda h, x: serialize.loads(json.dumps([x, 0.5, 0.5]), "distribution"),
    "walk start": lambda h, x: walk(h, 1, [x, 0.5, 0.5], 2),
    "walk coin": lambda h, x: walk(h, [x, 0.5, 0.5], [1.0, 0.0, 0.0], 2),
    "convolve": lambda h, x: convolve(h, [x, 0.5, 0.5], [1.0, 0.0, 0.0]),
    "make_transition_expectation":
        lambda h, x: make_transition_expectation([[x, 0.5], [0.5, 0.5]]),
    "SchurChannel": lambda h, x: SchurChannel(np.array([[1.0, x], [x, 1.0]])),
    "dilation_unitary": lambda h, x: dilation_unitary([x, 0.5, 0.5]),
    "iterate_channel density":
        lambda h, x: iterate_channel(SchurChannel(np.eye(2)), np.array([[x, 0.0], [0.0, 0.5]]), 2),
    "stationary_distribution": lambda h, x: stationary_distribution([[x, 0.5], [0.5, 0.5]]),
    "szegedy_walk": lambda h, x: szegedy_walk([[x, 0.5], [0.5, 0.5]]),
    "make_fusion_system F":
        lambda h, x: make_fusion_system(Z2.labels, Z2.N, f_data={(1, 1, 1, 1): [[x]]}),
    "make_fusion_system R":
        lambda h, x: make_fusion_system(Z2.labels, Z2.N, r_data={(1, 1, 0): x}),
    "make_fusion_system twist":
        lambda h, x: make_fusion_system(Z2.labels, Z2.N, twist=(1.0, x)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_non_finite_entry_is_refused(entry, value, j42_hypergroup):
    with pytest.raises(ValidationError, match="non-finite"):
        ENTRY_POINTS[entry](j42_hypergroup, value)
