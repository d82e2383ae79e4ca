"""Every array that `qmc` and `hypergroup` read goes through
`errors.numeric_array`: ragged nesting, strings and booleans are refused
with ValidationError, and so is a complex array where a stochastic
matrix, a distribution or a multiplicity is asked for."""
import numpy as np
import pytest

from schemewalk import (
    Hypergroup,
    SchurChannel,
    TransitionExpectation,
    ValidationError,
    apply_transition_expectation,
    convolve,
    dilation_unitary,
    iterate_channel,
    schur_channel_apply,
    stationary_distribution,
    szegedy_walk,
    transition_expectation_dual,
    walk,
)

EYE = np.eye(2)
TE = TransitionExpectation([[0.5, 0.5], [0.5, 0.5]])

# (takes complex input, entry point of the bad value x)
MATRIX_ENTRIES = {
    "TransitionExpectation": (False, lambda h, x: TransitionExpectation(x)),
    "szegedy_walk": (False, lambda h, x: szegedy_walk(x)),
    "stationary_distribution": (False, lambda h, x: stationary_distribution(x)),
    "SchurChannel": (True, lambda h, x: SchurChannel(x)),
    "schur_channel_apply": (True, lambda h, x: schur_channel_apply(SchurChannel(EYE), x)),
    "iterate_channel density": (True, lambda h, x: iterate_channel(SchurChannel(EYE), x, 1)),
    "apply_transition_expectation M": (True, lambda h, x: apply_transition_expectation(TE, x, EYE)),
    "apply_transition_expectation N": (True, lambda h, x: apply_transition_expectation(TE, EYE, x)),
    "transition_expectation_dual": (True, lambda h, x: transition_expectation_dual(TE, x)),
}
VECTOR_ENTRIES = {
    "dilation_unitary": lambda h, x: dilation_unitary(x),
    "walk start": lambda h, x: walk(h, 1, x, 2),
    "walk coin": lambda h, x: walk(h, x, 0, 2),
    "convolve": lambda h, x: convolve(h, x, 0),
    "Hypergroup multiplicities": lambda h, x: Hypergroup(h.convolution, x),
}
BAD_MATRICES = {
    "ragged": [[1.0, 0.0], [1.0]],
    "strings": [["1", "0"], ["0", "1"]],
    "booleans": np.eye(2, dtype=bool),
    "complex": np.eye(2, dtype=np.complex128),
}
BAD_VECTORS = {
    "ragged": [1.0, [0.0], 0.0],
    "strings": ["1", "0", "0"],
    "booleans": [True, False, False],
    "complex": np.array([1.0, 0.0, 0.0], dtype=np.complex128),
}
CASES = [
    *[pytest.param(MATRIX_ENTRIES[entry][1], value, id=f"{entry}-{form}")
      for entry in MATRIX_ENTRIES for form, value in BAD_MATRICES.items()
      if form != "complex" or not MATRIX_ENTRIES[entry][0]],
    *[pytest.param(VECTOR_ENTRIES[entry], value, id=f"{entry}-{form}")
      for entry in VECTOR_ENTRIES for form, value in BAD_VECTORS.items()],
    *[pytest.param(VECTOR_ENTRIES["Hypergroup multiplicities"], value,
                   id=f"Hypergroup multiplicities-{form}")
      for form, value in {"inf": [1, 3, np.inf], "nan": [1, 3, np.nan],
                          "a-bool-among-ints": [1, 3, True]}.items()],
]


@pytest.mark.parametrize("entry, value", CASES)
def test_malformed_array_input_is_a_validation_error(entry, value, j42_hypergroup):
    with pytest.raises(ValidationError):
        entry(j42_hypergroup, value)
