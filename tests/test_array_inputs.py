"""Every array that `qmc` and `hypergroup` read goes through
`errors.numeric_array`: ragged nesting, strings and booleans are refused
with ValidationError, and so is a complex array where a stochastic
matrix, a distribution or a multiplicity is asked for.  Every shape, size
cap and index refusal reads in the one wording of its rule in `errors`."""
import numpy as np
import pytest

from schemewalk import (
    AssociationScheme,
    FusionSystem,
    Hypergroup,
    SchurChannel,
    TransitionExpectation,
    ValidationError,
    apply_transition_expectation,
    builtin_fusion_system,
    convolve,
    cyclic_fusion_system,
    dilation_unitary,
    iterate_channel,
    schur_channel_apply,
    serialize,
    stationary_distribution,
    szegedy_walk,
    transition_expectation_dual,
    verify_pentagon,
    walk,
)
from schemewalk.groups import FiniteGroup

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


# NumPy upcasts a bool among numbers, so these five were once accepted:
# a scheme that verified, Z_2, and a stationary law of [2/3, 1/3]; then
# Z_2 and that scheme again from a bool ndarray row in a nested list.
BOOL_AMONG_NUMBERS = {
    "AssociationScheme": lambda: AssociationScheme(2, 1, [[0, True], [True, 0]]),
    "FiniteGroup": lambda: FiniteGroup([[0, 1], [1, False]]),
    "stationary_distribution": lambda: stationary_distribution([[0.5, True], [0.5, False]]),
    "AssociationScheme-ndarray-row":
        lambda: AssociationScheme(2, 1, [[0, 1], np.array([True, False])]),
    "FiniteGroup-ndarray-row": lambda: FiniteGroup([[0, 1], np.array([True, False])]),
}


@pytest.mark.parametrize("entry", BOOL_AMONG_NUMBERS, ids=list(BOOL_AMONG_NUMBERS))
def test_a_bool_among_numbers_in_nested_lists_is_refused(entry):
    with pytest.raises(ValidationError, match="got a bool"):
        BOOL_AMONG_NUMBERS[entry]()


SHAPE = "must be a non-empty array of shape"
# (call on the j42 scheme, decomposition and hypergroup, expected message)
ONE_WORDING = {
    "Cayley table": (lambda s, dec, h: FiniteGroup([[0, 1, 2]]),
                     rf"Cayley table {SHAPE} \(n, n\), got shape \(1, 3\)"),
    "relation matrix": (lambda s, dec, h: AssociationScheme(2, 1, [[0, 1]]),
                        rf"relation matrix {SHAPE} \(2, 2\), got shape \(1, 2\)"),
    "multiplier": (lambda s, dec, h: SchurChannel(np.ones((2, 3))),
                   rf"multiplier {SHAPE} \(n, n\), got shape \(2, 3\)"),
    "stochastic matrix": (lambda s, dec, h: szegedy_walk(np.ones(2) / 2),
                          rf"stochastic matrix {SHAPE} \(n, n\), got shape \(2,\)"),
    "schur_channel_apply": (lambda s, dec, h: schur_channel_apply(SchurChannel(EYE), np.eye(3)),
                            rf"matrix {SHAPE} \(2, 2\), got shape \(3, 3\)"),
    "site matrix M": (lambda s, dec, h: apply_transition_expectation(TE, np.eye(3), EYE),
                      rf"site matrix M {SHAPE} \(2, 2\), got shape \(3, 3\)"),
    "site matrix N": (lambda s, dec, h: apply_transition_expectation(TE, EYE, np.eye(3)),
                      rf"site matrix N {SHAPE} \(2, 2\), got shape \(3, 3\)"),
    "iterate_channel": (lambda s, dec, h: iterate_channel(SchurChannel(EYE), np.eye(3) / 3, 1),
                        rf"density matrix {SHAPE} \(2, 2\), got shape \(3, 3\)"),
    "twist": (lambda s, dec, h: FusionSystem(("1",), [[[1]]], twist=(1, 1)),
              rf"twist {SHAPE} \(1,\), got shape \(2,\)"),
    "tensor kind": (lambda s, dec, h: serialize.loads('{"d": 1, "entries": [[1]]}', "tensor"),
                    rf"tensor {SHAPE} \(2, 2, 2\), got shape \(1, 1\)"),
    "distribution": (lambda s, dec, h: dilation_unitary([[1.0]]),
                     rf"distribution {SHAPE} \(n,\), got shape \(1, 1\)"),
    "measure": (lambda s, dec, h: convolve(h, [0.5, 0.5], 0),
                rf"left measure distribution {SHAPE} \(3,\), got shape \(2,\)"),
    "Szegedy cap": (lambda s, dec, h: szegedy_walk(np.eye(65)),
                    "Szegedy walk has 65 vertices, above the cap of 64"),
    "pentagon cap": (lambda s, dec, h: verify_pentagon(cyclic_fusion_system(4)),
                     "pentagon check on rank 4, above the cap of 3"),
    "class index": (lambda s, dec, h: s.adjacency(3), r"class index 3 out of range 0\.\.2"),
    "idempotent index": (lambda s, dec, h: dec.idempotent(3),
                         r"idempotent index 3 out of range 0\.\.2"),
    "label index": (lambda s, dec, h: builtin_fusion_system("ising").label_index(3),
                    r"label index 3 out of range 0\.\.2"),
    "measure index": (lambda s, dec, h: convolve(h, 3, 0),
                      r"left measure index 3 out of range 0\.\.2"),
}


@pytest.mark.parametrize("site", ONE_WORDING, ids=list(ONE_WORDING))
def test_shape_cap_and_index_refusals_use_one_wording_per_rule(site, j42, j42_dec,
                                                               j42_hypergroup):
    call, message = ONE_WORDING[site]
    with pytest.raises(ValidationError, match=message):
        call(j42, j42_dec, j42_hypergroup)
