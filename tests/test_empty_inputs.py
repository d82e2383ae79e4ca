"""Every entry point that takes a square matrix refuses an empty one with
ValidationError, before any reduction over its entries."""
import numpy as np
import pytest

from schemewalk import (
    AssociationScheme,
    SchurChannel,
    ValidationError,
    make_transition_expectation,
    stationary_distribution,
    szegedy_walk,
)

EMPTY = np.zeros((0, 0))

ENTRY_POINTS = {
    "AssociationScheme": lambda: AssociationScheme(n=0, d=0, relation=np.zeros((0, 0), int)),
    "AssociationScheme relation=[]": lambda: AssociationScheme(n=0, d=0, relation=[]),
    "SchurChannel": lambda: SchurChannel(EMPTY),
    "make_transition_expectation": lambda: make_transition_expectation(EMPTY),
    "szegedy_walk": lambda: szegedy_walk(EMPTY),
    "stationary_distribution": lambda: stationary_distribution(EMPTY),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_empty_input_is_refused(entry):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry]()


@pytest.mark.parametrize("relation", [[], np.zeros((0, 0), int)], ids=["list", "array"])
def test_a_scheme_without_vertices_is_refused_for_n_before_its_relation_is_read(relation):
    with pytest.raises(ValidationError, match="at least one vertex, got n=0"):
        AssociationScheme(n=0, d=0, relation=relation)
