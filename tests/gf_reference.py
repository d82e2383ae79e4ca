"""Scalar arithmetic and row reduction over GF(q), one basis at a time in Python.

The reference that the vectorised Grassmann build and the field tables
are tested against.  `add`, `neg`, `sub`, `mul` and `inv` read single
entries of a field's `add_table` and `mul_table`; `rref` uses only
`inv`, `mul` and `sub`.
"""
from __future__ import annotations

import numpy as np

from schemewalk.galois import GF


def add(field: GF, a: int, b: int) -> int:
    return field.add_table.item(a, b)


def neg(field: GF, a: int) -> int:
    # the element p - 1 is the constant polynomial -1
    return field.mul_table.item(field.p - 1, a)


def sub(field: GF, a: int, b: int) -> int:
    return field.add_table.item(a, field.mul_table.item(field.p - 1, b))


def mul(field: GF, a: int, b: int) -> int:
    return field.mul_table.item(a, b)


def inv(field: GF, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in a field")
    return int(np.argmax(field.mul_table[a] == 1))


def rref(field: GF, rows: list[list[int]]) -> list[list[int]]:
    """Reduced row echelon form over `field`; returns only the nonzero rows."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        scale = inv(field, m[pivot_row][col])
        m[pivot_row] = [mul(field, scale, x) for x in m[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [sub(field, x, mul(field, c, y)) for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return [row for row in m[:pivot_row] if any(row)]


def rank(field: GF, rows: list[list[int]]) -> int:
    return len(rref(field, rows))


def intersection_dim(field: GF, basis_a, basis_b) -> int:
    """dim(A ∩ B) = dim A + dim B - rank of the stacked bases."""
    stacked = [list(row) for row in basis_a] + [list(row) for row in basis_b]
    return len(basis_a) + len(basis_b) - rank(field, stacked)
