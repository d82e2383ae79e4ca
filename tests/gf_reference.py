"""Row reduction over GF(q), one basis at a time in Python.

The reference that the vectorised Grassmann build and the field tables
are tested against; it uses only the scalar `GF.inv`, `GF.mul` and
`GF.sub`.
"""
from __future__ import annotations

from schemewalk.galois import GF


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
        scale = field.inv(m[pivot_row][col])
        m[pivot_row] = [field.mul(scale, x) for x in m[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[pivot_row])]
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
