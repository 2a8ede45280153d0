"""Tiny exact linear algebra over Fraction entries.

All matrices here are lists of lists and small (pairing matrices, operator
blocks), so plain Gaussian elimination with exact pivots is both simplest and
fast enough.  Rank, nullspace and inverse all read off one reduced row
echelon form.
"""
from __future__ import annotations

from fractions import Fraction

Matrix = list


def _row_reduce(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of an exact rational matrix and its pivot columns."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m or not m[0]:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return m, pivots


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Rank of an exact rational matrix."""
    return len(_row_reduce(rows)[1])


def mat_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of an exact rational square matrix; raises on singularity."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    reduced, pivots = _row_reduce([list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in reduced]


def mat_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of a rational matrix."""
    if not rows:
        return []
    reduced, pivots = _row_reduce(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def mat_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
