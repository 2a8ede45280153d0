"""Tiny exact linear algebra over Fraction / PhasedScalar entries.

All matrices here are lists of lists and small (pairing matrices, operator
blocks), so plain Gaussian elimination with exact pivots is both simplest and
fast enough.
"""
from __future__ import annotations

from fractions import Fraction

from .foundation import PhasedScalar

Matrix = list


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Rank of an exact rational matrix by Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
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
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def mat_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of an exact rational square matrix; raises on singularity."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [list(map(Fraction, rows[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def mat_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of a rational matrix."""
    if not rows:
        return []
    m = [list(map(Fraction, r)) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
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
        row += 1
        if row == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def mat_mul(a: list[list], b: list[list]):
    """Matrix product; entries may be Fraction or PhasedScalar."""
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_phased(rows: list[list]) -> list[list[PhasedScalar]]:
    return [[PhasedScalar.coerce(x) for x in r] for r in rows]


def mat_equal_phased(a: list[list], b: list[list]) -> bool:
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return False
    return all(
        PhasedScalar.coerce(x) == PhasedScalar.coerce(y)
        for ra, rb in zip(a, b)
        for x, y in zip(ra, rb)
    )
