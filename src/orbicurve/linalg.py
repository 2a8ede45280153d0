"""Tiny exact linear algebra over Fraction entries.

No library module imports this one: it stays only as the dense reference
rank that the tests compare against, and perfbench traces it.  Matrices are
lists of lists and small, so plain Gaussian elimination with exact pivots is
both simplest and fast enough.
"""
from __future__ import annotations

from fractions import Fraction


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Rank of an exact rational matrix: the pivots of its row echelon form."""
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank
