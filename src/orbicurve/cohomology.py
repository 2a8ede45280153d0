"""Exact cohomology of equivariant line bundles on components and chains.

Section spaces on a smooth component are spanned by invariant monomials:
H^0 of O^{k1,k2}(d) has the basis x^i y^j with i, j >= 0, a*i + b*j = d,
i = k1 (mod l1), j = k2 (mod l2).  These congruences fix one residue class
of i mod b*l1*l2 (Chinese remainder theorem; Popoviciu's count when l = 1),
so h^0 is the number of its members in [0, d // a].  H^1 is counted by two
independent routes that must agree:

  * Serre route: h^1(L) = h^0(omega tensor dual(L)), the count above on the
    data of the canonical bundle minus those of L;
  * direct route: "negative" monomials x^-p y^-q with p, q >= 1,
    a*p + b*q = -d, -p = k1 (l1), -q = k2 (l2), whose y-exponents q form
    one residue class mod a*l1*l2 in [1, (-d - a) // b].

Each count takes a few integer operations, whatever the size of d.

On a chain, restriction to the normalization gives the exact sequence whose
connecting map F evaluates sections at the active nodes (those whose
isotropy acts trivially on the fiber; a `ChainBundle` is balanced by
construction, so both branches of a node are active or neither is):

    h^0 = sum of component h^0 - rank F,
    h^1 = sum of component h^1 + #active nodes - rank F.

A monomial x^i y^j is nonzero at x1 iff j = 0 and at x2 iff i = 0, so each
piece has at most one column per end, and the two are one column (the
constant monomial) when d = 0.  F is then the signed incidence matrix of a
path: every row has at most two +-1 entries, in the columns at the two ends
of its node.  Its rank is the number of touched columns minus the number of
connected runs of columns that no single-entry row grounds, which one
left-to-right scan counts.  `chain_step` is that scan as a fold over the
per-piece end data of `piece_ends` whose state is h0, h1 and two flags:
whether the last piece's x2 column is free (its run not yet grounded) and
whether the next node is active.  So an enumeration that extends chains
piece by piece carries prefix states instead of recomputing them.  Gaussian
elimination of the whole matrix over listed monomials is the independent
oracle `oracles.h_chain_by_elimination`.

A piece has a column at an end exactly when the fiber there is invariant
(the isotropy acts trivially on it) and d >= 0, so `piece_ends` reads both
flags off the test that marks the active nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .bundles import (
    ChainBundle,
    EqLineBundle,
    _age_data,
    acts_trivially_at,
    canonical_bundle,
    chain_twist,
)
from .curves import X1, X2, MarkedPoint, TwistedComponent
from .foundation import InternalInconsistency


@dataclass(frozen=True)
class CohomologyReport:
    h0: int
    h1: int

    def __post_init__(self):
        if self.h0 < 0 or self.h1 < 0:  # no input makes one negative: a fault in the counts
            raise InternalInconsistency("cohomology dimensions must be non-negative")


def _h0_count(comp: TwistedComponent, k1: int, k2: int, d: int) -> int:
    """h^0 of O^{k1,k2}(d), 0 <= k1 < l1: the members of the class i = i0 (mod b*l1*l2) in [0, d // a]."""
    a, b, l1 = comp.a, comp.b, comp.l1
    # i = k1 + l1*s, and b*l2 | d - a*i - b*k2 says a*l1*s = d - a*k1 - b*k2
    # (mod b*l2), with a*l1 a unit mod b*l2; the period b*l1*l2 is comp.d
    i0 = k1 + l1 * ((d - a * k1 - b * k2) * comp.h0_unit % (b * comp.l2))
    return max(0, (d // a - i0) // comp.d + 1)


def h0_component(L: EqLineBundle) -> int:
    return _h0_count(L.comp, L.k1, L.k2, L.d)


def h1_negative_monomials(L: EqLineBundle) -> int:
    """Direct h^1: the y-exponents q = q0 (mod a*l1*l2) of x^-p y^-q in [1, (-d - a) // b]."""
    comp = L.comp
    a, b, l2, period = comp.a, comp.b, comp.l2, comp.c
    # q = q2 + l2*t, and p = (-d - b*q)/a = -k1 (mod l1) says
    # b*l2*t = a*k1 - d - b*q2 (mod a*l1), with b*l2 a unit mod a*l1; the
    # period a*l1*l2 is comp.c
    q2 = -L.k2 % l2
    q0 = q2 + l2 * ((a * L.k1 - L.d - b * q2) * comp.h1_unit % (a * comp.l1))
    return max(0, ((-L.d - a) // b - (q0 or period)) // period + 1)


# The canonical bundle of each component, built once through the bundle API.
_canonical = lru_cache(maxsize=1024)(canonical_bundle)


def h1_component(L: EqLineBundle) -> int:
    n_direct = h1_negative_monomials(L)
    K = _canonical(L.comp)  # K.k1 = l1 - 1, so K.k1 - L.k1 is reduced
    n_serre = _h0_count(L.comp, K.k1 - L.k1, K.k2 - L.k2, K.d - L.d)
    if n_direct != n_serre:
        raise InternalInconsistency(
            f"h1 routes disagree on {L}: direct {n_direct}, Serre {n_serre}"
        )
    return n_direct


def _riemann_roch_terms(L: EqLineBundle) -> tuple[int, int, tuple[bool, bool]]:
    """(numerator, a*b*l1*l2, trivial at (x1, x2)) of deg(L) + 1 - age_x1(L) - age_x2(L).

    The ages are num1/(a*l1*l2) and num2/(b*l1*l2), and deg(L) = d/(a*b*l1*l2)."""
    a, b = L.comp.a, L.comp.b
    den = a * b * L.comp.l1 * L.comp.l2
    num1, _ = _age_data(L, X1)
    num2, _ = _age_data(L, X2)
    return L.d + den - b * num1 - a * num2, den, (num1 == 0, num2 == 0)


def riemann_roch_check(L: EqLineBundle) -> Fraction:
    """deg(L) + 1 - age_x1(L) - age_x2(L); equals h0 - h1 on every bundle."""
    num, den, _ = _riemann_roch_terms(L)
    return Fraction(num, den)


PieceEnds = tuple[int, int, bool, bool, bool, bool]
ChainState = tuple[int, int, bool, bool]

# The fold over no pieces.  A state is (h0, h1, free, active): h0 and h1 of
# the prefix, free whether the last piece has an x2 column whose run no row
# has grounded yet, and active whether the node after the last piece is.
CHAIN_START: ChainState = (0, 0, False, False)


def piece_ends(L: EqLineBundle, trivial: tuple[bool, bool] | None = None) -> PieceEnds:
    """(h0, h1, nonzero at x1, nonzero at x2, d == 0, trivial at x2) of one piece.

    Some section is nonzero at an end iff the isotropy there acts trivially
    on the fiber and d >= 0: x^(d/a) is then a section at x1, y^(d/b) at x2.
    A caller that knows whether the isotropy acts trivially at x1 and at x2
    passes the pair as `trivial`."""
    d = L.d
    t1, t2 = trivial or (d >= 0 and acts_trivially_at(L, X1), acts_trivially_at(L, X2))
    return (h0_component(L), h1_component(L), t1 and d >= 0, t2 and d >= 0, d == 0, t2)


def chain_step(state: ChainState, piece: PieceEnds) -> ChainState:
    """Extend a chain prefix by one piece, gluing it at the node between them.

    What it adds to h0 and h1, and the new flags, depend only on the piece and
    the old flags (free, active); the chain sweeps of `suites` count states
    by this."""
    h0, h1, free, active = state
    p_h0, p_h1, nz1, nz2, merged, trivial2 = piece
    if not active:
        return (h0 + p_h0, h1 + p_h1, nz2, trivial2)
    if nz1:
        # the row reaches the piece's fresh x1 column, so the rank grows; that
        # column is the x2 one only through the constant monomial (d == 0), and
        # then its run is free only if it joined the previous piece's free one
        return (h0 + p_h0 - 1, h1 + p_h1, nz2 and (free or not merged), trivial2)
    # the row grounds the previous piece's column, independent exactly if free
    return (h0 + p_h0 - free, h1 + p_h1 + 1 - free, nz2, trivial2)


def _piece_data(L: EqLineBundle) -> tuple[int, int, PieceEnds]:
    num, den, trivial = _riemann_roch_terms(L)
    return num, den, piece_ends(L, trivial)


def _fold(pieces: tuple[EqLineBundle, ...], data) -> tuple[int, int]:
    """(h0, h1) of the chain bundle of these pieces, folded over their `_piece_data`, checked against Riemann-Roch."""
    # Riemann-Roch less one gluing condition per active node (the fold state
    # says whether the node before the next piece is), as an integer numerator
    # over a common denominator D grown only when a piece's does not divide it
    state, euler_num, D = CHAIN_START, 0, 1
    for num, den, ends in data:
        if D % den:
            grown = lcm(D, den)
            euler_num, D = euler_num * (grown // D), grown
        euler_num += num * (D // den) - (D if state[3] else 0)
        state = chain_step(state, ends)
    h0, h1 = state[0], state[1]
    if (h0 - h1) * D != euler_num:
        raise InternalInconsistency(
            f"h0 - h1 = {h0} - {h1} but the Euler characteristic is {Fraction(euler_num, D)} on "
            + ", ".join(map(str, pieces))
        )
    return h0, h1


def h_chain(B: ChainBundle) -> CohomologyReport:
    """h0 and h1 of a chain bundle by the fold over its pieces' data, checked against Riemann-Roch."""
    return CohomologyReport(*_fold(B.pieces, [_piece_data(p) for p in B.pieces]))


def h_twisted(B: ChainBundle, pt: MarkedPoint, sign: int) -> CohomologyReport:
    return h_chain(chain_twist(B, pt, sign))
