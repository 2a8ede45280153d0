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
left-to-right scan counts.  `chain_step` is that scan as a fold with O(1)
state over the per-piece end data of `piece_ends`, so an enumeration that
extends chains piece by piece carries prefix states instead of recomputing
them.  `h_chain_by_elimination` keeps the matrix and Gaussian elimination as
an independent oracle for tests and sampled cross-checks; only it lists monomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bundles import (
    ChainBundle,
    EqLineBundle,
    acts_trivially_at,
    age_at,
    canonical_bundle,
    chain_twist,
)
from .curves import MarkedPoint, TwistedComponent
from .foundation import InternalInconsistency
from .linalg import mat_rank


@dataclass(frozen=True)
class CohomologyReport:
    h0: int
    h1: int
    euler_char: Fraction

    def __post_init__(self):
        if self.h0 < 0 or self.h1 < 0:
            raise ValueError("cohomology dimensions must be non-negative")


def _h0_count(comp: TwistedComponent, k1: int, k2: int, d: int) -> int:
    """h^0 of O^{k1,k2}(d), 0 <= k1 < l1: the members of the class i = i0 (mod b*l1*l2) in [0, d // a]."""
    a, b, l1, l2 = comp.a, comp.b, comp.l1, comp.l2
    # i = k1 + l1*s, and b*l2 | d - a*i - b*k2 says a*l1*s = d - a*k1 - b*k2
    # (mod b*l2), with a*l1 a unit mod b*l2
    i0 = k1 + l1 * ((d - a * k1 - b * k2) * pow(a * l1, -1, b * l2) % (b * l2))
    return max(0, (d // a - i0) // (b * l1 * l2) + 1)


def h0_component(L: EqLineBundle) -> int:
    return _h0_count(L.comp, L.k1, L.k2, L.d)


def h1_negative_monomials(L: EqLineBundle) -> int:
    """Direct h^1: the y-exponents q = q0 (mod a*l1*l2) of x^-p y^-q in [1, (-d - a) // b]."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    # q = q2 + l2*t, and p = (-d - b*q)/a = -k1 (mod l1) says
    # b*l2*t = a*k1 - d - b*q2 (mod a*l1), with b*l2 a unit mod a*l1
    q2 = -L.k2 % l2
    q0 = q2 + l2 * ((a * L.k1 - L.d - b * q2) * pow(b * l2, -1, a * l1) % (a * l1))
    period = a * l1 * l2
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


def riemann_roch_check(L: EqLineBundle) -> Fraction:
    """deg(L) + 1 - age_x1(L) - age_x2(L); equals h0 - h1 on every bundle."""
    return L.degree + 1 - age_at(L, MarkedPoint.X1) - age_at(L, MarkedPoint.X2)


PieceEnds = tuple[int, int, bool, bool, bool, bool]
ChainState = tuple[int, int, bool, bool, bool]

# The fold over no pieces.  A state is (h0, h1, g, left, active): h0 and h1
# of the prefix, g whether the last piece's x2 column is touched by a row and
# its run is grounded, left whether the last piece has an x2 column, and
# active whether the node after the last piece is active.
CHAIN_START: ChainState = (0, 0, False, False, False)


def piece_ends(L: EqLineBundle) -> PieceEnds:
    """(h0, h1, nonzero at x1, nonzero at x2, d == 0, trivial at x2) of one piece.

    Some section is nonzero at x1 iff x^(d/a) is one, and at x2 iff y^(d/b) is."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    k1, k2, d = L.k1, L.k2, L.d
    return (
        h0_component(L),
        h1_component(L),
        k2 == 0 and d >= 0 and d % a == 0 and (d // a - k1) % l1 == 0,
        k1 == 0 and d >= 0 and d % b == 0 and (d // b - k2) % l2 == 0,
        d == 0,
        acts_trivially_at(L, MarkedPoint.X2),
    )


def chain_step(state: ChainState, piece: PieceEnds) -> ChainState:
    """Extend a chain prefix by one piece, gluing it at the node between them."""
    h0, h1, g, left, active = state
    p_h0, p_h1, nz1, nz2, merged, trivial2 = piece
    if not active:
        return (h0 + p_h0, h1 + p_h1, False, nz2, trivial2)
    if nz1:
        # the row reaches the piece's fresh x1 column, so the rank grows; that
        # run is grounded when the left column was or is absent, and it goes on
        # to the x2 end only through the constant monomial (d == 0)
        return (h0 + p_h0 - 1, h1 + p_h1, merged and (g or not left), nz2, trivial2)
    # the row grounds the left column; independent unless already grounded
    rank = 1 if left and not g else 0
    return (h0 + p_h0 - rank, h1 + p_h1 + 1 - rank, False, nz2, trivial2)


def h_chain(B: ChainBundle) -> CohomologyReport:
    """h0 and h1 of a chain bundle by the fold, checked against Riemann-Roch."""
    state = CHAIN_START
    for piece in B.pieces:
        state = chain_step(state, piece_ends(piece))
    h0, h1 = state[0], state[1]
    euler = sum((riemann_roch_check(p) for p in B.pieces), Fraction(0)) - n_active_euler(B)
    if h0 - h1 != euler:
        raise InternalInconsistency(
            f"h0 - h1 = {h0} - {h1} but the Euler characteristic is {euler} on "
            + ", ".join(map(str, B.pieces))
        )
    return CohomologyReport(h0, h1, euler)


def _section_monomials(L: EqLineBundle) -> list[tuple[int, int]]:
    """Exponents (i, j) of the invariant monomials x^i y^j spanning H^0(L), listed."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    monos = []
    for i in range(0, L.d // a + 1):
        rem = L.d - a * i
        if i % l1 == L.k1 and rem % b == 0 and (rem // b) % l2 == L.k2:
            monos.append((i, rem // b))
    return monos


def _node_rows(B: ChainBundle) -> tuple[list[list[Fraction]], int, int]:
    """Node evaluation matrix of the normalization sequence.

    Returns (rows, n_active_nodes, total_h0).  Columns index the concatenated
    component section bases; row j (for an active node) takes the value of the
    section on component j at its x2 end minus the value on component j+1 at
    its x1 end.  Inactive nodes (isotropy acting nontrivially on the fiber)
    contribute no row: the fiber has no invariant sections there.
    """
    bases = [_section_monomials(piece) for piece in B.pieces]
    offsets = [0]
    for monos in bases:
        offsets.append(offsets[-1] + len(monos))
    total = offsets[-1]
    rows: list[list[Fraction]] = []
    n_active = 0
    for j, k in B.chain.nodes:
        if not acts_trivially_at(B.pieces[j], MarkedPoint.X2):
            continue
        n_active += 1
        row = [Fraction(0)] * total
        for n, (x_exp, _) in enumerate(bases[j]):
            if x_exp == 0:  # nonzero at x2
                row[offsets[j] + n] = Fraction(1)
        for n, (_, y_exp) in enumerate(bases[k]):
            if y_exp == 0:  # nonzero at x1
                row[offsets[k] + n] = Fraction(-1)
        rows.append(row)
    return rows, n_active, total


def h_chain_by_elimination(B: ChainBundle) -> tuple[int, int]:
    """Oracle for h_chain: (h0, h1) from the whole node matrix by Gaussian elimination."""
    h1_comps = sum(h1_component(p) for p in B.pieces)
    rows, n_active, total_h0 = _node_rows(B)
    rank = mat_rank(rows) if rows else 0
    return total_h0 - rank, h1_comps + n_active - rank


def n_active_euler(B: ChainBundle) -> int:
    """Number of nodes whose fiber carries invariant sections (gluing conditions)."""
    n = 0
    for j, _ in B.chain.nodes:
        if acts_trivially_at(B.pieces[j], MarkedPoint.X2):
            n += 1
    return n


def h_twisted(B: ChainBundle, pt: MarkedPoint, sign: int) -> CohomologyReport:
    return h_chain(chain_twist(B, pt, sign))
