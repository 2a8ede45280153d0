"""Exact cohomology of equivariant line bundles on components and chains.

Section spaces on a smooth component are spanned by invariant monomials:
H^0 of O^{k1,k2}(d) counts pairs (i, j) of non-negative integers with
a*i + b*j = d, i = k1 (mod l1), j = k2 (mod l2).  H^1 is computed by two
independent routes that must agree:

  * Serre route: h^1(L) = h^0(omega tensor dual(L)) through the bundle
    operations, with omega the canonical bundle;
  * direct route: count "negative" monomials x^-p y^-q with p, q >= 1,
    a*p + b*q = -d and the induced congruences -p = k1 (l1), -q = k2 (l2).

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
an independent oracle for tests and sampled cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import (
    ChainBundle,
    EqLineBundle,
    acts_trivially_at,
    age_at,
    canonical_bundle,
    chain_twist,
    dual,
    tensor,
)
from .curves import MarkedPoint
from .foundation import InternalInconsistency
from .linalg import mat_rank


@dataclass(frozen=True)
class SectionBasis:
    """Exponent pairs of basis monomials; negative pairs describe H^1 classes."""

    monomials: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.monomials)

    def nonzero_at(self, pt: MarkedPoint) -> list[int]:
        """Indices of basis monomials with nonzero value at the given point."""
        if pt is MarkedPoint.X1:
            return [n for n, (_, j) in enumerate(self.monomials) if j == 0]
        if pt is MarkedPoint.X2:
            return [n for n, (i, _) in enumerate(self.monomials) if i == 0]
        raise ValueError(f"unknown marked point {pt!r}")


@dataclass(frozen=True)
class CohomologyReport:
    h0: int
    h1: int
    euler_char: Fraction
    method: str

    def __post_init__(self):
        if self.h0 < 0 or self.h1 < 0:
            raise ValueError("cohomology dimensions must be non-negative")


def h0_component(L: EqLineBundle) -> tuple[int, SectionBasis]:
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    monos = []
    if L.d >= 0:
        for i in range(0, L.d // a + 1):
            if i % l1 != L.k1:
                continue
            rem = L.d - a * i
            if rem % b == 0 and (rem // b) % l2 == L.k2:
                monos.append((i, rem // b))
    basis = SectionBasis(tuple(monos))
    return len(basis), basis


def h1_negative_monomials(L: EqLineBundle) -> tuple[int, SectionBasis]:
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    monos = []
    if L.d <= -(a + b):
        for p in range(1, (-L.d) // a + 1):
            if (-p) % l1 != L.k1:
                continue
            rem = -L.d - a * p
            if rem >= b and rem % b == 0 and (-(rem // b)) % l2 == L.k2:
                monos.append((-p, -(rem // b)))
    return len(monos), SectionBasis(tuple(monos))


def h1_component(L: EqLineBundle) -> tuple[int, SectionBasis]:
    n_direct, basis = h1_negative_monomials(L)
    n_serre, _ = h0_component(tensor(canonical_bundle(L.comp), dual(L)))
    if n_direct != n_serre:
        raise InternalInconsistency(
            f"h1 routes disagree on {L}: direct {n_direct}, Serre {n_serre}"
        )
    return n_direct, basis


def riemann_roch_check(L: EqLineBundle) -> Fraction:
    """deg(L) + 1 - age_x1(L) - age_x2(L); equals h0 - h1 on every bundle."""
    return L.degree + 1 - age_at(L, MarkedPoint.X1) - age_at(L, MarkedPoint.X2)


def report_component(L: EqLineBundle) -> CohomologyReport:
    h0, _ = h0_component(L)
    h1, _ = h1_component(L)
    return CohomologyReport(h0, h1, riemann_roch_check(L), method="oracle")


def report_riemann_roch(L: EqLineBundle) -> CohomologyReport:
    """Alternative report: h1 through Serre duality, h0 from the Euler characteristic."""
    h1, _ = h0_component(tensor(canonical_bundle(L.comp), dual(L)))
    chi = riemann_roch_check(L)
    h0 = chi + h1
    if h0.denominator != 1 or h0 < 0:
        raise InternalInconsistency(f"Euler characteristic route broke on {L}: chi={chi}, h1={h1}")
    return CohomologyReport(int(h0), h1, chi, method="riemann-roch")


PieceEnds = tuple[int, int, bool, bool, bool, bool]
ChainState = tuple[int, int, bool, bool, bool]

# The fold over no pieces.  A state is (h0, h1, g, left, active): h0 and h1
# of the prefix, g whether the last piece's x2 column is touched by a row and
# its run is grounded, left whether the last piece has an x2 column, and
# active whether the node after the last piece is active.
CHAIN_START: ChainState = (0, 0, False, False, False)


def piece_ends(L: EqLineBundle) -> PieceEnds:
    """(h0, h1, nonzero at x1, nonzero at x2, d == 0, trivial at x2) of one piece."""
    h0, basis = h0_component(L)
    h1, _ = h1_component(L)
    return (
        h0,
        h1,
        bool(basis.nonzero_at(MarkedPoint.X1)),
        bool(basis.nonzero_at(MarkedPoint.X2)),
        L.d == 0,
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
    state = CHAIN_START
    for piece in B.pieces:
        state = chain_step(state, piece_ends(piece))
    euler = sum((riemann_roch_check(p) for p in B.pieces), Fraction(0)) - n_active_euler(B)
    return CohomologyReport(state[0], state[1], euler, method="chain")


def _node_rows(B: ChainBundle) -> tuple[list[list[Fraction]], int, int]:
    """Node evaluation matrix of the normalization sequence.

    Returns (rows, n_active_nodes, total_h0).  Columns index the concatenated
    component section bases; row j (for an active node) takes the value of the
    section on component j at its x2 end minus the value on component j+1 at
    its x1 end.  Inactive nodes (isotropy acting nontrivially on the fiber)
    contribute no row: the fiber has no invariant sections there.
    """
    bases = []
    offsets = [0]
    for piece in B.pieces:
        _, basis = h0_component(piece)
        bases.append(basis)
        offsets.append(offsets[-1] + len(basis))
    total = offsets[-1]
    rows: list[list[Fraction]] = []
    n_active = 0
    for j, k in B.chain.nodes:
        if not acts_trivially_at(B.pieces[j], MarkedPoint.X2):
            continue
        n_active += 1
        row = [Fraction(0)] * total
        for n in bases[j].nonzero_at(MarkedPoint.X2):
            row[offsets[j] + n] = Fraction(1)
        for n in bases[k].nonzero_at(MarkedPoint.X1):
            row[offsets[k] + n] = Fraction(-1)
        rows.append(row)
    return rows, n_active, total


def h_chain_by_elimination(B: ChainBundle) -> tuple[int, int]:
    """Oracle for h_chain: (h0, h1) from the whole node matrix by Gaussian elimination."""
    h1_comps = sum(h1_component(p)[0] for p in B.pieces)
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
