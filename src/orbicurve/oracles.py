"""Independent routes that exist only to check the fast path.

Each recomputes, by a slower route of its own, a quantity that another module
computes in closed form or by a fold: `h_chain_by_elimination` lists every
piece's monomials and eliminates the whole node matrix (against the residue
counts and the chain fold of `cohomology`), the pairings and
the transport of `StateElement` classes walk the sectors one by one (against
the sector-block Gram matrices of `wps`), `brute_force_age` and
`brute_force_isotropy_counts` enumerate the isotropy groups (against the
closed forms of `bundles` and `curves`), and `iter_chains` walks the chains
that the chain sweeps of `suites` count without walking them.  Only `suites`
imports this module, and it calls through the module attribute, so a test
can patch an oracle.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .bundles import ChainBundle, EqLineBundle
from .curves import MarkedPoint, TwistedComponent
from .foundation import InternalInconsistency, PhasedScalar
from .wps import (
    Sector,
    WPSModel,
    _no_euler,
    dual_euler_factor,
    euler_factor,
    integrate,
    sector_at,
    state_basis,
)


def _section_monomials(a: int, b: int, l1: int, l2: int, k1: int, k2: int, d: int) -> list[tuple[int, int]]:
    """Exponents (i, j) of the invariant monomials x^i y^j spanning H^0(O^{k1,k2}(d)), by ascending i:
    i = k1, k1 + l1, ... up to d // a (0 <= k1 < l1), where b*j = d - a*i has a solution j = k2 (mod l2)."""
    monos = []
    for i in range(k1, d // a + 1, l1):
        rem = d - a * i
        if rem % b == 0 and (rem // b) % l2 == k2:
            monos.append((i, rem // b))
    return monos


def _negative_monomials(a: int, b: int, l1: int, l2: int, k1: int, k2: int, d: int) -> list[tuple[int, int]]:
    """Exponents (p, q) of the invariant monomials x^-p y^-q spanning H^1(O^{k1,k2}(d)): the p >= 1 with
    p = -k1 (mod l1), up to (-d - b) // a, where b*q = -d - a*p has a solution q >= 1, q = -k2 (mod l2)."""
    monos = []
    for p in range(-k1 % l1 or l1, (-d - b) // a + 1, l1):
        rem = -d - a * p
        if rem % b == 0 and -(rem // b) % l2 == k2:
            monos.append((p, rem // b))
    return monos


def _trivial_at_x2(b: int, l2: int, k1: int, k2: int, d: int) -> bool:
    """Whether the isotropy group at x2 acts trivially on the fiber of O^{k1,k2}(d).

    (z1, z2, lam) fixes x2 = (0, 1) iff lam^b * z2 = 1, and acts on the fiber
    by lam^d * z1^k1 * z2^k2 = lam^(d - b*k2) * z1^k1.  On that group z1 runs
    over mu_l1 and lam over the (b*l2)-th roots of unity, independently, so
    the action is trivial iff k1 = 0 (mod l1) and b*l2 divides d - b*k2.
    """
    return k1 == 0 and d % b == 0 and (d // b - k2) % l2 == 0


def _integer_rank(rows) -> int:
    """Rank of an integer matrix given by its rows' nonzero entries, as (column, value) pairs or {column: value}.

    Fraction-free elimination: each row is reduced against the pivot rows
    found so far, keyed by their leading column, as r -> p[c]*r - r[c]*p with
    the content divided out; it becomes a pivot row when its leading column
    has none, and adds nothing when it reduces to zero.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            a, b = p[lead], r[lead]
            r = {c: a * r.get(c, 0) - b * p.get(c, 0) for c in r.keys() | p.keys()}
            r = {c: v for c, v in r.items() if v}
            g = gcd(*r.values()) if r else 1
            if g != 1:
                r = {c: v // g for c, v in r.items()}
    return len(pivots)


def h_chain_by_elimination(B: ChainBundle) -> tuple[int, int]:
    """(h0, h1) of a chain bundle by integer elimination of the whole node matrix, over listed monomials.

    The node matrix is the evaluation map of the normalization sequence,
    kept by its rows' nonzero entries.  Its columns index the concatenated
    component section bases; the row of an active node j takes the value of
    the section on component j at its x2 end minus the value on component
    j+1 at its x1 end, as [(column, +-1), ...].  A monomial x^i y^j is
    nonzero at x2 iff i = 0 and at x1 iff j = 0, so in a listing by
    ascending i only the first and the last monomial can be.  Inactive
    nodes (isotropy acting nontrivially on the fiber) contribute no row: the
    fiber has no invariant sections there.  Nor does an active node that no
    section reaches, whose row is zero.
    """
    rows, n_active, h0, h1 = [], 0, 0, 0
    row = None  # the row of the node before the current piece, while it is active
    for p in B.pieces:
        a, b, l1, l2, k1, k2, d = p.comp.a, p.comp.b, p.comp.l1, p.comp.l2, p.k1, p.k2, p.d
        monos = _section_monomials(a, b, l1, l2, k1, k2, d)
        h1 += len(_negative_monomials(a, b, l1, l2, k1, k2, d))
        if row is not None:  # close it with the value at this piece's x1 end
            n_active += 1
            if monos and monos[-1][1] == 0:
                row.append((h0 + len(monos) - 1, -1))
            if row:
                rows.append(row)
        row = ([(h0, 1)] if monos and monos[0][0] == 0 else []) if _trivial_at_x2(b, l2, k1, k2, d) else None
        h0 += len(monos)
    rank = _integer_rank(rows)
    return h0 - rank, h1 + n_active - rank


def iter_chains(comps: list[tuple], max_len: int, first: int | None = None):
    """Yield the chains of up to `max_len` components (a, b, l1, l2) of `comps`,
    as tuples of indices, lazily in depth-first pre-order: a chain, then its
    extensions in ascending index order, each followed by its own.

    A component may follow another when its x1 order a*l1*l2 equals the
    other's x2 order b*l1*l2.  The chain sweeps number their instances in
    this order without walking it.
    """
    after = [[j for j, (a, _, l1, l2) in enumerate(comps) if a * l1 * l2 == b * m1 * m2] for _, b, m1, m2 in comps]
    for i in range(len(comps)) if first is None else [first]:
        stack = [(i,)]
        while stack:
            path = stack.pop()
            yield path
            if len(path) < max_len:
                stack.extend(path + (j,) for j in reversed(after[path[-1]]))


class _SectorData(NamedTuple):
    """What the pairings read off one sector: the sector itself, the rotation
    1 - f it pairs with, and the integral of its top power of H."""

    sector: Sector
    partner: Fraction
    volume: Fraction


def _sector_data(m: WPSModel, s: Sector) -> _SectorData:
    return _SectorData(s, (1 - s.f) % 1, integrate(m, s, s.dim))


class StateElement:
    """A sector-graded polynomial class: rotation f -> coefficients of 1, H, H^2, ...

    Coefficients are Fractions or PhasedScalars; each sector's list is
    truncated at the sector dimension.  `sectors` ({rotation: _SectorData})
    may be shared by the elements of one computation, so that each sector is
    looked up once; a rotation missing from it is looked up and added.
    """

    def __init__(self, model: WPSModel, parts: dict[Fraction, list] | None = None, sectors: dict | None = None):
        self.model = model
        self.sectors = {} if sectors is None else sectors
        self.parts: dict[Fraction, list] = {}
        for f, coeffs in (parts or {}).items():
            f = Fraction(f) % 1
            if f not in self.sectors:
                self.sectors[f] = _sector_data(model, sector_at(model, f))
            dim = self.sectors[f].sector.dim
            coeffs = list(coeffs)
            if len(coeffs) > dim + 1:
                raise ValueError(f"class of degree > {dim} on sector {f}")
            coeffs += [Fraction(0)] * (dim + 1 - len(coeffs))
            self.parts[f] = coeffs

    @classmethod
    def basis(cls, model: WPSModel, f: Fraction, power: int, sectors: dict | None = None) -> "StateElement":
        return cls(model, {f: [Fraction(0)] * power + [Fraction(1)]}, sectors)


def _is_zero(x) -> bool:
    if isinstance(x, PhasedScalar):
        return x.is_zero()
    return x == 0


def _pair_sectorwise(m: WPSModel, alpha: StateElement, beta: StateElement, euler) -> PhasedScalar:
    """Common core of the three pairings: sum over f of the top-degree part of
    alpha_f * beta_{1-f} * (extra Euler factor from `euler`)."""
    acc = PhasedScalar()
    for f, a_coeffs in alpha.parts.items():
        s, g, vol = alpha.sectors[f]
        if g not in beta.parts:
            continue
        e_coeff, e_power = euler(m, s)
        top = s.dim - e_power
        if top < 0:
            continue
        b_coeffs = beta.parts[g]
        for p, a in enumerate(a_coeffs):
            q = top - p
            if not (0 <= q < len(b_coeffs)):
                continue
            b = b_coeffs[q]
            if _is_zero(a) or _is_zero(b):
                continue
            acc = acc + PhasedScalar.coerce(a) * PhasedScalar.coerce(b) * (e_coeff * vol)
    return acc


def cr_pairing(m: WPSModel, alpha: StateElement, beta: StateElement) -> PhasedScalar:
    """Orbifold Poincare pairing."""
    return _pair_sectorwise(m, alpha, beta, _no_euler)


def ambient_pairing(m: WPSModel, alpha: StateElement, beta: StateElement) -> PhasedScalar:
    """Pairing of ambient classes on the cut-out substack, via the Euler factor."""
    return _pair_sectorwise(m, alpha, beta, euler_factor)


def ct_pairing(m: WPSModel, alpha: StateElement, beta: StateElement) -> PhasedScalar:
    """Compact-type pairing on the dual bundle total space (classes given by
    their zero-section preimages)."""
    return _pair_sectorwise(m, alpha, beta, dual_euler_factor)


def delta_tilde(m: WPSModel, gamma: StateElement) -> StateElement:
    """The phase-corrected transport of a compact-type class to an ambient
    class, each sector's age summed here from its fiber weights."""
    out: dict[Fraction, list] = {}
    for f, coeffs in gamma.parts.items():
        age = sum(gamma.sectors[f].sector.fiber_weights.weights, Fraction(0))
        phase = PhasedScalar.root(age.numerator, age.denominator)
        out[f] = [phase * PhasedScalar.coerce(c) for c in coeffs]
    return StateElement(m, out, gamma.sectors)


def _pairing_sides_by_elements(m: WPSModel) -> tuple[list, list, list]:
    """(basis, <delta(g1), delta(g2)>_ambient, (-1)^rank <g1, g2>_ct) from
    delta_tilde and the full pairings of basis StateElements, each of which
    walks the sectors on its own."""
    sign = (-1) ** m.rank
    basis = state_basis(m)
    by_f = {s.f: _sector_data(m, s) for s in m.sectors}
    elems = [StateElement.basis(m, f, p, by_f) for f, p in basis]
    moved = [delta_tilde(m, g) for g in elems]
    lhs = [[ambient_pairing(m, a, b) for b in moved] for a in moved]
    rhs = [[ct_pairing(m, a, b) * sign for b in elems] for a in elems]
    return basis, lhs, rhs


# ---------------------------------------------------------------------------
# Brute-force age oracle: enumerate the isotropy group at a marked point as
# exact rotation numbers, find the unique element acting on the chart
# coordinate by e^{2*pi*i/r}, and return its fiber weight.  Shares nothing
# with the closed form of `bundles` beyond the group action itself.
# ---------------------------------------------------------------------------


def brute_force_age(L: EqLineBundle, pt: MarkedPoint) -> Fraction:
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    k1, k2, d = L.k1, L.k2, L.d
    elements: list[tuple[int, int, Fraction]] = []
    if pt is MarkedPoint.X1:
        r = a * l1 * l2
        for s in range(a * l1):
            lam = Fraction(s, a * l1)
            m1 = (-s) % l1
            for m2 in range(l2):
                elements.append((m1, m2, lam))
        chart = lambda m1, m2, lam: (b * lam + Fraction(m2, l2)) % 1
    elif pt is MarkedPoint.X2:
        r = b * l1 * l2
        for s in range(b * l2):
            lam = Fraction(s, b * l2)
            m2 = (-s) % l2
            for m1 in range(l1):
                elements.append((m1, m2, lam))
        chart = lambda m1, m2, lam: (a * lam + Fraction(m1, l1)) % 1
    else:
        raise ValueError(f"unknown marked point {pt!r}")
    if len(elements) != r:
        raise InternalInconsistency(f"isotropy group at {pt} of {L.comp} has {len(elements)} elements, not {r}")
    gens = [e for e in elements if chart(*e) == Fraction(1, r) % 1]
    if len(gens) != 1:
        raise InternalInconsistency(f"chart representation at {pt} of {L.comp} is not faithful")
    m1, m2, lam = gens[0]
    return (d * lam + Fraction(m1 * k1, l1) + Fraction(m2 * k2, l2)) % 1


# ---------------------------------------------------------------------------
# Brute-force isotropy oracle.
#
# Enumerate group elements as exact rational rotation numbers and count those
# fixing x1 = (1,0), x2 = (0,1) or a generic point with x, y != 0.  A triple
# (m1/l1, m2/l2, s/M) fixes
#   (1,0)      iff  a*s/M + m1/l1 in Z,
#   (0,1)      iff  b*s/M + m2/l2 in Z,
#   generic    iff  both hold.
# Any fixing element satisfies lam^{a*l1} = 1 or lam^{b*l2} = 1, so taking M
# divisible by a*b*l1*l2 exhausts all candidates.
# ---------------------------------------------------------------------------


def brute_force_isotropy_counts(comp: TwistedComponent) -> dict[str, int]:
    a, b, l1, l2 = comp.a, comp.b, comp.l1, comp.l2
    M = a * b * l1 * l2
    n_x1 = n_x2 = n_gen = 0
    # Distinct triples (m1, m2, s) are distinct elements of mu_l1 x mu_l2 x mu_M,
    # so counting fixing triples counts fixing group elements exactly once.
    for m1 in range(l1):
        for m2 in range(l2):
            for s in range(M):
                fix1 = (a * s * l1 + m1 * M) % (l1 * M) == 0
                fix2 = (b * s * l2 + m2 * M) % (l2 * M) == 0
                if fix1:
                    n_x1 += 1
                if fix2:
                    n_x2 += 1
                if fix1 and fix2:
                    n_gen += 1
    return {"x1": n_x1, "x2": n_x2, "generic": n_gen}
