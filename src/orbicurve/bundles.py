"""Equivariant line bundles on curve components and chains.

A line bundle on the component with data (a, b, l1, l2) is presented by a
fiber coordinate z transforming as

    (z1, z2, lam) . z = lam^d * z1^k1 * z2^k2 * z,

so it is classified by (k1 mod l1, k2 mod l2, d in Z).  Its exact degree is
d / (a*b*l1*l2).

Ages at the marked points are the fractional fiber weights of the canonical
generator of the cyclic isotropy group, where "canonical" means the generator
acting on the local chart coordinate by e^{2*pi*i/r} (r the isotropy order).
The closed formula below is derived once from the group action and is pinned
by the brute-force oracle `brute_force_age`, which enumerates the isotropy
group, locates the canonical generator by its chart weight and reads off the
fiber weight directly:

  * at x1 the element h = (e^{2 pi i/l1}, e^{2 pi i/l2}, e^{-2 pi i/(a l1)})
    generates the isotropy; it acts on the chart coordinate by the exponent
    (a*l1 - b*l2)/c and on the fiber by (a*l2*k1 + a*l1*k2 - l2*d)/c, with
    c = a*l1*l2.  The chart exponent is a unit mod c, so the canonical
    generator is h^t with t = (a*l1 - b*l2)^{-1} mod c.
  * at x2 symmetrically with r2 = b*l1*l2 and the roles of the two
    coordinates swapped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import CurveChain, MarkedPoint, TwistedComponent
from .foundation import InternalInconsistency


@dataclass(frozen=True)
class EqLineBundle:
    comp: TwistedComponent
    k1: int = 0
    k2: int = 0
    d: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k1", self.k1 % self.comp.l1)
        object.__setattr__(self, "k2", self.k2 % self.comp.l2)

    @property
    def degree(self) -> Fraction:
        return Fraction(self.d, self.comp.a * self.comp.b * self.comp.l1 * self.comp.l2)

    def __str__(self) -> str:
        return f"O^{{{self.k1},{self.k2}}}({self.d}) on {self.comp}"


def trivial_bundle(comp: TwistedComponent) -> EqLineBundle:
    return EqLineBundle(comp, 0, 0, 0)


def tensor(L: EqLineBundle, M: EqLineBundle) -> EqLineBundle:
    if L.comp != M.comp:
        raise ValueError(f"component mismatch: {L.comp} vs {M.comp}")
    return EqLineBundle(L.comp, L.k1 + M.k1, L.k2 + M.k2, L.d + M.d)


def dual(L: EqLineBundle) -> EqLineBundle:
    return EqLineBundle(L.comp, -L.k1, -L.k2, -L.d)


def point_bundle(comp: TwistedComponent, pt: MarkedPoint) -> EqLineBundle:
    """O(x1) is the divisor class of the coordinate section y, O(x2) that of x."""
    if pt is MarkedPoint.X1:
        return EqLineBundle(comp, 0, 1, comp.b)
    if pt is MarkedPoint.X2:
        return EqLineBundle(comp, 1, 0, comp.a)
    raise ValueError(f"unknown marked point {pt!r}")


def twist_marked(L: EqLineBundle, pt: MarkedPoint, sign: int) -> EqLineBundle:
    if sign not in (1, -1):
        raise ValueError("twist sign must be +1 or -1")
    P = point_bundle(L.comp, pt)
    return tensor(L, P if sign == 1 else dual(P))


def canonical_bundle(comp: TwistedComponent) -> EqLineBundle:
    """omega = O(-x1 - x2); its equivariant lift is fixed so omega(x1+x2) = O^{0,0}(0)."""
    return tensor(dual(point_bundle(comp, MarkedPoint.X1)), dual(point_bundle(comp, MarkedPoint.X2)))


def _age_data(L: EqLineBundle, pt: MarkedPoint) -> tuple[int, int]:
    """(weight numerator, isotropy order) of the canonical generator on the fiber."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    if pt is MarkedPoint.X1:
        r = a * l1 * l2
        t = L.comp.chart_inverses[0]
        num = a * l2 * L.k1 + a * l1 * L.k2 - l2 * L.d
    elif pt is MarkedPoint.X2:
        r = b * l1 * l2
        t = L.comp.chart_inverses[1]
        num = b * l2 * L.k1 + b * l1 * L.k2 - l1 * L.d
    else:
        raise ValueError(f"unknown marked point {pt!r}")
    return (t * num) % r, r


def age_at(L: EqLineBundle, pt: MarkedPoint) -> Fraction:
    """Fractional weight in [0,1) of the canonical isotropy generator on the fiber."""
    num, r = _age_data(L, pt)
    return Fraction(num, r)


def acts_trivially_at(L: EqLineBundle, pt: MarkedPoint) -> bool:
    return _age_data(L, pt)[0] == 0


@dataclass(frozen=True)
class ChainBundle:
    """A line bundle on a chain: one EqLineBundle per component.

    Construction raises ValueError naming the violations: a piece count other
    than the component count, a piece on another component than the chain's,
    or an unbalanced node.  A node is balanced when the isotropy characters
    on the fibers of its two branches are inverse to one another; both ends
    have the node's isotropy order r, so the two age numerators over r sum
    to 0 mod r.
    """

    chain: CurveChain
    pieces: tuple[EqLineBundle, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        comps = self.chain.components
        if len(pieces) != len(comps):
            raise ValueError(f"bundle has {len(pieces)} pieces for {len(comps)} components")
        violations = [
            f"piece {j} lives on {piece.comp}, chain has {comp}"
            for j, (piece, comp) in enumerate(zip(pieces, comps))
            if piece.comp != comp
        ]
        if not violations:
            for j in range(len(pieces) - 1):
                left, r = _age_data(pieces[j], MarkedPoint.X2)
                right, _ = _age_data(pieces[j + 1], MarkedPoint.X1)
                if (left + right) % r:
                    violations.append(
                        f"node {j}: unbalanced fiber characters "
                        f"(ages {Fraction(left, r)} and {Fraction(right, r)})"
                    )
        if violations:
            raise ValueError("; ".join(violations))

    @property
    def degree(self) -> Fraction:
        return sum((p.degree for p in self.pieces), Fraction(0))


def chain_dual(B: ChainBundle) -> ChainBundle:
    return ChainBundle(B.chain, tuple(dual(p) for p in B.pieces))


def chain_twist(B: ChainBundle, pt: MarkedPoint, sign: int) -> ChainBundle:
    """Twist by a marked point of the chain: X1 of the first or X2 of the last component."""
    pieces = list(B.pieces)
    if pt is MarkedPoint.X1:
        pieces[0] = twist_marked(pieces[0], MarkedPoint.X1, sign)
    elif pt is MarkedPoint.X2:
        pieces[-1] = twist_marked(pieces[-1], MarkedPoint.X2, sign)
    else:
        raise ValueError(f"unknown marked point {pt!r}")
    return ChainBundle(B.chain, tuple(pieces))


def trivial_chain_bundle(chain: CurveChain) -> ChainBundle:
    return ChainBundle(chain, tuple(trivial_bundle(c) for c in chain.components))


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of chain line bundles (the pullback of a rank-r bundle)."""

    summands: tuple[ChainBundle, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if self.summands and len({s.chain for s in self.summands}) > 1:
            raise ValueError("all summands must live on the same chain")

    @property
    def rank(self) -> int:
        return len(self.summands)

    @property
    def chain(self) -> CurveChain:
        return self.summands[0].chain


# ---------------------------------------------------------------------------
# Brute-force age oracle: enumerate the isotropy group at a marked point as
# exact rotation numbers, find the unique element acting on the chart
# coordinate by e^{2*pi*i/r}, and return its fiber weight.  Shares nothing
# with _age_data beyond the group action itself.
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
