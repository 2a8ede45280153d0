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
by the brute-force oracle `oracles.brute_force_age`, which enumerates the
isotropy group, locates the canonical generator by its chart weight and reads
off the fiber weight directly:

  * at x1 the element h = (e^{2 pi i/l1}, e^{2 pi i/l2}, e^{-2 pi i/(a l1)})
    generates the isotropy; it acts on the chart coordinate by the exponent
    (a*l1 - b*l2)/c and on the fiber by (a*l2*k1 + a*l1*k2 - l2*d)/c, with
    c = a*l1*l2.  The chart exponent is a unit mod c, so the canonical
    generator is h^t with t = (a*l1 - b*l2)^{-1} mod c.
  * at x2 symmetrically with r2 = b*l1*l2 and the roles of the two
    coordinates swapped.

Every derived bundle is built from checked ints by reduction alone
(`_reduced`).  A chain bundle built by `ChainBundle` is checked node by
node.  Its dual and its twists at the chain's own marked points are not
checked again, because neither can unbalance a balanced node: the age
numerators are linear in (k1, k2, d) mod r, so the dual negates both
numerators at a node and keeps their sum 0 mod r, and O(x1) has age 0 at x2
and O(x2) age 0 at x1, so a twist at the chain's ends leaves every node's
ages unchanged.  Every bundle from outside, such as a parsed document, goes
through the checking constructor.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import X1, X2, CurveChain, MarkedPoint, TwistedComponent


@dataclass(frozen=True)
class EqLineBundle:
    comp: TwistedComponent
    k1: int = 0
    k2: int = 0
    d: int = 0

    def __post_init__(self):
        comp, k1, k2, d = self.comp, self.k1, self.k2, self.d
        if type(k1) is not int or type(k2) is not int or type(d) is not int:
            name, v = next((n, v) for n, v in (("k1", k1), ("k2", k2), ("d", d)) if type(v) is not int)
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if not 0 <= k1 < comp.l1:
            object.__setattr__(self, "k1", k1 % comp.l1)
        if not 0 <= k2 < comp.l2:
            object.__setattr__(self, "k2", k2 % comp.l2)

    @property
    def degree(self) -> Fraction:
        return Fraction(self.d, self.comp.a * self.comp.b * self.comp.l1 * self.comp.l2)

    def __str__(self) -> str:
        return f"O^{{{self.k1},{self.k2}}}({self.d}) on {self.comp}"


def _reduced(comp: TwistedComponent, k1: int, k2: int, d: int) -> EqLineBundle:
    """O^{k1,k2}(d) on comp from ints that are already checked, built unchecked: k1 and k2 are only reduced."""
    L, put = object.__new__(EqLineBundle), object.__setattr__
    put(L, "comp", comp)
    put(L, "k1", k1 % comp.l1)
    put(L, "k2", k2 % comp.l2)
    put(L, "d", d)
    return L


def tensor(L: EqLineBundle, M: EqLineBundle) -> EqLineBundle:
    if L.comp != M.comp:
        raise ValueError(f"component mismatch: {L.comp} vs {M.comp}")
    return _reduced(L.comp, L.k1 + M.k1, L.k2 + M.k2, L.d + M.d)


def dual(L: EqLineBundle) -> EqLineBundle:
    return _reduced(L.comp, -L.k1, -L.k2, -L.d)


def twist_marked(L: EqLineBundle, pt: MarkedPoint, sign: int) -> EqLineBundle:
    """L(sign * pt): L tensored with O(pt) or with its dual, where O(x1) is the
    divisor class of the coordinate section y and O(x2) that of x."""
    if sign not in (1, -1) or not isinstance(sign, int):
        raise ValueError("twist sign must be +1 or -1")
    if pt is X1:
        return _reduced(L.comp, L.k1, L.k2 + sign, L.d + sign * L.comp.b)
    if pt is X2:
        return _reduced(L.comp, L.k1 + sign, L.k2, L.d + sign * L.comp.a)
    raise ValueError(f"unknown marked point {pt!r}")


def canonical_bundle(comp: TwistedComponent) -> EqLineBundle:
    """omega = O(-x1 - x2); its equivariant lift is fixed so omega(x1+x2) = O^{0,0}(0).

    The duals of O(x1) and O(x2) are O^{0,-1}(-b) and O^{-1,0}(-a), so omega = O^{-1,-1}(-a-b)."""
    return _reduced(comp, -1, -1, -comp.a - comp.b)


def _age_data(L: EqLineBundle, pt: MarkedPoint) -> tuple[int, int]:
    """(weight numerator, isotropy order) of the canonical generator on the fiber."""
    comp = L.comp
    if pt is X1:
        r, t = comp.c, comp.chart_inverses[0]
        num = comp.a * (comp.l2 * L.k1 + comp.l1 * L.k2) - comp.l2 * L.d
    elif pt is X2:
        r, t = comp.d, comp.chart_inverses[1]
        num = comp.b * (comp.l2 * L.k1 + comp.l1 * L.k2) - comp.l1 * L.d
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
            if piece.comp is not comp and piece.comp != comp
        ]
        if not violations:
            for j in range(len(pieces) - 1):
                left, r = _age_data(pieces[j], X2)
                right, _ = _age_data(pieces[j + 1], X1)
                if (left + right) % r:
                    violations.append(
                        f"node {j}: unbalanced fiber characters "
                        f"(ages {Fraction(left, r)} and {Fraction(right, r)})"
                    )
        if violations:
            raise ValueError("; ".join(violations))


def _derived(B: ChainBundle, pieces: tuple[EqLineBundle, ...]) -> ChainBundle:
    """A bundle on B's chain, balanced because B is (see the module docstring), built unchecked."""
    out = object.__new__(ChainBundle)
    object.__setattr__(out, "chain", B.chain)
    object.__setattr__(out, "pieces", pieces)
    return out


def chain_dual(B: ChainBundle) -> ChainBundle:
    return _derived(B, tuple(dual(p) for p in B.pieces))


def chain_twist(B: ChainBundle, pt: MarkedPoint, sign: int) -> ChainBundle:
    """Twist by a marked point of the chain: X1 of the first or X2 of the last component."""
    pieces = B.pieces
    if pt is X1:
        pieces = (twist_marked(pieces[0], X1, sign), *pieces[1:])
    elif pt is X2:
        pieces = (*pieces[:-1], twist_marked(pieces[-1], X2, sign))
    else:
        raise ValueError(f"unknown marked point {pt!r}")
    return _derived(B, pieces)


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of chain line bundles (the pullback of a rank-r bundle)."""

    summands: tuple[ChainBundle, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if any(s.chain is not self.chain and s.chain != self.chain for s in self.summands[1:]):
            raise ValueError("all summands must live on the same chain")

    @property
    def rank(self) -> int:
        return len(self.summands)

    @property
    def chain(self) -> CurveChain:
        return self.summands[0].chain
