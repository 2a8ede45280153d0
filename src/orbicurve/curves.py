"""Two-pointed smooth twisted rational curves and nodal chains of them.

A smooth component with isotropy orders c and d at its two marked points is
presented as a quotient of the weighted projective line with weights (a, b)
by a product of two cyclic groups of orders l1 and l2, where l = gcd(c, d),
a = c/l, b = d/l and (l1, l2) is the canonical coprime split of l.  The
underlying group action on homogeneous coordinates (x, y) is

    (z1, z2, lam) . (x, y) = (lam^a * z1 * x,  lam^b * z2 * y),

with z1 an l1-th root of unity, z2 an l2-th root of unity and lam in C*.
The marked points are x1 = (1, 0) and x2 = (0, 1); their isotropy groups are
cyclic of orders a*l1*l2 and b*l1*l2, and the generic point has trivial
isotropy.  Chains glue x2 of one component to x1 of the next; a chain whose
two isotropy orders differ at some node cannot be built.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .foundation import as_rational, canonical_split


class MarkedPoint(enum.Enum):
    X1 = "x1"
    X2 = "x2"


# The members, bound once: `MarkedPoint.X1` goes through the Enum metaclass's
# attribute hook on every read, at several times the cost of a global.
X1, X2 = MarkedPoint.X1, MarkedPoint.X2


# Sentinel accepted by isotropy_order for a generic (untwisted) point.
GENERIC = None


@dataclass(frozen=True)
class TwistedComponent:
    """One smooth rational component, encoded by (a, b, l1, l2), whose equality and hash are the component's.

    Construction stores what the counts read: the isotropy orders `c`, `d` at x1, x2, `chart_inverses`
    ((a*l1 - b*l2)^-1 mod c and (b*l2 - a*l1)^-1 mod d, for `bundles._age_data`), the CRT units
    `h0_unit` = (a*l1)^-1 mod b*l2 and `h1_unit` = (b*l2)^-1 mod a*l1, and the hash."""

    a: int
    b: int
    l1: int = 1
    l2: int = 1

    def __post_init__(self):
        a, b, l1, l2 = self.a, self.b, self.l1, self.l2
        # One test for the four fields and one for the four coprimality
        # conditions (gcd(a*l1, b*l2) = 1 is all four of them); the loops only
        # word the error.  A bool is an int subclass, so the test is on type.
        if not (type(a) is type(b) is type(l1) is type(l2) is int and min(a, b, l1, l2) >= 1):
            for name, v in zip(("a", "b", "l1", "l2"), (a, b, l1, l2)):
                if type(v) is not int or v < 1:
                    raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if gcd(a * l1, b * l2) != 1:
            for names, x, y in (("a,b", a, b), ("l1,l2", l1, l2), ("l1,b", l1, b), ("l2,a", l2, a)):
                if gcd(x, y) != 1:
                    raise ValueError(f"gcd({names})={gcd(x, y)} != 1")
        c, d, u = a * l1 * l2, b * l1 * l2, a * l1 - b * l2
        put = object.__setattr__.__get__(self)
        put("c", c)
        put("d", d)
        put("chart_inverses", (pow(u, -1, c), pow(-u, -1, d)))
        put("h0_unit", pow(a * l1, -1, b * l2))
        put("h1_unit", pow(b * l2, -1, a * l1))
        put("_hash", hash((a, b, l1, l2)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.l1, self.l2) == (other.a, other.b, other.l1, other.l2)

    def __hash__(self) -> int:
        return self._hash

    @property
    def l(self) -> int:
        return self.l1 * self.l2

    def __str__(self) -> str:
        if self.l == 1:
            return f"P({self.a},{self.b})"
        return f"P({self.a},{self.b})/mu_{self.l}[{self.l1},{self.l2}]"


def present(c: int, d: int) -> TwistedComponent:
    """Present the curve with marked-point isotropy orders (c, d).

    Sets l = gcd(c, d), a = c/l, b = d/l and splits l canonically.
    """
    if c < 1 or d < 1:
        raise ValueError("isotropy orders must be positive")
    l = gcd(c, d)
    a, b = c // l, d // l
    l1, l2 = canonical_split(l, a, b)
    return TwistedComponent(a, b, l1, l2)


def isotropy_order(comp: TwistedComponent, pt: MarkedPoint | None = GENERIC) -> int:
    if pt is X1:
        return comp.c
    if pt is X2:
        return comp.d
    if pt is GENERIC:
        return 1
    raise ValueError(f"unknown point {pt!r}")


# The default degree tag, one object shared by every chain; the positivity
# check skips it by identity.
_ONE = Fraction(1)


@dataclass(frozen=True)
class CurveChain:
    """A linear chain of components; node j glues X2 of component j to X1 of j+1.

    degree_tags carry the (positive) map degree on each component; they are
    opaque bookkeeping here.  Construction raises ValueError naming every
    violation: no components, a tag count other than the component count, a
    non-positive tag, or a node whose two isotropy orders differ.  Each
    component of a linear chain has exactly two special points (its X1 and
    X2 ends, used as marking or node) by construction.
    """

    components: tuple[TwistedComponent, ...]
    degree_tags: tuple[Fraction, ...] = field(default=())

    def __post_init__(self):
        comps = tuple(self.components)
        tags = tuple(as_rational(t) for t in self.degree_tags) if self.degree_tags else (_ONE,) * len(comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "degree_tags", tags)
        violations: list[str] = []
        if not comps:
            violations.append("chain has no components")
        if len(tags) != len(comps):
            violations.append(f"degree tag count {len(tags)} != component count {len(comps)}")
        for j, t in enumerate(tags):
            if t is not _ONE and t <= 0:
                violations.append(f"component {j}: degree tag {t} is not positive")
        for j in range(len(comps) - 1):
            left, right = comps[j].d, comps[j + 1].c
            if left != right:
                violations.append(f"node {j}: node isotropy mismatch ({left} vs {right})")
        if violations:
            raise ValueError("; ".join(violations))

    def __len__(self) -> int:
        return len(self.components)

    @property
    def nodes(self) -> list[tuple[int, int]]:
        """Node j sits between components j and j+1 (0-based)."""
        return [(j, j + 1) for j in range(len(self.components) - 1)]
