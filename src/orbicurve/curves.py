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
from functools import cached_property
from math import gcd

from .foundation import as_rational, canonical_split


class MarkedPoint(enum.Enum):
    X1 = "x1"
    X2 = "x2"


# Sentinel accepted by isotropy_order for a generic (untwisted) point.
GENERIC = None


@dataclass(frozen=True)
class TwistedComponent:
    """One smooth rational component, encoded by (a, b, l1, l2)."""

    a: int
    b: int
    l1: int = 1
    l2: int = 1

    def __post_init__(self):
        for name in ("a", "b", "l1", "l2"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if gcd(self.a, self.b) != 1:
            raise ValueError(f"gcd(a,b)={gcd(self.a, self.b)} != 1")
        if gcd(self.l1, self.l2) != 1:
            raise ValueError(f"gcd(l1,l2)={gcd(self.l1, self.l2)} != 1")
        if gcd(self.l1, self.b) != 1:
            raise ValueError(f"gcd(l1,b)={gcd(self.l1, self.b)} != 1")
        if gcd(self.l2, self.a) != 1:
            raise ValueError(f"gcd(l2,a)={gcd(self.l2, self.a)} != 1")

    @cached_property
    def chart_inverses(self) -> tuple[int, int]:
        """(a*l1 - b*l2)^-1 mod c and (b*l2 - a*l1)^-1 mod d, the powers taken in `bundles._age_data`."""
        u = self.a * self.l1 - self.b * self.l2
        return pow(u, -1, self.c), pow(-u, -1, self.d)

    @property
    def l(self) -> int:
        return self.l1 * self.l2

    @property
    def c(self) -> int:
        """Isotropy order at x1."""
        return self.a * self.l1 * self.l2

    @property
    def d(self) -> int:
        """Isotropy order at x2."""
        return self.b * self.l1 * self.l2

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
    if pt is MarkedPoint.X1:
        return comp.c
    if pt is MarkedPoint.X2:
        return comp.d
    if pt is GENERIC:
        return 1
    raise ValueError(f"unknown point {pt!r}")


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
        tags = tuple(as_rational(t) for t in self.degree_tags) if self.degree_tags else tuple(
            Fraction(1) for _ in comps
        )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "degree_tags", tags)
        violations: list[str] = []
        if not comps:
            violations.append("chain has no components")
        if len(tags) != len(comps):
            violations.append(f"degree tag count {len(tags)} != component count {len(comps)}")
        for j, t in enumerate(tags):
            if t <= 0:
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


# ---------------------------------------------------------------------------
# Brute-force isotropy oracle.
#
# Independent of everything above: enumerate group elements as exact rational
# rotation numbers and count those fixing x1 = (1,0), x2 = (0,1) or a generic
# point with x, y != 0.  A triple (m1/l1, m2/l2, s/M) fixes
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
