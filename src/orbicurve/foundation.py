"""Exact scalar foundations: rationals, roots of unity e^{i*pi*r}, and gcd utilities.

Every quantity in this library (degrees, ages, pairing values, signs) is an
exact rational or a rational combination of phases e^{i*pi*r} with r rational.
No floating point is used anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# All rational quantities are plain fractions.Fraction values, kept in lowest
# terms with positive denominator by the stdlib.
Rational = Fraction


class InternalInconsistency(RuntimeError):
    """Two independent computations of the same number disagreed: a bug."""


def as_rational(x) -> Fraction:
    """Coerce ints / fractions / 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division. Inputs here are tiny."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def canonical_split(l: int, a: int, b: int) -> tuple[int, int]:
    """Split l = l1*l2 with gcd(l1,l2) = gcd(l1,b) = gcd(l2,a) = 1.

    The split is made canonical by routing each prime power of l that divides
    a into l1, each dividing b into l2, and each dividing neither into l1.
    Requires gcd(a, b) = 1, which makes the three gcd conditions achievable.
    """
    if l < 1 or a < 1 or b < 1:
        raise ValueError("canonical_split expects positive integers")
    if gcd(a, b) != 1:
        raise ValueError(f"canonical_split requires gcd(a,b)=1, got gcd({a},{b})={gcd(a, b)}")
    l1 = l2 = 1
    for p, e in factorize(l).items():
        if b % p == 0:
            l2 *= p**e
        else:
            l1 *= p**e
    if not (l1 * l2 == l and gcd(l1, l2) == 1 and gcd(l1, b) == 1 and gcd(l2, a) == 1):
        raise InternalInconsistency(f"canonical_split({l}, {a}, {b}) gave inadmissible ({l1}, {l2})")
    return l1, l2


@dataclass(frozen=True)
class Phase:
    """The root of unity e^{i*pi*exponent}, exponent an exact rational mod 2.

    Phases form an abelian group under multiplication (exponents add mod 2).
    exponent 0 is +1 and exponent 1 is -1; nothing is ever rounded.
    """

    exponent: Fraction

    def __post_init__(self):
        e = as_rational(self.exponent) % 2
        object.__setattr__(self, "exponent", e)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def inverse(self) -> "Phase":
        return Phase(-self.exponent)

    def pow(self, n: int) -> "Phase":
        return Phase(self.exponent * n)

    def is_sign(self) -> int | None:
        """Return +1 or -1 when the phase is real, None otherwise."""
        if self.exponent == 0:
            return 1
        if self.exponent == 1:
            return -1
        return None

    def __str__(self) -> str:
        return f"e^{{i*pi*{self.exponent}}}"


PHASE_ONE = Phase(Fraction(0))
PHASE_MINUS_ONE = Phase(Fraction(1))


class PhasedScalar:
    """Exact element of the ring of rational combinations of phases.

    Stored canonically as a map {e in [0,1) rational -> nonzero Fraction}
    meaning sum_e coeff[e] * e^{i*pi*e}; an exponent in [1,2) is folded to
    exponent-1 with negated coefficient, so e^{i*pi} and -1 coincide.  The
    purely rational elements are exactly those supported on exponent 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        folded: dict[Fraction, Fraction] = {}
        for e, c in (terms or {}).items():
            e = as_rational(e) % 2
            c = as_rational(c)
            if c == 0:
                continue
            if e >= 1:
                e -= 1
                c = -c
            folded[e] = folded.get(e, Fraction(0)) + c
            if folded[e] == 0:
                del folded[e]
        self.terms = folded

    @classmethod
    def from_rational(cls, c) -> "PhasedScalar":
        return cls({Fraction(0): as_rational(c)})

    @classmethod
    def from_phase(cls, p: Phase, coeff=1) -> "PhasedScalar":
        return cls({p.exponent: as_rational(coeff)})

    @staticmethod
    def coerce(x) -> "PhasedScalar":
        if isinstance(x, PhasedScalar):
            return x
        if isinstance(x, Phase):
            return PhasedScalar.from_phase(x)
        return PhasedScalar.from_rational(x)

    def __add__(self, other) -> "PhasedScalar":
        other = PhasedScalar.coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PhasedScalar(out)

    __radd__ = __add__

    def __neg__(self) -> "PhasedScalar":
        return PhasedScalar({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "PhasedScalar":
        return self + (-PhasedScalar.coerce(other))

    def __rsub__(self, other) -> "PhasedScalar":
        return PhasedScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "PhasedScalar":
        other = PhasedScalar.coerce(other)
        out: dict[Fraction, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1 + e2) % 2
                c = c1 * c2
                if e >= 1:
                    e -= 1
                    c = -c
                out[e] = out.get(e, Fraction(0)) + c
        return PhasedScalar(out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(e == 0 for e in self.terms)

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return self.terms.get(Fraction(0), Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Phase, PhasedScalar)):
            return self.terms == PhasedScalar.coerce(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            bits.append(str(c) if e == 0 else f"{c}*e^{{i*pi*{e}}}")
        return " + ".join(bits)

    __repr__ = __str__
