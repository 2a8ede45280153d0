"""Exact scalar foundations: rationals, roots of unity e^{i*pi*r}, and gcd utilities.

Every quantity in this library (degrees, ages, pairing values, signs) is an
exact rational or a rational combination of phases e^{i*pi*r} with r rational.
Such combinations are `PhasedScalar`s: elements of a cyclotomic field, kept as
integer exponents k over a conductor n (e^{i*pi*k/n}) with Fraction
coefficients, and compared as complex numbers.  No floating point is used
anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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

    The split is made canonical by taking for l2 the part of l made of primes
    dividing b (dividing out gcd(l1, b) until it is 1, so no factorization).
    Requires gcd(a, b) = 1, which makes the three gcd conditions achievable.
    """
    if l < 1 or a < 1 or b < 1:
        raise ValueError("canonical_split expects positive integers")
    if gcd(a, b) != 1:
        raise ValueError(f"canonical_split requires gcd(a,b)=1, got gcd({a},{b})={gcd(a, b)}")
    l1, l2 = l, 1
    g = gcd(l1, b)
    while g > 1:
        l1 //= g
        l2 *= g
        g = gcd(l1, b)
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
        e = as_rational(self.exponent)
        k = e.numerator % (2 * e.denominator)
        if k != e.numerator:
            e = Fraction(k, e.denominator)
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


def _vanishes(n: int, coeffs: dict[int, Fraction]) -> bool:
    """Whether sum_k coeffs[k] * z^k = 0 for z a primitive n-th root of unity, 0 <= k < n.

    One prime p of n at a time, on the sparse map (cost set by the number of
    terms and of prime factors, not by n):
    - p^2 | n: z^k = z^(k mod p) * (z^p)^(k div p), and 1, z, ..., z^(p-1) is a
      basis of Q(z) over Q(z^p), so each class k mod p vanishes at n/p.
    - p || n, m = n/p: z^k = w^(u*k) * y^(v*k) with w = z^m of order p, y = z^p
      of order m, u = 1/m mod p and v = 1/p mod m.  Over Q(y), 1, w, ..., w^(p-2)
      is a basis and w^(p-1) is minus their sum, so the element is zero iff its
      p classes k mod p are equal in Q(y).  Relabelling the classes by u and
      applying the automorphism y -> y^(1/v) keep that condition, so class
      k mod p is compared as sum c_k * y^(k mod m).
    """
    if len(coeffs) <= 1:
        return not coeffs
    p = min(factorize(n))
    m = n // p
    classes: list[dict[int, Fraction]] = [{} for _ in range(p)]
    if m % p == 0:
        for k, c in coeffs.items():
            classes[k % p][k // p] = c
        return all(_vanishes(m, cl) for cl in classes)
    for k, c in coeffs.items():
        classes[k % p][k % m] = c
    ref = min(classes, key=len)
    return all(_vanishes(m, _difference(cl, ref)) for cl in classes if cl is not ref)


def _difference(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for k, c in b.items():
        c = out.pop(k, 0) - c
        if c:
            out[k] = c
    return out


@lru_cache(maxsize=None)
def _root_trace(m: int) -> Fraction:
    """Normalized trace mu(m)/phi(m) of a primitive m-th root of unity: the
    mean of its conjugates, the same in every cyclotomic field containing it."""
    mu = phi = 1
    for p, e in factorize(m).items():
        mu = 0 if e > 1 else -mu
        phi *= (p - 1) * p ** (e - 1)
    return Fraction(mu, phi)


def _make(n: int, coeffs: dict[int, Fraction]) -> "PhasedScalar":
    """A PhasedScalar from an already normalized coefficient map at conductor n."""
    x = object.__new__(PhasedScalar)
    x._n = n
    x._coeffs = coeffs
    return x


def _phase_term(e: Fraction, c: Fraction) -> "PhasedScalar":
    """c * e^{i*pi*e} at conductor denominator(e), the exponent folded into [0, 1)."""
    n = e.denominator
    k = e.numerator % (2 * n)
    if k >= n:
        k -= n
        c = -c
    return _make(n, {k: c} if c else {})


class PhasedScalar:
    """Exact element of a cyclotomic field: a rational combination of phases.

    Stored as an integer conductor n >= 1 and a map {k: nonzero Fraction} with
    0 <= k < n, meaning sum_k coeff[k] * e^{i*pi*k/n}.  An exponent k/n in
    [1, 2) is folded to k/n - 1 with negated coefficient, so e^{i*pi} and -1
    coincide; the map is otherwise the one of the group ring, which is what
    `terms` ({exponent in [0, 1): coefficient}) and `str()` show.

    `==` is equality of complex numbers.  Equal maps at one conductor are the
    fast path; otherwise the difference is tested for zero one prime of 2n at
    a time (`_vanishes`), so that 1 + w + w^2 (w = e^{2*pi*i/3}) is zero and
    e^{i*pi/3} + e^{-i*pi/3} == 1.  The hash, `is_rational` and `to_rational`
    use the normalized trace, which every representation of a number shares.
    """

    __slots__ = ("_n", "_coeffs")

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        acc = _make(1, {})
        for e, c in (terms or {}).items():
            acc = acc + _phase_term(as_rational(e), as_rational(c))
        self._n = acc._n
        self._coeffs = acc._coeffs

    @classmethod
    def from_rational(cls, c) -> "PhasedScalar":
        c = as_rational(c)
        return _make(1, {0: c} if c else {})

    @classmethod
    def from_phase(cls, p: Phase, coeff=1) -> "PhasedScalar":
        return _phase_term(p.exponent, as_rational(coeff))

    @staticmethod
    def coerce(x) -> "PhasedScalar":
        if isinstance(x, PhasedScalar):
            return x
        if isinstance(x, Phase):
            return PhasedScalar.from_phase(x)
        return PhasedScalar.from_rational(x)

    @property
    def terms(self) -> dict[Fraction, Fraction]:
        """{exponent e in [0, 1): coefficient} for sum_e coeff * e^{i*pi*e}."""
        return {Fraction(k, self._n): c for k, c in self._coeffs.items()}

    def _at(self, n: int) -> dict[int, Fraction]:
        """The coefficient map at conductor n, a multiple of this one's."""
        if n == self._n:
            return self._coeffs
        s = n // self._n
        return {k * s: c for k, c in self._coeffs.items()}

    def __add__(self, other) -> "PhasedScalar":
        other = PhasedScalar.coerce(other)
        n = self._n if self._n == other._n else lcm(self._n, other._n)
        out = dict(self._at(n))
        for k, c in other._at(n).items():
            if k in out:
                c += out[k]
                if c:
                    out[k] = c
                else:
                    del out[k]
            else:
                out[k] = c
        return _make(n, out)

    __radd__ = __add__

    def __neg__(self) -> "PhasedScalar":
        return _make(self._n, {k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other) -> "PhasedScalar":
        return self + (-PhasedScalar.coerce(other))

    def __rsub__(self, other) -> "PhasedScalar":
        return PhasedScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "PhasedScalar":
        if not isinstance(other, PhasedScalar):
            if not isinstance(other, Phase):
                s = as_rational(other)
                return _make(self._n, {k: c * s for k, c in self._coeffs.items()} if s else {})
            other = PhasedScalar.from_phase(other)
        n = self._n if self._n == other._n else lcm(self._n, other._n)
        rhs = other._at(n).items()
        out: dict[int, Fraction] = {}
        for k1, c1 in self._at(n).items():
            for k2, c2 in rhs:
                k = k1 + k2
                c = c1 * c2
                if k >= n:
                    k -= n
                    c = -c
                if k in out:
                    out[k] += c
                else:
                    out[k] = c
        return _make(n, {k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        # Two phases e^{i*pi*k/n} with distinct k in [0, n) are never
        # proportional over Q, so only three or more terms can cancel.
        coeffs = self._coeffs
        return not coeffs if len(coeffs) <= 2 else _vanishes(2 * self._n, coeffs)

    def _trace(self) -> Fraction:
        """Normalized trace: the mean of the Galois conjugates, a rational."""
        n2 = 2 * self._n
        return sum((c * _root_trace(n2 // gcd(k, n2)) for k, c in self._coeffs.items()), Fraction(0))

    def _rational_value(self) -> Fraction | None:
        if not self._coeffs.keys() - {0}:
            return self._coeffs.get(0, Fraction(0))
        # a rational number is its own normalized trace
        t = self._trace()
        return t if (self - t).is_zero() else None

    def is_rational(self) -> bool:
        return self._rational_value() is not None

    def to_rational(self) -> Fraction:
        q = self._rational_value()
        if q is None:
            raise ValueError(f"not a rational scalar: {self}")
        return q

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PhasedScalar, int, Fraction, Phase)):
            return NotImplemented
        other = PhasedScalar.coerce(other)
        if self._n == other._n and self._coeffs == other._coeffs:
            return True
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self._trace())

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        bits = []
        for k in sorted(self._coeffs):
            c = self._coeffs[k]
            bits.append(str(c) if k == 0 else f"{c}*e^{{i*pi*{Fraction(k, self._n)}}}")
        return " + ".join(bits)

    __repr__ = __str__
