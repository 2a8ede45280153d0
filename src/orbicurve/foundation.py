"""Exact scalar foundations: rationals, roots of unity e^{i*pi*r}, and gcd utilities.

Every quantity in this library (degrees, ages, pairing values, signs) is an
exact rational or a rational combination of phases e^{i*pi*r} with r rational.
Such combinations are `PhasedScalar`s: elements of a cyclotomic field, kept as
integer exponents k over a conductor n (e^{i*pi*k/n}) with integer numerators
over one positive denominator in lowest terms, and compared as complex
numbers.  No floating point is used anywhere.
"""
from __future__ import annotations

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
    if isinstance(x, (int, str)) and not isinstance(x, bool):
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


def _vanishes(n: int, coeffs: dict[int, int]) -> bool:
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
    classes: list[dict[int, int]] = [{} for _ in range(p)]
    if m % p == 0:
        for k, c in coeffs.items():
            classes[k % p][k // p] = c
        return all(_vanishes(m, cl) for cl in classes)
    for k, c in coeffs.items():
        classes[k % p][k % m] = c
    ref = min(classes, key=len)
    return all(_vanishes(m, _difference(cl, ref)) for cl in classes if cl is not ref)


def _difference(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
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


def _make(n: int, num: dict[int, int], den: int = 1) -> "PhasedScalar":
    """The PhasedScalar num/den at conductor n, num a normalized numerator map, in reduced form."""
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    x = object.__new__(PhasedScalar)
    x._n, x._num, x._den = n, num, den
    return x


class PhasedScalar:
    """Exact element of a cyclotomic field: a rational combination of phases.

    Stored as an integer conductor n >= 1, a map {k: nonzero int} with
    0 <= k < n and an int den >= 1, meaning sum_k num[k]/den * e^{i*pi*k/n},
    in reduced form: gcd(den, every numerator) = 1, so den = 1 for zero.  An
    exponent k/n in [1, 2) is folded to k/n - 1 with negated coefficient, so
    e^{i*pi} and -1 coincide; the map is otherwise the one of the group ring,
    which is what `terms` ({exponent in [0, 1): coefficient}) and `str()` show.
    `root(k, n, coeff)` is coeff * e^{i*pi*k/n} at the reduced conductor n/gcd(k, n);
    every phase value the library builds goes through it, a `{exponent: coeff}`
    map term by term, so an exponent is folded in one place.

    `==` is equality of complex numbers.  Equal group-ring maps at one
    conductor are the fast path: the reduced form makes den the lcm of the
    coefficients' denominators, so they store equal numerators.  Otherwise
    the numerators of the difference (zero iff the value is) are tested one
    prime of 2n at a time (`_vanishes`), so that 1 + w + w^2 (w = e^{2*pi*i/3})
    is zero and e^{i*pi/3} + e^{-i*pi/3} == 1.  The hash, `is_rational` and
    `to_rational` use the normalized trace, which every representation of a
    number shares.
    """

    __slots__ = ("_n", "_num", "_den")

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        acc = _make(1, {})
        for i, (e, c) in enumerate((terms or {}).items()):
            e = as_rational(e)
            term = PhasedScalar.root(e.numerator, e.denominator, c)
            acc = acc + term if i else term  # one term, the common case, is its own sum
        self._n, self._num, self._den = acc._n, acc._num, acc._den

    @classmethod
    def from_rational(cls, c) -> "PhasedScalar":
        c = as_rational(c)
        return _make(1, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def root(cls, k: int, n: int, coeff=1) -> "PhasedScalar":
        """coeff * e^{i*pi*k/n}, n >= 1, at the reduced conductor n/gcd(k, n), k/n folded into [0, 1)."""
        g = gcd(k, n)
        n //= g
        k = k // g % (2 * n)
        c = as_rational(coeff)
        p = c.numerator
        if k >= n:
            k -= n
            p = -p
        return _make(n, {k: p} if p else {}, c.denominator)

    @staticmethod
    def coerce(x) -> "PhasedScalar":
        if isinstance(x, PhasedScalar):
            return x
        return PhasedScalar.from_rational(x)

    @property
    def terms(self) -> dict[Fraction, Fraction]:
        """{exponent e in [0, 1): coefficient} for sum_e coeff * e^{i*pi*e}."""
        return {Fraction(k, self._n): Fraction(c, self._den) for k, c in self._num.items()}

    def _at(self, n: int) -> dict[int, int]:
        """The numerator map at conductor n, a multiple of this one's."""
        if n == self._n:
            return self._num
        s = n // self._n
        return {k * s: c for k, c in self._num.items()}

    def __add__(self, other) -> "PhasedScalar":
        other = PhasedScalar.coerce(other)
        n = self._n if self._n == other._n else lcm(self._n, other._n)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        out = dict(self._at(n)) if sa == 1 else {k: c * sa for k, c in self._at(n).items()}
        for k, c in other._at(n).items():
            c *= sb
            if k in out:
                c += out[k]
                if c:
                    out[k] = c
                else:
                    del out[k]
            else:
                out[k] = c
        return _make(n, out, den)

    __radd__ = __add__

    def __neg__(self) -> "PhasedScalar":
        return _make(self._n, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "PhasedScalar":
        return self + (-PhasedScalar.coerce(other))

    def __rsub__(self, other) -> "PhasedScalar":
        return PhasedScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "PhasedScalar":
        if not isinstance(other, PhasedScalar):
            s = as_rational(other)
            num = {k: c * s.numerator for k, c in self._num.items()} if s else {}
            return _make(self._n, num, self._den * s.denominator)
        n = self._n if self._n == other._n else lcm(self._n, other._n)
        rhs = other._at(n).items()
        out: dict[int, int] = {}
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
        return _make(n, {k: c for k, c in out.items() if c}, self._den * other._den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        # Two phases e^{i*pi*k/n} with distinct k in [0, n) are never
        # proportional over Q, so only three or more terms can cancel.
        num = self._num
        return not num if len(num) <= 2 else _vanishes(2 * self._n, num)

    def _trace(self) -> Fraction:
        """Normalized trace: the mean of the Galois conjugates, a rational."""
        n2 = 2 * self._n
        return sum((c * _root_trace(n2 // gcd(k, n2)) for k, c in self._num.items()), Fraction(0)) / self._den

    def _rational_value(self) -> Fraction | None:
        if not self._num.keys() - {0}:
            return Fraction(self._num.get(0, 0), self._den)
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
        if not isinstance(other, PhasedScalar):
            if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = PhasedScalar.coerce(other)
        if self._n == other._n and self._den == other._den and self._num == other._num:
            return True
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self._trace())

    def __str__(self) -> str:
        if not self._num:
            return "0"
        bits = []
        for k in sorted(self._num):
            c = Fraction(self._num[k], self._den)
            bits.append(str(c) if k == 0 else f"{c}*e^{{i*pi*{Fraction(k, self._n)}}}")
        return " + ".join(bits)

    __repr__ = __str__
