"""Twisted-sector weight calculus: ages, the age-sum identity, rank and sign formulas.

A sector action records the fractional eigenvalue exponents f_i in [0,1) of a
finite-order fiber action on a rank-r bundle.  Everything downstream (ranks
of the relevant pushforward bundles and the duality signs) depends only on
these weights, kept as int numerators over the lcm of their denominators
(`nums`, `den`): formulas sum ints.  `weights`, repr and str show Fractions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .foundation import InternalInconsistency, as_rational


@dataclass(frozen=True, init=False, repr=False)
class SectorAction:
    nums: tuple[int, ...]
    den: int

    def __init__(self, weights):
        ws = tuple(as_rational(w) for w in weights)
        if any(not 0 <= w.numerator < w.denominator for w in ws):
            raise ValueError(f"sector weights must lie in [0,1): {ws}")
        object.__setattr__(self, "den", lcm(*(w.denominator for w in ws)))
        object.__setattr__(self, "nums", tuple(w.numerator * (self.den // w.denominator) for w in ws))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __repr__(self) -> str:
        return f"SectorAction(weights={self.weights!r})"

    @property
    def rank(self) -> int:
        return len(self.nums)

    @property
    def rank_fixed(self) -> int:
        return self.nums.count(0)


def _over(nums: tuple[int, ...], n: int) -> SectorAction:
    """The action with weights nums[i]/n, each 0 <= nums[i] < n, unchecked, over its lcm denominator."""
    g = gcd(n, *nums)
    s = object.__new__(SectorAction)
    object.__setattr__(s, "nums", tuple(a // g for a in nums) if g > 1 else nums)
    object.__setattr__(s, "den", n // g)
    return s


def age(s: SectorAction) -> Fraction:
    return Fraction(sum(s.nums), s.den)


def inverse_sector(s: SectorAction) -> SectorAction:
    return _over(tuple(s.den - a if a else 0 for a in s.nums), s.den)


def age_sum_check(s: SectorAction) -> tuple[Fraction, Fraction]:
    """(age(E) + age(dual E), rank(E) - rank(fixed part)); else InternalInconsistency, with them as `sides`."""
    dual = inverse_sector(s)
    lhs = Fraction(sum(s.nums) * dual.den + sum(dual.nums) * s.den, s.den * dual.den)
    rhs = Fraction(s.rank - s.rank_fixed)
    if lhs != rhs:
        err = InternalInconsistency(f"age sum of {s}: {lhs} != rank difference {rhs}")
        err.sides = lhs, rhs
        raise err
    return lhs, rhs


def rank_formula(beta_det_e: Fraction, g1: SectorAction, g2: SectorAction) -> Fraction:
    """deg(det E) - age of E at the first marking + age of dual E at the second.

    For data realized by a bundle on an actual curve this is the (non-negative
    integer) rank of the first-cohomology pushforward of dual(E)(-x1).
    """
    if g1.rank != g2.rank:
        raise ValueError(f"sector rank mismatch: {g1.rank} vs {g2.rank}")
    dual = inverse_sector(g2)
    return as_rational(beta_det_e) + Fraction(sum(dual.nums) * g1.den - sum(g1.nums) * dual.den, g1.den * dual.den)


@dataclass(frozen=True)
class SignResult:
    exponent: Fraction  # of e^{i*pi*exponent}, in [0, 2)
    as_sign: int | None
    realizable: bool


def sign_cycle(beta_det_e: Fraction, g1: SectorAction, g2: SectorAction) -> SignResult:
    """(-1) to the rank_formula exponent, as that exponent mod 2.

    A non-integer exponent means the input data is not realizable by a curve
    and bundle; the exact exponent is returned with realizable=False rather
    than raised, so the calculus stays total.  The sign is +1 at exponent 0 and -1 at 1.
    """
    exponent = rank_formula(beta_det_e, g1, g2) % 2
    sign = {0: 1, 1: -1}.get(exponent)
    return SignResult(exponent, sign, sign is not None)


def sign_invariant(beta_det_e: Fraction, r: int) -> Fraction:
    """The exponent in [0, 2) of the phase e^{i*pi*(deg(det E) + r)} relating the two-pointed invariants."""
    return (as_rational(beta_det_e) + r) % 2
