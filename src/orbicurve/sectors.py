"""Twisted-sector weight calculus: ages, the age-sum identity, rank and sign formulas.

A sector action records the fractional eigenvalue exponents f_i in [0,1) of a
finite-order fiber action on a rank-r bundle.  Everything downstream (ranks
of the relevant pushforward bundles and the duality signs) depends only on
these weights.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .foundation import InternalInconsistency, Phase, as_rational


@dataclass(frozen=True)
class SectorAction:
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(as_rational(w) for w in self.weights)
        if any(w < 0 or w >= 1 for w in ws):
            raise ValueError(f"sector weights must lie in [0,1): {ws}")
        object.__setattr__(self, "weights", ws)

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def rank_fixed(self) -> int:
        return sum(1 for w in self.weights if w == 0)


def age(s: SectorAction) -> Fraction:
    return sum(s.weights, Fraction(0))


def inverse_sector(s: SectorAction) -> SectorAction:
    return SectorAction(tuple(Fraction(0) if w == 0 else 1 - w for w in s.weights))


def age_sum_check(s: SectorAction) -> tuple[Fraction, Fraction]:
    """(age(E) + age(dual E), rank(E) - rank(fixed part)); the two are equal."""
    lhs = age(s) + age(inverse_sector(s))
    rhs = Fraction(s.rank - s.rank_fixed)
    if lhs != rhs:
        raise InternalInconsistency(f"age sum of {s}: {lhs} != rank difference {rhs}")
    return lhs, rhs


def rank_formula(beta_det_e: Fraction, g1: SectorAction, g2: SectorAction) -> Fraction:
    """deg(det E) - age of E at the first marking + age of dual E at the second.

    For data realized by a bundle on an actual curve this is the (non-negative
    integer) rank of the first-cohomology pushforward of dual(E)(-x1).
    """
    if g1.rank != g2.rank:
        raise ValueError(f"sector rank mismatch: {g1.rank} vs {g2.rank}")
    return as_rational(beta_det_e) - age(g1) + age(inverse_sector(g2))


@dataclass(frozen=True)
class SignResult:
    phase: Phase
    as_sign: int | None
    realizable: bool


def sign_cycle(beta_det_e: Fraction, g1: SectorAction, g2: SectorAction) -> SignResult:
    """(-1) to the rank_formula exponent.

    A non-integer exponent means the input data is not realizable by a curve
    and bundle; the exact phase is returned with realizable=False rather than
    raised, so the calculus stays total.
    """
    expo = rank_formula(beta_det_e, g1, g2)
    phase = Phase(expo)
    sign = phase.is_sign()
    if sign is None:
        warnings.warn(
            f"sign exponent {expo} is not an integer; data is not realizable",
            stacklevel=2,
        )
        return SignResult(phase, None, False)
    return SignResult(phase, sign, True)


def sign_invariant(beta_det_e: Fraction, r: int) -> Phase:
    """The phase e^{i*pi*(deg(det E) + r)} relating the two-pointed invariants."""
    return Phase(as_rational(beta_det_e) + r)
