"""Sector weight calculus: ages, rank formula, duality signs."""
from fractions import Fraction as F

import pytest

from orbicurve.bundles import ChainBundle, EqLineBundle, age_at, chain_dual
from orbicurve.cohomology import h_twisted
from orbicurve.curves import CurveChain, MarkedPoint, present
from orbicurve.foundation import Phase
from orbicurve.sectors import (
    SectorAction,
    age,
    age_sum_check,
    inverse_sector,
    rank_formula,
    sign_cycle,
    sign_invariant,
)


def test_age_examples():
    assert age(SectorAction((F(0), F(0), F(0)))) == 0
    assert age(SectorAction((F(1, 2),))) == F(1, 2)
    assert age(SectorAction((F(1, 3), F(2, 3)))) == 1


def test_sector_weight_range():
    with pytest.raises(ValueError):
        SectorAction((F(3, 2),))


def test_inverse_examples():
    assert inverse_sector(SectorAction((F(0),))) == SectorAction((F(0),))
    assert inverse_sector(SectorAction((F(1, 2),))) == SectorAction((F(1, 2),))
    assert inverse_sector(SectorAction((F(1, 3), F(0)))) == SectorAction((F(2, 3), F(0)))


def test_age_sum_examples():
    assert age_sum_check(SectorAction((F(0), F(0)))) == (0, 0)
    assert age_sum_check(SectorAction((F(1, 2),))) == (1, 1)
    assert age_sum_check(SectorAction((F(1, 5), F(3, 5), F(0)))) == (2, 2)


def test_rank_formula_untwisted():
    for n in range(0, 7):
        g = SectorAction((F(0),))
        assert rank_formula(F(n), g, g) == n
        # cross-check: h1 of O(-n)(-x1) on the projective line
        P1 = present(1, 1)
        cb = ChainBundle(CurveChain((P1,)), (EqLineBundle(P1, 0, 0, -n),))
        assert h_twisted(cb, MarkedPoint.X1, -1).h1 == n


def test_rank_formula_weighted_example():
    P12 = present(1, 2)
    L = EqLineBundle(P12, 0, 0, 1)
    g1 = SectorAction((age_at(L, MarkedPoint.X1),))
    g2 = SectorAction((age_at(L, MarkedPoint.X2),))
    value = rank_formula(L.degree, g1, g2)
    assert value == 1
    cb = ChainBundle(CurveChain((P12,)), (L,))
    assert h_twisted(chain_dual(cb), MarkedPoint.X1, -1).h1 == 1


def test_rank_formula_zero():
    g = SectorAction((F(0),))
    assert rank_formula(F(0), g, g) == 0


def test_rank_formula_length_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        rank_formula(F(1), SectorAction((F(0),)), SectorAction((F(0), F(0))))


def test_sign_cycle_examples():
    g = SectorAction((F(0),))
    assert sign_cycle(F(2), g, g).as_sign == 1
    P12 = present(1, 2)
    L = EqLineBundle(P12, 0, 0, 1)
    res = sign_cycle(
        L.degree,
        SectorAction((age_at(L, MarkedPoint.X1),)),
        SectorAction((age_at(L, MarkedPoint.X2),)),
    )
    assert res.as_sign == -1 and res.realizable


def test_sign_cycle_unrealizable_returns_phase():
    g = SectorAction((F(0),))
    res = sign_cycle(F(1, 2), g, g)
    assert res.as_sign is None and not res.realizable
    assert res.phase == Phase(F(1, 2))


def test_sign_consistency_identity():
    import random

    rng = random.Random(5)
    for _ in range(300):
        r = rng.randint(1, 4)
        w1 = tuple(F(rng.randint(0, 5), 6) for _ in range(r))
        w2 = tuple(F(rng.randint(0, 5), 6) for _ in range(r))
        g1, g2 = SectorAction(w1), SectorAction(w2)
        beta = F(rng.randint(-12, 12), rng.randint(1, 4))
        lhs = sign_cycle(beta, g1, g2).phase * Phase(age(g1) + age(g2) + g2.rank_fixed)
        assert lhs == sign_invariant(beta, r)


def test_sign_invariant_examples():
    assert sign_invariant(F(0), 0) == Phase(F(0))
    assert sign_invariant(F(1), 1) == Phase(F(0))
    assert sign_invariant(F(1, 2), 1) == Phase(F(3, 2))
