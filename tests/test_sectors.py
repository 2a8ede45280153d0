"""Sector weight calculus: ages, rank formula, duality signs."""
import dataclasses
import random
from fractions import Fraction as F

import pytest

from orbicurve.bundles import ChainBundle, EqLineBundle, age_at, chain_dual
from orbicurve.cohomology import h_twisted
from orbicurve.curves import CurveChain, MarkedPoint, present
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
    assert res.as_sign == -1


def test_sign_cycle_unrealizable_returns_phase():
    g = SectorAction((F(0),))
    res = sign_cycle(F(1, 2), g, g)
    assert res.as_sign is None
    assert res.exponent == F(1, 2)


def test_sign_consistency_identity():
    import random

    rng = random.Random(5)
    for _ in range(300):
        r = rng.randint(1, 4)
        w1 = tuple(F(rng.randint(0, 5), 6) for _ in range(r))
        w2 = tuple(F(rng.randint(0, 5), 6) for _ in range(r))
        g1, g2 = SectorAction(w1), SectorAction(w2)
        beta = F(rng.randint(-12, 12), rng.randint(1, 4))
        lhs = sign_cycle(beta, g1, g2).exponent + age(g1) + age(g2) + g2.rank_fixed
        assert lhs % 2 == sign_invariant(beta, r)


def _weight_grid() -> list[tuple]:
    """Seeded weight tuples in the forms a caller gives them: Fractions built
    from non-reduced pairs such as Fraction(2, 4), 'p/q' strings and the int 0.
    After the first five, each tuple comes twice in a row, in other forms."""
    rng = random.Random(7)
    grid = [(), (0,), (F(2, 4),), ("2/4", F(0, 3), 0), (F(6, 9), "3/12", F(11, 12))]
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            d = rng.randint(1, 12)
            pairs.append((rng.randrange(d), d))
        for _ in range(2):
            forms = []
            for a, d in pairs:
                c = rng.randint(1, 3)
                forms.append(rng.choice([F(a * c, d * c), f"{a * c}/{d * c}", 0 if a == 0 else F(a, d)]))
            grid.append(tuple(forms))
    return grid


def _fraction_formulas(ws) -> dict:
    """The Fraction formulas that the integer form replaced, written out."""
    ws = tuple(F(w) for w in ws)
    dual = tuple(F(0) if w == 0 else 1 - w for w in ws)
    fixed = sum(1 for w in ws if w == 0)
    return {
        "weights": ws,
        "age": sum(ws, F(0)),
        "dual": dual,
        "rank_fixed": fixed,
        "age_sum": (sum(ws, F(0)) + sum(dual, F(0)), F(len(ws) - fixed)),
        "repr": f"SectorAction(weights={ws!r})",
    }


def test_integer_form_matches_the_fraction_formulas():
    grid = _weight_grid()
    rng = random.Random(11)
    for ws in grid:
        s, want = SectorAction(ws), _fraction_formulas(ws)
        assert s.weights == want["weights"] and all(type(w) is F for w in s.weights)
        assert age(s) == want["age"] and type(age(s)) is F
        assert inverse_sector(s).weights == want["dual"] and inverse_sector(s) == SectorAction(want["dual"])
        assert s.rank == len(ws) and s.rank_fixed == want["rank_fixed"]
        assert age_sum_check(s) == want["age_sum"] and all(type(x) is F for x in age_sum_check(s))
        assert repr(s) == str(s) == want["repr"]
        partners = [w2 for w2 in grid if len(w2) == len(ws)]
        for w2 in rng.sample(partners, min(4, len(partners))):
            beta = F(rng.randint(-12, 12), rng.randint(1, 4))
            value = beta - want["age"] + sum(_fraction_formulas(w2)["dual"], F(0))
            rank = rank_formula(beta, s, SectorAction(w2))
            assert rank == value and type(rank) is F
            res = sign_cycle(beta, s, SectorAction(w2))
            # the exponent mod 2 in [0, 2), and the sign (-1)^value when value is an integer
            assert 0 <= res.exponent < 2 and ((value - res.exponent) / 2).denominator == 1
            assert type(res.exponent) is F
            assert res.as_sign == ((-1) ** value.numerator if value.denominator == 1 else None)


def test_equality_and_hash_compare_the_weights():
    grid = _weight_grid()
    actions = [SectorAction(ws) for ws in grid]
    weights = [_fraction_formulas(ws)["weights"] for ws in grid]
    for i in range(0, len(grid), 7):
        for j in range(len(grid)):
            assert (actions[i] == actions[j]) == (weights[i] == weights[j])
            if weights[i] == weights[j]:
                assert hash(actions[i]) == hash(actions[j])
    # the twins, one tuple in two forms
    assert all(a == b and hash(a) == hash(b) for a, b in zip(actions[5::2], actions[6::2]))
    assert len(set(actions)) == len(set(weights))


def test_a_sector_action_is_immutable():
    s = SectorAction((F(1, 2), F(0)))
    for name, value in (("nums", (1, 1)), ("den", 3), ("weights", (F(1, 3),))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
    assert s.weights == (F(1, 2), F(0)) and s == SectorAction(("1/2", 0))


@pytest.mark.parametrize("w, shown", [(1, "Fraction(1, 1)"), ("-1/2", "Fraction(-1, 2)"), (F(3, 2), "Fraction(3, 2)")])
def test_a_weight_out_of_range_is_refused_with_the_same_text(w, shown):
    with pytest.raises(ValueError) as exc:
        SectorAction((F(1, 3), w))
    assert str(exc.value) == f"sector weights must lie in [0,1): (Fraction(1, 3), {shown})"


def test_sign_invariant_examples():
    assert sign_invariant(F(0), 0) == 0
    assert sign_invariant(F(1), 1) == 0
    assert sign_invariant(F(1, 2), 1) == F(3, 2)
    assert sign_invariant(F(7, 2), 0) == sign_invariant(F(-1, 2), 0) == F(3, 2)
    assert sign_invariant(F(-13, 6), 1) == F(5, 6)
