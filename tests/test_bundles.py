"""Equivariant line bundles: tensor algebra, twists, ages, canonical bundle."""
import pickle
import random
from fractions import Fraction as F

import pytest

from orbicurve import bundles
from orbicurve.bundles import (
    ChainBundle,
    EqLineBundle,
    SplitBundle,
    age_at,
    canonical_bundle,
    chain_dual,
    chain_twist,
    dual,
    tensor,
    trivial_bundle,
    twist_marked,
)
from orbicurve.curves import CurveChain, MarkedPoint, TwistedComponent, present
from orbicurve.oracles import brute_force_age, iter_chains
from orbicurve.suites import component_family

P1 = present(1, 1)
P12 = present(1, 2)
P2312 = TwistedComponent(2, 3, 2, 1)


def random_bundles(n, seed=11, max_ab=4, max_l=4, max_d=12):
    rng = random.Random(seed)
    comps = component_family(max_ab, max_l)
    out = []
    for _ in range(n):
        a, b, l1, l2 = rng.choice(comps)
        comp = TwistedComponent(a, b, l1, l2)
        out.append(
            EqLineBundle(comp, rng.randrange(l1), rng.randrange(l2), rng.randint(-max_d, max_d))
        )
    return out


@pytest.mark.parametrize("field, args", [("d", (0, 0, 2.5)), ("k1", (True, 0, 0)), ("k2", (0, F(1), 0)), ("d", (0, 0, False))])
def test_bundle_data_must_be_ints(field, args):
    # a float degree was accepted, and h0_component then returned 1.0
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        EqLineBundle(P12, *args)


def test_bundle_characters_are_reduced():
    comp = TwistedComponent(1, 1, 2, 3)
    L = EqLineBundle(comp, -1, 7, 4)
    assert (L.k1, L.k2, L.d) == (1, 1, 4) and L == EqLineBundle(comp, 1, 1, 4)


def test_tensor_examples():
    assert tensor(EqLineBundle(P1, 0, 0, 1), EqLineBundle(P1, 0, 0, 2)) == EqLineBundle(P1, 0, 0, 3)
    L = EqLineBundle(P2312, 1, 0, P2312.a)
    assert tensor(L, dual(L)) == EqLineBundle(P2312, 0, 0, 0)
    assert tensor(EqLineBundle(P2312, 1, 0, 1), EqLineBundle(P2312, 1, 0, 1)) == EqLineBundle(
        P2312, 0, 0, 2
    )


def test_tensor_component_mismatch():
    with pytest.raises(ValueError, match="component mismatch"):
        tensor(EqLineBundle(P1, 0, 0, 1), EqLineBundle(P12, 0, 0, 1))


def test_dual_examples():
    assert dual(EqLineBundle(P1, 0, 0, 3)) == EqLineBundle(P1, 0, 0, -3)
    two = TwistedComponent(1, 1, 2, 1)
    assert dual(EqLineBundle(two, 1, 0, 0)) == EqLineBundle(two, 1, 0, 0)
    for L in random_bundles(50):
        assert dual(dual(L)) == L


def test_degree_homomorphism():
    rng = random.Random(3)
    for L in random_bundles(40):
        M = EqLineBundle(L.comp, rng.randrange(L.comp.l1), rng.randrange(L.comp.l2), rng.randint(-9, 9))
        assert tensor(L, M).degree == L.degree + M.degree
        assert dual(L).degree == -L.degree


def test_twist_examples():
    assert twist_marked(EqLineBundle(P1, 0, 0, 0), MarkedPoint.X2, -1) == EqLineBundle(P1, 0, 0, -1)
    # on P(1,2) the x1 divisor is the class of y, of weight b = 2
    assert twist_marked(EqLineBundle(P12, 0, 0, -1), MarkedPoint.X1, -1) == EqLineBundle(
        P12, 0, 0, -3
    )


def test_twist_degree_shift():
    for L in random_bundles(40):
        down = twist_marked(L, MarkedPoint.X2, -1)
        assert down.degree == L.degree - F(1, L.comp.d)
        up = twist_marked(L, MarkedPoint.X1, 1)
        assert up.degree == L.degree + F(1, L.comp.c)


def test_point_bundle_age_is_reciprocal_order():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        for pt, order in ((MarkedPoint.X2, comp.d), (MarkedPoint.X1, comp.c)):
            assert age_at(twist_marked(trivial_bundle(comp), pt, 1), pt) == F(1, order) % 1


def test_age_examples():
    assert age_at(EqLineBundle(P1, 0, 0, 5), MarkedPoint.X2) == 0
    assert age_at(EqLineBundle(P12, 0, 0, 1), MarkedPoint.X2) == F(1, 2)


def test_age_plus_dual_age():
    for L in random_bundles(60):
        for pt in (MarkedPoint.X1, MarkedPoint.X2):
            s = age_at(L, pt) + age_at(dual(L), pt)
            assert s in (0, 1)
            assert (s == 0) == (age_at(L, pt) == 0)


def test_age_matches_brute_force():
    for a, b, l1, l2 in component_family(3, 4):
        comp = TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-5, 6):
                    L = EqLineBundle(comp, k1, k2, d)
                    for pt in (MarkedPoint.X1, MarkedPoint.X2):
                        assert age_at(L, pt) == brute_force_age(L, pt), (L, pt)


def test_canonical_bundle():
    assert canonical_bundle(P1) == EqLineBundle(P1, 0, 0, -2)
    assert canonical_bundle(present(2, 3)) == EqLineBundle(present(2, 3), 0, 0, -5)
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        log_can = twist_marked(twist_marked(canonical_bundle(comp), MarkedPoint.X1, 1), MarkedPoint.X2, 1)
        assert log_can == EqLineBundle(comp, 0, 0, 0)


def test_chain_bundle_balance():
    chain = CurveChain((P12, present(2, 1)))
    ChainBundle(chain, (EqLineBundle(P12, 0, 0, 0), EqLineBundle(present(2, 1), 0, 0, 0)))
    # d = 1 on P(1,2) has fiber weight 1/2 at x2; the trivial bundle on the
    # next branch has weight 0, so the node is unbalanced
    with pytest.raises(ValueError, match=r"node 0: unbalanced fiber characters \(ages 1/2 and 0\)"):
        ChainBundle(chain, (EqLineBundle(P12, 0, 0, 1), EqLineBundle(present(2, 1), 0, 0, 0)))
    with pytest.raises(ValueError, match="bundle has 1 pieces for 2 components"):
        ChainBundle(chain, (EqLineBundle(P12, 0, 0, 0),))
    with pytest.raises(ValueError, match=r"piece 1 lives on P\(1,1\), chain has P\(2,1\)"):
        ChainBundle(chain, (EqLineBundle(P12, 0, 0, 0), EqLineBundle(P1, 0, 0, 0)))


def test_integer_balance_matches_fraction_ages():
    # oracle: the rule on Fraction ages, the two branch ages sum to an integer
    comps = component_family(3, 3)
    verdicts = {True: 0, False: 0}
    for i, j in (c for c in iter_chains(comps, 2) if len(c) == 2):
        left, right = TwistedComponent(*comps[i]), TwistedComponent(*comps[j])
        chain = CurveChain((left, right))
        lefts, rights = (
            [EqLineBundle(c, k1, k2, d) for k1 in range(c.l1) for k2 in range(c.l2) for d in range(-2, 3)]
            for c in (left, right)
        )
        for L in lefts:
            for M in rights:
                balanced = (age_at(L, MarkedPoint.X2) + age_at(M, MarkedPoint.X1)) % 1 == 0
                try:
                    ChainBundle(chain, (L, M))
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == balanced, (L, M)
                verdicts[balanced] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_chain_twist_hits_terminal_components():
    chain = CurveChain((P1, P1))
    cb = ChainBundle(chain, (EqLineBundle(P1, 0, 0, 2), EqLineBundle(P1, 0, 0, 2)))
    left = chain_twist(cb, MarkedPoint.X1, -1)
    right = chain_twist(cb, MarkedPoint.X2, -1)
    assert [p.d for p in left.pieces] == [1, 2]
    assert [p.d for p in right.pieces] == [2, 1]


def _line_bundles(comp, d_range):
    return [EqLineBundle(comp, k1, k2, d) for k1 in range(comp.l1) for k2 in range(comp.l2) for d in d_range]


def test_twist_marked_is_the_tensor_with_the_point_bundle():
    # O(x1) = O^{0,1}(b) is the divisor class of the coordinate section y, O(x2) = O^{1,0}(a) that of x
    for a, b, l1, l2 in component_family(3, 3):
        comp = TwistedComponent(a, b, l1, l2)
        points = {MarkedPoint.X1: EqLineBundle(comp, 0, 1, b), MarkedPoint.X2: EqLineBundle(comp, 1, 0, a)}
        for L in _line_bundles(comp, range(-2, 3)):
            for pt, P in points.items():
                assert twist_marked(L, pt, 1) == tensor(L, P), (L, pt)
                assert twist_marked(L, pt, -1) == tensor(L, dual(P)), (L, pt)
    with pytest.raises(ValueError, match="twist sign"):
        twist_marked(EqLineBundle(P1, 0, 0, 0), MarkedPoint.X1, 2)
    with pytest.raises(ValueError, match="twist sign"):  # it would make the derived data floats
        twist_marked(EqLineBundle(P1, 0, 0, 0), MarkedPoint.X1, 1.0)
    with pytest.raises(ValueError, match="unknown marked point"):
        twist_marked(EqLineBundle(P1, 0, 0, 0), None, 1)


def test_derived_bundles_equal_checked_ones():
    # dual, twist_marked, tensor and canonical_bundle build their result by
    # reduction alone; the checking constructor, given the same unreduced
    # fields, builds a bundle that is the same in every observable way
    n = 0
    for a, b, l1, l2 in component_family(4, 4):  # the grid of criterion 5
        comp = TwistedComponent(a, b, l1, l2)
        grid = _line_bundles(comp, range(-8, 9))
        for L, M in zip(grid, reversed(grid)):
            k1, k2, d = L.k1, L.k2, L.d
            pairs = [
                (dual(L), (-k1, -k2, -d)),
                (tensor(L, M), (k1 + M.k1, k2 + M.k2, d + M.d)),
                (canonical_bundle(comp), (-1, -1, -a - b)),
            ] + [
                (twist_marked(L, pt, sign), (k1 + sign * u, k2 + sign * v, d + sign * w))
                for pt, (u, v, w) in ((MarkedPoint.X1, (0, 1, b)), (MarkedPoint.X2, (1, 0, a)))
                for sign in (1, -1)
            ]
            for D, fields in pairs:
                checked = EqLineBundle(comp, *fields)
                assert D == checked and hash(D) == hash(checked), (L, fields)
                assert (str(D), repr(D)) == (str(checked), repr(checked))
                assert [type(v) for v in (D.k1, D.k2, D.d)] == [int] * 3
                assert pickle.loads(pickle.dumps(D)) == checked
                n += 1
    assert n == 7 * 17 * sum(l1 * l2 for _, _, l1, l2 in component_family(4, 4))


def test_the_reducing_constructor_reduces_the_characters():
    comp = TwistedComponent(1, 1, 2, 3)
    for k1, k2 in ((-1, 7), (5, -8), (2 * 10**6 + 1, -(3 * 10**6) + 1)):
        L = bundles._reduced(comp, k1, k2, -4)
        assert (L.k1, L.k2, L.d) == (1, 1, -4) and L == EqLineBundle(comp, 1, 1, -4)


def _balanced_pieces(max_ab, max_l, d_range, max_len):
    """(chain, pieces) of every balanced chain bundle on component_family, by Fraction ages."""
    comps = component_family(max_ab, max_l)
    by_age1, age2 = [], {}
    for a, b, l1, l2 in comps:
        grouped = {}
        for L in _line_bundles(TwistedComponent(a, b, l1, l2), d_range):
            grouped.setdefault(age_at(L, MarkedPoint.X1), []).append(L)
            age2[L] = age_at(L, MarkedPoint.X2)
        by_age1.append(grouped)

    def extend(chain, pieces):
        if len(pieces) == len(chain):
            yield pieces
            return
        grouped = by_age1[chain[len(pieces)]]
        if pieces:
            options = grouped.get(-age2[pieces[-1]] % 1, [])
        else:
            options = [L for same_age in grouped.values() for L in same_age]
        for L in options:
            yield from extend(chain, pieces + (L,))

    for chain in iter_chains(comps, max_len):
        curve = CurveChain(tuple(TwistedComponent(*comps[i]) for i in chain))
        for pieces in extend(chain, ()):
            yield curve, pieces


def test_derived_chain_bundles_equal_checked_ones():
    # chain_twist and chain_dual build their result without the node check;
    # the checking constructor accepts the same pieces and builds an equal bundle
    balanced = list(_balanced_pieces(3, 3, range(-2, 3), 3))
    assert len(balanced) == 112675
    for curve, pieces in balanced[::11]:  # one in 11 keeps the test short
        B = ChainBundle(curve, pieces)
        derived = [chain_dual(B)] + [
            chain_twist(B, pt, sign) for pt in (MarkedPoint.X1, MarkedPoint.X2) for sign in (1, -1)
        ]
        for D in derived:
            assert D == ChainBundle(curve, D.pieces)
            assert D.chain is curve


def test_split_bundle_same_chain():
    chain1 = CurveChain((P1,))
    chain2 = CurveChain((P12,))
    with pytest.raises(ValueError, match="same chain"):
        SplitBundle(
            (
                ChainBundle(chain1, (EqLineBundle(P1, 0, 0, 0),)),
                ChainBundle(chain2, (EqLineBundle(P12, 0, 0, 0),)),
            )
        )


def test_split_bundle_compares_chains_without_hashing_them(monkeypatch):
    def refuse(self):
        raise AssertionError("a chain was hashed")

    chain = CurveChain((P1,))
    summands = [ChainBundle(c, (EqLineBundle(P1, 0, 0, d),)) for c, d in ((chain, 0), (chain, 1), (CurveChain((P1,)), 2))]
    monkeypatch.setattr(CurveChain, "__hash__", refuse)
    assert SplitBundle(tuple(summands)).rank == 3  # the third chain is equal, not the same object
    other = ChainBundle(CurveChain((P12,)), (EqLineBundle(P12, 0, 0, 0),))
    with pytest.raises(ValueError, match="same chain"):
        SplitBundle((*summands, other))
