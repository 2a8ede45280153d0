"""Exact section counts on components and chains."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurve.bundles import (
    ChainBundle,
    EqLineBundle,
    age_at,
    canonical_bundle,
    chain_dual,
    chain_twist,
    dual,
    tensor,
    trivial_chain_bundle,
)
from orbicurve.cohomology import (
    h0_component,
    h1_component,
    h_chain,
    h_chain_by_elimination,
    h_twisted,
    riemann_roch_check,
)
from orbicurve.curves import CurveChain, MarkedPoint, TwistedComponent, present
from orbicurve.suites import chain_adjacency, component_family

P1 = present(1, 1)
P12 = present(1, 2)


def test_h0_projective_line():
    for d in range(0, 9):
        n, basis = h0_component(EqLineBundle(P1, 0, 0, d))
        assert n == d + 1 and len(basis) == d + 1


def test_h0_weighted_example():
    n, basis = h0_component(EqLineBundle(P12, 0, 0, 3))
    assert n == 2
    assert set(basis.monomials) == {(3, 0), (1, 1)}  # x^3 and x*y


def test_h0_quotient_example():
    comp = TwistedComponent(1, 1, 2, 1)
    n, basis = h0_component(EqLineBundle(comp, 0, 0, 2))
    assert n == 2
    assert set(basis.monomials) == {(2, 0), (0, 2)}  # x^2 and y^2, even x-exponent


def test_h1_vanishes_for_nonnegative_degree():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(0, 9):
                    n, _ = h1_component(EqLineBundle(comp, k1, k2, d))
                    assert n == 0


def test_h1_examples():
    n, _ = h1_component(EqLineBundle(P1, 0, 0, -2))
    assert n == 1
    n, basis = h1_component(EqLineBundle(P12, 0, 0, -3))
    assert n == 1
    assert basis.monomials == ((-1, -1),)


def test_riemann_roch_examples():
    assert riemann_roch_check(EqLineBundle(P1, 0, 0, 3)) == 4
    L = EqLineBundle(P12, 0, 0, 3)
    assert riemann_roch_check(L) == 2
    assert h0_component(L)[0] - h1_component(L)[0] == 2
    for a, b, l1, l2 in component_family(3, 3):
        comp = TwistedComponent(a, b, l1, l2)
        assert riemann_roch_check(EqLineBundle(comp, 0, 0, 0)) == 1


def test_euler_characteristic_identity_small_grid():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-8, 9):
                    L = EqLineBundle(comp, k1, k2, d)
                    h0, _ = h0_component(L)
                    h1, _ = h1_component(L)
                    assert h0 - h1 == riemann_roch_check(L)


def test_report_methods_agree():
    from orbicurve.cohomology import report_component, report_riemann_roch

    for a, b, l1, l2 in component_family(3, 3):
        comp = TwistedComponent(a, b, l1, l2)
        for d in range(-6, 7):
            L = EqLineBundle(comp, d % l1, (2 * d) % l2, d)
            direct = report_component(L)
            via_rr = report_riemann_roch(L)
            assert (direct.h0, direct.h1, direct.euler_char) == (
                via_rr.h0,
                via_rr.h1,
                via_rr.euler_char,
            )
            assert direct.method == "oracle" and via_rr.method == "riemann-roch"


def test_serre_pairing_structure_small_grid():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        omega = canonical_bundle(comp)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-8, 9):
                    L = EqLineBundle(comp, k1, k2, d)
                    assert h1_component(L)[0] == h0_component(tensor(omega, dual(L)))[0]


def test_terminal_sections_exist_when_action_trivial():
    # whenever the x1 isotropy acts trivially on the fiber and d >= 0, some
    # basis monomial is nonzero at x1 and zero at x2
    from orbicurve.bundles import acts_trivially_at

    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(0, 9):
                    L = EqLineBundle(comp, k1, k2, d)
                    if acts_trivially_at(L, MarkedPoint.X1):
                        _, basis = h0_component(L)
                        hits = basis.nonzero_at(MarkedPoint.X1)
                        assert len(hits) == 1
                        i, j = basis.monomials[hits[0]]
                        assert j == 0 and (d > 0 or i == 0)


def chain_of(p1_degrees):
    comps = tuple(P1 for _ in p1_degrees)
    chain = CurveChain(comps)
    return ChainBundle(chain, tuple(EqLineBundle(P1, 0, 0, d) for d in p1_degrees))


def test_chain_examples():
    rep = h_chain(chain_of([1, 0]))
    assert (rep.h0, rep.h1) == (2, 0)
    rep = h_chain(chain_of([-1, -1]))
    assert (rep.h0, rep.h1) == (0, 1)


def test_chain_trivial_bundle_any_length():
    for n in range(1, 7):
        comps = tuple(present(1, 1) for _ in range(n))
        rep = h_chain(trivial_chain_bundle(CurveChain(comps)))
        assert (rep.h0, rep.h1) == (1, 0)
    # also on a genuinely orbifold chain
    chain = CurveChain((present(1, 2), present(2, 2), present(2, 1)))
    rep = h_chain(trivial_chain_bundle(chain))
    assert (rep.h0, rep.h1) == (1, 0)


def test_chain_trivial_bundle_length_400():
    chain = CurveChain(tuple(P1 for _ in range(400)))
    rep = h_chain(trivial_chain_bundle(chain))
    assert (rep.h0, rep.h1) == (1, 0)


COMPS = component_family(4, 4)
NEXT = chain_adjacency(COMPS)


@st.composite
def balanced_chain_bundles(draw):
    """Balanced chain bundles up to length 8, biased to d = 0 and trivial characters."""
    idx = [draw(st.integers(0, len(COMPS) - 1))]
    length = draw(st.integers(1, 8))
    while len(idx) < length and NEXT[idx[-1]]:
        idx.append(draw(st.sampled_from(NEXT[idx[-1]])))
    comps = [TwistedComponent(*COMPS[i]) for i in idx]
    pieces = []
    for comp in comps:
        options = [
            EqLineBundle(comp, k1, k2, d)
            for k1 in range(comp.l1)
            for k2 in range(comp.l2)
            for d in range(-6, 7)
        ]
        if pieces:
            need = -age_at(pieces[-1], MarkedPoint.X2) % 1
            options = [L for L in options if age_at(L, MarkedPoint.X1) == need]
        if not options:
            break
        bias = draw(st.sampled_from(["d=0", "trivial", "any"]))
        preferred = {
            "d=0": [L for L in options if L.d == 0],
            "trivial": [L for L in options if (L.k1, L.k2) == (0, 0)],
            "any": options,
        }[bias]
        pieces.append(draw(st.sampled_from(preferred or options)))
    chain = CurveChain(tuple(comps[: len(pieces)]))
    return ChainBundle(chain, tuple(pieces))


@settings(max_examples=400, deadline=None)
@given(balanced_chain_bundles())
def test_h_chain_kernel_matches_elimination(B):
    for role in (
        B,
        chain_twist(B, MarkedPoint.X2, -1),
        chain_twist(chain_dual(B), MarkedPoint.X1, -1),
    ):
        rep = h_chain(role)
        assert (rep.h0, rep.h1) == h_chain_by_elimination(role)
        assert rep.h0 - rep.h1 == rep.euler_char


def test_chain_euler_characteristic():
    rep = h_chain(chain_of([2, 1, 3]))
    assert rep.h0 - rep.h1 == rep.euler_char


def test_h_twisted_examples():
    single = chain_of([2])
    assert h_twisted(single, MarkedPoint.X2, -1).h1 == 0
    single = chain_of([-1])
    assert h_twisted(single, MarkedPoint.X2, -1).h1 == 1
    cb = ChainBundle(CurveChain((P12,)), (EqLineBundle(P12, 0, 0, -1),))
    assert h_twisted(cb, MarkedPoint.X1, -1).h1 == 1


def test_h_chain_rejects_invalid():
    chain = CurveChain((P12, present(2, 1)))
    bad = ChainBundle(chain, (EqLineBundle(P12, 0, 0, 1), EqLineBundle(present(2, 1), 0, 0, 0)))
    with pytest.raises(ValueError, match="unbalanced"):
        h_chain(bad)


def test_report_invariant():
    with pytest.raises(ValueError):
        from orbicurve.cohomology import CohomologyReport

        CohomologyReport(-1, 0, F(0), "oracle")
