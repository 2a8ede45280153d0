"""Exact section counts on components and chains."""
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurve import cohomology
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
    CohomologyReport,
    h0_component,
    h1_component,
    h1_negative_monomials,
    h_chain,
    h_chain_by_elimination,
    h_twisted,
    piece_ends,
    riemann_roch_check,
)
from orbicurve.curves import CurveChain, MarkedPoint, TwistedComponent, present
from orbicurve.suites import chain_adjacency, component_family

P1 = present(1, 1)
P12 = present(1, 2)


def section_monomials(L):
    """Reference: the invariant monomials x^i y^j spanning H^0(L), by trying every (i, j)."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    return [
        (i, j)
        for i in range(L.d // a + 1)
        for j in range(L.d // b + 1)
        if a * i + b * j == L.d and i % l1 == L.k1 and j % l2 == L.k2
    ]


def negative_monomials(L):
    """Reference: the monomials x^-p y^-q (p, q >= 1) spanning H^1(L), by trying every (p, q)."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    return [
        (-p, -q)
        for p in range(1, -L.d // a + 1)
        for q in range(1, -L.d // b + 1)
        if a * p + b * q == -L.d and -p % l1 == L.k1 and -q % l2 == L.k2
    ]


def test_h0_projective_line():
    for d in range(0, 9):
        L = EqLineBundle(P1, 0, 0, d)
        assert h0_component(L) == len(section_monomials(L)) == d + 1


def test_h0_weighted_example():
    L = EqLineBundle(P12, 0, 0, 3)
    assert h0_component(L) == 2
    assert set(section_monomials(L)) == {(3, 0), (1, 1)}  # x^3 and x*y


def test_h0_quotient_example():
    L = EqLineBundle(TwistedComponent(1, 1, 2, 1), 0, 0, 2)
    assert h0_component(L) == 2
    assert set(section_monomials(L)) == {(2, 0), (0, 2)}  # x^2 and y^2, even x-exponent


def test_h1_vanishes_for_nonnegative_degree():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(0, 9):
                    assert h1_component(EqLineBundle(comp, k1, k2, d)) == 0


def test_h1_examples():
    assert h1_component(EqLineBundle(P1, 0, 0, -2)) == 1
    L = EqLineBundle(P12, 0, 0, -3)
    assert h1_component(L) == 1
    assert negative_monomials(L) == [(-1, -1)]


@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from(component_family(7, 12)),
    st.integers(0, 11),
    st.integers(0, 11),
    st.integers(-60, 60),
)
def test_closed_forms_match_enumeration(comp_data, k1, k2, d):
    comp = TwistedComponent(*comp_data)
    L = EqLineBundle(comp, k1, k2, d)
    monos = section_monomials(L)
    n_negative = len(negative_monomials(L))
    assert h0_component(L) == len(monos)
    assert h1_negative_monomials(L) == n_negative
    assert h0_component(tensor(canonical_bundle(comp), dual(L))) == n_negative
    assert h1_component(L) == n_negative
    ends = piece_ends(L)
    assert ends[:2] == (len(monos), n_negative)
    assert ends[2] == any(j == 0 for _, j in monos)
    assert ends[3] == any(i == 0 for i, _ in monos)


def test_counts_at_huge_degrees():
    big = 10**18
    assert h0_component(EqLineBundle(P1, 0, 0, big)) == big + 1
    assert h1_component(EqLineBundle(P1, 0, 0, -big)) == big - 1
    assert h1_component(EqLineBundle(P1, 0, 0, big)) == 0
    assert h0_component(EqLineBundle(P1, 0, 0, -big)) == 0
    # x^i y^j with i + 2j = 10^18, and with i + j = 10^18 and i even
    assert h0_component(EqLineBundle(P12, 0, 0, big)) == big // 2 + 1
    assert h0_component(EqLineBundle(TwistedComponent(1, 1, 2, 1), 0, 0, big)) == big // 2 + 1
    assert piece_ends(EqLineBundle(P12, 0, 0, big))[2:4] == (True, True)
    assert piece_ends(EqLineBundle(P12, 0, 0, big + 1))[2:4] == (True, False)
    p = big + 3
    assert h0_component(EqLineBundle(present(p, p), 0, 0, p)) == 2  # 1 and (x/y)^p
    for L in (EqLineBundle(P12, 0, 0, big + 1), EqLineBundle(present(2, 3), 0, 0, -big)):
        assert h0_component(L) - h1_component(L) == riemann_roch_check(L)


def test_riemann_roch_examples():
    assert riemann_roch_check(EqLineBundle(P1, 0, 0, 3)) == 4
    L = EqLineBundle(P12, 0, 0, 3)
    assert riemann_roch_check(L) == 2
    assert h0_component(L) - h1_component(L) == 2
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
                    assert h0_component(L) - h1_component(L) == riemann_roch_check(L)


def test_serre_pairing_structure_small_grid():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        omega = canonical_bundle(comp)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-8, 9):
                    L = EqLineBundle(comp, k1, k2, d)
                    assert h1_component(L) == h0_component(tensor(omega, dual(L)))


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
                        hits = [(i, j) for i, j in section_monomials(L) if j == 0]
                        assert len(hits) == 1 and piece_ends(L)[2]
                        i, j = hits[0]
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
    # an unbalanced bundle cannot be built, so h_chain never sees one
    chain = CurveChain((P12, present(2, 1)))
    with pytest.raises(ValueError, match="unbalanced"):
        h_chain(ChainBundle(chain, (EqLineBundle(P12, 0, 0, 1), EqLineBundle(present(2, 1), 0, 0, 0))))


def test_report_invariant():
    with pytest.raises(ValueError):
        CohomologyReport(-1, 0, F(0))


def test_h_chain_riemann_roch_check_raises_under_python_O():
    # the Riemann-Roch check must not be an assertion: python -O would strip it
    script = textwrap.dedent(
        """
        import sys
        from orbicurve import bundles, cohomology, curves

        if not sys.flags.optimize:
            sys.exit(2)
        step = cohomology.chain_step
        cohomology.chain_step = lambda state, piece: (step(state, piece)[0] + 1,) + step(state, piece)[1:]
        P1 = curves.present(1, 1)
        try:
            cohomology.h_chain(bundles.trivial_chain_bundle(curves.CurveChain((P1, P1))))
        except cohomology.InternalInconsistency as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(pathlib.Path(cohomology.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "Euler characteristic" in proc.stdout
