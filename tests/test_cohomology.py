"""Exact section counts on components and chains."""
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurve import bundles, cohomology, oracles, suites
from orbicurve.bundles import (
    ChainBundle,
    EqLineBundle,
    acts_trivially_at,
    age_at,
    canonical_bundle,
    chain_dual,
    chain_twist,
    dual,
    tensor,
)
from orbicurve.cohomology import (
    CohomologyReport,
    h0_component,
    h1_component,
    h1_negative_monomials,
    h_chain,
    h_twisted,
    piece_ends,
    riemann_roch_check,
)
from orbicurve.curves import CurveChain, MarkedPoint, TwistedComponent, present
from orbicurve.linalg import mat_rank
from orbicurve.oracles import h_chain_by_elimination
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
                    # the integer numerators against the Fraction ages
                    ages = age_at(L, MarkedPoint.X1) + age_at(L, MarkedPoint.X2)
                    assert riemann_roch_check(L) == L.degree + 1 - ages


def test_serre_pairing_structure_small_grid():
    for a, b, l1, l2 in component_family(4, 4):
        comp = TwistedComponent(a, b, l1, l2)
        omega = canonical_bundle(comp)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-8, 9):
                    L = EqLineBundle(comp, k1, k2, d)
                    assert h1_component(L) == h0_component(tensor(omega, dual(L)))


def _end_clauses(L):
    """(nonzero at x1, nonzero at x2) by residues: whether x^(d/a) and y^(d/b) are sections."""
    a, b, l1, l2 = L.comp.a, L.comp.b, L.comp.l1, L.comp.l2
    k1, k2, d = L.k1, L.k2, L.d
    return (
        k2 == 0 and d >= 0 and d % a == 0 and (d // a - k1) % l1 == 0,
        k1 == 0 and d >= 0 and d % b == 0 and (d // b - k2) % l2 == 0,
    )


def _check_end_flags(L):
    ends = piece_ends(L)
    assert ends[2:4] == _end_clauses(L), L
    # the trivialities that the fold passes in are those piece_ends computes
    assert cohomology._piece_data(L)[2] == ends, L


def test_end_flags_are_the_isotropy_test_on_a_wide_grid():
    # wider than criterion 5's grid in (a, b), (l1, l2) and d
    for comp_data in component_family(6, 6):
        comp = TwistedComponent(*comp_data)
        for k1 in range(comp.l1):
            for k2 in range(comp.l2):
                for d in range(-20, 21):
                    _check_end_flags(EqLineBundle(comp, k1, k2, d))


# The bundles criterion 5's folds read at a piece L: L, L(-x2), dual L and dual L(-x1).
FOLD_ROLES = (
    lambda L: L,
    lambda L: bundles.twist_marked(L, MarkedPoint.X2, -1),
    dual,
    lambda L: bundles.twist_marked(dual(L), MarkedPoint.X1, -1),
)


def test_end_flags_are_the_isotropy_test_in_every_fold_role():
    # on criterion 5's grid
    for comp_data in component_family(4, 4):
        for L in suites._bundle_grid(TwistedComponent(*comp_data), range(-8, 9)):
            for role in FOLD_ROLES:
                _check_end_flags(role(L))


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


def _chain_step_three_flags(state, piece):
    """The fold step on the state (h0, h1, g, left, active): g whether the last
    piece's x2 column is touched by a row and its run is grounded, left whether
    the last piece has an x2 column.  The reference for the two-flag fold."""
    h0, h1, g, left, active = state
    p_h0, p_h1, nz1, nz2, merged, trivial2 = piece
    if not active:
        return (h0 + p_h0, h1 + p_h1, False, nz2, trivial2)
    if nz1:
        return (h0 + p_h0 - 1, h1 + p_h1, merged and (g or not left), nz2, trivial2)
    rank = 1 if left and not g else 0
    return (h0 + p_h0 - rank, h1 + p_h1 + 1 - rank, False, nz2, trivial2)


def _reachable_flags(step, start, patterns):
    """The flags (all but h0 and h1) reachable from `start` by `step` over `patterns`."""
    seen, todo = {start[2:]}, [start[2:]]
    while todo:
        flags = todo.pop()
        for piece in patterns:
            new = step((0, 0) + flags, piece)[2:]
            if new not in seen:
                seen.add(new)
                todo.append(new)
    return seen


def _fold_patterns():
    """The distinct `piece_ends` of criterion 5's grid in the four roles its folds read."""
    return {
        piece_ends(role(L))
        for comp_data in component_family(4, 4)
        for L in suites._bundle_grid(TwistedComponent(*comp_data), range(-8, 9))
        for role in FOLD_ROLES
    }


def test_two_flag_fold_is_the_three_flag_fold_projected():
    # free = left and not g commutes with the step on every reachable state,
    # so the two folds agree on every chain
    patterns = _fold_patterns()
    no, yes = False, True
    three = _reachable_flags(_chain_step_three_flags, (0, 0, no, no, no), patterns)
    assert three == {(no, no, no), (no, no, yes), (no, yes, yes), (yes, yes, yes)}
    for g, left, active in three:
        for piece in patterns:
            old = _chain_step_three_flags((0, 0, g, left, active), piece)
            new = cohomology.chain_step((0, 0, left and not g, active), piece)
            assert new == old[:2] + (old[3] and not old[2], old[4]), (g, left, active, piece)
    # a free column always faces an active node
    assert cohomology.CHAIN_START == (0, 0, no, no)
    two = _reachable_flags(cohomology.chain_step, cohomology.CHAIN_START, patterns)
    assert two == {(no, no), (no, yes), (yes, yes)}


def chain_of(p1_degrees):
    comps = tuple(P1 for _ in p1_degrees)
    chain = CurveChain(comps)
    return ChainBundle(chain, tuple(EqLineBundle(P1, 0, 0, d) for d in p1_degrees))


def trivial_on(chain):
    return ChainBundle(chain, tuple(EqLineBundle(c) for c in chain.components))


def riemann_roch_of(B):
    """The Euler characteristic of B from its pieces' `riemann_roch_check`, less one per active node."""
    n_active = sum(acts_trivially_at(p, MarkedPoint.X2) for p in B.pieces[:-1])
    return sum(riemann_roch_check(p) for p in B.pieces) - n_active


def test_chain_examples():
    rep = h_chain(chain_of([1, 0]))
    assert (rep.h0, rep.h1) == (2, 0)
    rep = h_chain(chain_of([-1, -1]))
    assert (rep.h0, rep.h1) == (0, 1)


def test_chain_trivial_bundle_any_length():
    for n in range(1, 7):
        comps = tuple(present(1, 1) for _ in range(n))
        rep = h_chain(trivial_on(CurveChain(comps)))
        assert (rep.h0, rep.h1) == (1, 0)
    # also on a genuinely orbifold chain
    chain = CurveChain((present(1, 2), present(2, 2), present(2, 1)))
    rep = h_chain(trivial_on(chain))
    assert (rep.h0, rep.h1) == (1, 0)


def test_chain_trivial_bundle_length_400():
    B = trivial_on(CurveChain(tuple(P1 for _ in range(400))))
    rep = h_chain(B)
    assert (rep.h0, rep.h1) == (1, 0) == h_chain_by_elimination(B)


def test_h_chain_takes_each_age_once(monkeypatch):
    # one age numerator per marked point and piece: the x2 one is shared by
    # the node activity of the fold and the Riemann-Roch terms
    B = trivial_on(CurveChain(tuple(P1 for _ in range(400))))
    calls = []
    age_data = bundles._age_data

    def counted(L, pt):
        calls.append(pt)
        return age_data(L, pt)

    monkeypatch.setattr(bundles, "_age_data", counted)
    monkeypatch.setattr(cohomology, "_age_data", counted)
    rep = h_chain(B)
    assert (rep.h0, rep.h1) == (1, 0) and len(calls) == 800
    assert calls.count(MarkedPoint.X2) == 400


def _chain_grid(max_ab: int, max_l: int, degrees: range, max_len: int):
    """Every balanced chain bundle on chains of `component_family(max_ab, max_l)`
    up to `max_len` pieces, with piece degrees in `degrees`."""
    comps = [TwistedComponent(*c) for c in component_family(max_ab, max_l)]
    nxt = chain_adjacency(component_family(max_ab, max_l))
    lines = [
        [EqLineBundle(c, k1, k2, d) for k1 in range(c.l1) for k2 in range(c.l2) for d in degrees] for c in comps
    ]

    def extend(idx, pieces):
        yield ChainBundle(CurveChain(tuple(comps[i] for i in idx)), tuple(pieces))
        if len(idx) < max_len:
            need = -age_at(pieces[-1], MarkedPoint.X2) % 1
            for j in nxt[idx[-1]]:
                for L in lines[j]:
                    if age_at(L, MarkedPoint.X1) == need:
                        yield from extend(idx + [j], pieces + [L])

    for i in range(len(comps)):
        for L in lines[i]:
            yield from extend([i], [L])


def _h_chain_against_the_plain_fold(grid) -> tuple[int, int]:
    """(bundles, bundles whose piece denominators a*b*l1*l2 have an lcm above
    their largest) of `grid`, each checked against the fold over `piece_ends`
    that decides node activity itself, and the Euler characteristic of
    `riemann_roch_of`."""
    n = n_grown = 0
    for B in grid:
        state = cohomology.CHAIN_START
        for piece in B.pieces:
            state = cohomology.chain_step(state, piece_ends(piece))
        rep = h_chain(B)
        assert (rep.h0, rep.h1) == state[:2] and rep.h0 - rep.h1 == riemann_roch_of(B), B
        dens = [p.comp.a * p.comp.b * p.comp.l1 * p.comp.l2 for p in B.pieces]
        n += 1
        n_grown += lcm(*dens) > max(dens)
    return n, n_grown


def test_h_chain_unchanged_on_a_chain_grid():
    assert _h_chain_against_the_plain_fold(_chain_grid(2, 2, range(-2, 3), 3)) == (10090, 0)


def test_h_chain_unchanged_on_coprime_denominators():
    # the (3, 3) family mixes the denominators 2, 3, 4, 6, ..., so the running
    # common denominator of h_chain grows by lcm on the pieces that need it
    assert _h_chain_against_the_plain_fold(_chain_grid(3, 3, range(-1, 2), 3)) == (25347, 4080)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=6))
def test_integer_rank_matches_rational_rank(rows):
    # entries beyond +-1 make the content division and reduced rows matter
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    assert oracles._integer_rank([r for r in sparse if r]) == (mat_rank(rows) if rows else 0)


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
        assert rep.h0 - rep.h1 == riemann_roch_of(role)


def _dense_node_rank_reference(B):
    """(h0, h1) from the dense node matrix: a column per section monomial of
    each piece (listed by trying every exponent), a row per active node j
    holding each monomial's value at the x2 end of piece j minus its value at
    the x1 end of piece j + 1, ranked by `mat_rank`."""
    columns = [(k, mono) for k, piece in enumerate(B.pieces) for mono in section_monomials(piece)]
    active = [j for j, piece in enumerate(B.pieces[:-1]) if acts_trivially_at(piece, MarkedPoint.X2)]
    # x^i y^j is 1 at x2 = (0, 1) when i = 0 and at x1 = (1, 0) when j = 0, and 0 otherwise
    rows = [
        [int(k == node and i == 0) - int(k == node + 1 and j == 0) for k, (i, j) in columns]
        for node in active
    ]
    rank = mat_rank(rows)
    h1_pieces = sum(len(negative_monomials(piece)) for piece in B.pieces)
    return len(columns) - rank, h1_pieces + len(active) - rank


@settings(max_examples=300, deadline=None)
@given(balanced_chain_bundles())
def test_elimination_matches_a_dense_node_matrix(B):
    # pins the elimination oracle to a reference other than the fold
    for role in (B, chain_twist(B, MarkedPoint.X2, -1), chain_twist(chain_dual(B), MarkedPoint.X1, -1)):
        assert h_chain_by_elimination(role) == _dense_node_rank_reference(role), role


def test_chain_euler_characteristic():
    B = chain_of([2, 1, 3])
    rep = h_chain(B)
    assert rep.h0 - rep.h1 == riemann_roch_of(B) == 7


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


def test_h1_routes_that_disagree_raise(monkeypatch):
    # the direct count one too high on one bundle, which the Serre route counts once
    target = EqLineBundle(P12, 0, 0, -3)
    direct = h1_negative_monomials
    monkeypatch.setattr(cohomology, "h1_negative_monomials", lambda L: direct(L) + (L == target))
    assert h1_component(EqLineBundle(P12, 0, 0, -4)) == 1
    message = "h1 routes disagree on O^{0,0}(-3) on P(1,2): direct 2, Serre 1"
    with pytest.raises(cohomology.InternalInconsistency, match=f"^{re.escape(message)}$"):
        h1_component(target)
    with pytest.raises(cohomology.InternalInconsistency, match=re.escape(message)):
        h_chain(ChainBundle(CurveChain((P12,)), (target,)))


def test_report_invariant():
    # no input makes a dimension negative, so a negative one is a fault in the library
    with pytest.raises(cohomology.InternalInconsistency, match="^cohomology dimensions must be non-negative$"):
        CohomologyReport(-1, 0)


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
            cohomology.h_chain(bundles.ChainBundle(curves.CurveChain((P1, P1)), (bundles.EqLineBundle(P1),) * 2))
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
