"""Twisted components, presentations, chains, and the isotropy oracle."""
import itertools
import pickle
from fractions import Fraction as F
from math import gcd

import pytest

from orbicurve.curves import (
    GENERIC,
    CurveChain,
    MarkedPoint,
    TwistedComponent,
    isotropy_order,
    present,
)
from orbicurve.oracles import brute_force_isotropy_counts
from orbicurve.suites import component_family


def test_present_examples():
    assert present(1, 1) == TwistedComponent(1, 1, 1, 1)
    assert present(2, 3) == TwistedComponent(2, 3, 1, 1)
    assert present(4, 6) == TwistedComponent(2, 3, 2, 1)


def test_present_4_6_is_the_unique_split():
    # oracle: factor pairs of l = 2 against the gcd constraints
    l, a, b = 2, 2, 3
    admissible = [
        (l1, l // l1)
        for l1 in (1, 2)
        if gcd(l1, l // l1) == 1 and gcd(l1, b) == 1 and gcd(l // l1, a) == 1
    ]
    assert admissible == [(2, 1)]


def test_isotropy_orders():
    comp = present(4, 6)
    assert isotropy_order(comp, MarkedPoint.X1) == 4
    assert isotropy_order(comp, MarkedPoint.X2) == 6
    assert isotropy_order(comp, GENERIC) == 1


def test_present_reproduces_orders_up_to_50():
    for c in range(1, 51):
        for d in range(1, 51):
            comp = present(c, d)
            assert comp.c == c and comp.d == d
            # invariants are enforced by the constructor; re-presenting is stable
            assert present(comp.c, comp.d) == comp


def test_component_invariant_violations():
    with pytest.raises(ValueError, match=r"gcd\(a,b\)"):
        TwistedComponent(2, 4)
    with pytest.raises(ValueError, match=r"gcd\(l1,l2\)"):
        TwistedComponent(1, 1, 2, 2)
    with pytest.raises(ValueError, match=r"gcd\(l1,b\)"):
        TwistedComponent(1, 2, 2, 1)
    with pytest.raises(ValueError, match=r"gcd\(l2,a\)"):
        TwistedComponent(2, 1, 1, 2)
    with pytest.raises(ValueError, match="positive"):
        TwistedComponent(0, 1)


@pytest.mark.parametrize("field, args", [("a", (True, 2)), ("b", (1, 2.0)), ("l1", (1, 1, F(1))), ("l2", (1, 1, 1, "1"))])
def test_component_data_must_be_ints(field, args):
    # a bool is an int to isinstance, and printed P(True,2) equalled P(1,2)
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
        TwistedComponent(*args)


def _component_error(a, b, l1, l2) -> str | None:
    """The error of TwistedComponent(a, b, l1, l2), worded by a check of each field and then each pair in turn."""
    for name, v in zip(("a", "b", "l1", "l2"), (a, b, l1, l2)):
        if type(v) is not int or v < 1:
            return f"{name} must be a positive integer, got {v!r}"
    for names, x, y in (("a,b", a, b), ("l1,l2", l1, l2), ("l1,b", l1, b), ("l2,a", l2, a)):
        if gcd(x, y) != 1:
            return f"gcd({names})={gcd(x, y)} != 1"
    return None


def test_component_errors_name_the_first_bad_field_then_the_first_shared_factor():
    # every mix of good, non-coprime, non-positive and non-int fields
    for args in itertools.product((1, 2, 3, 6, 0, -1, True, 2.0), repeat=4):
        error = _component_error(*args)
        if error is None:
            comp = TwistedComponent(*args)
            assert (comp.a, comp.b, comp.l1, comp.l2) == args
            continue
        with pytest.raises(ValueError) as info:
            TwistedComponent(*args)
        assert str(info.value) == error, args


def test_degree_tags_must_be_rationals():
    with pytest.raises(TypeError, match="^not an exact rational: True$"):
        CurveChain((TwistedComponent(1, 1),), (True,))


def test_stored_invariants_solve_their_congruences():
    for a, b, l1, l2 in component_family(6, 6):
        comp = TwistedComponent(a, b, l1, l2)
        c, d, u = a * l1 * l2, b * l1 * l2, a * l1 - b * l2
        assert (comp.c, comp.d) == (c, d)
        inv1, inv2 = comp.chart_inverses
        assert 0 <= inv1 < c and (u * inv1 - 1) % c == 0
        assert 0 <= inv2 < d and (-u * inv2 - 1) % d == 0
        assert 0 <= comp.h0_unit < b * l2 and (a * l1 * comp.h0_unit - 1) % (b * l2) == 0
        assert 0 <= comp.h1_unit < a * l1 and (b * l2 * comp.h1_unit - 1) % (a * l1) == 0


def test_component_equality_and_hash_are_those_of_the_data():
    family = component_family(6, 6)
    built = [TwistedComponent(*abll) for abll in family]
    again = [TwistedComponent(*abll) for abll in family]
    for x, y in zip(built, again):
        assert x is not y and x == y and hash(x) == hash(y) == hash((x.a, x.b, x.l1, x.l2))
    assert len(set(built)) == len(family)
    for i, x in enumerate(built):
        assert all(x != y for y in built[i + 1:])
    assert built[0] != tuple(family[0])


def test_component_pickle_keeps_equality_and_hash():
    # the process pool pickles components
    for abll in component_family(6, 6):
        comp = TwistedComponent(*abll)
        back = pickle.loads(pickle.dumps(comp))
        assert back == comp and hash(back) == hash(comp) and str(back) == str(comp)
        assert (back.c, back.d, back.chart_inverses, back.h0_unit, back.h1_unit) == (
            comp.c, comp.d, comp.chart_inverses, comp.h0_unit, comp.h1_unit
        )


def test_brute_force_isotropy_oracle_small():
    for c in range(1, 9):
        for d in range(1, 9):
            comp = present(c, d)
            counts = brute_force_isotropy_counts(comp)
            assert counts == {"x1": c, "x2": d, "generic": 1}, (c, d)


def test_validate_chain_single_component():
    chain = CurveChain((present(1, 1),), (F(1),))
    assert chain.nodes == []


def test_validate_chain_two_p1():
    chain = CurveChain((present(1, 1), present(1, 1)), (F(1), F(1)))
    assert chain.nodes == [(0, 1)]


def test_validate_chain_node_mismatch():
    # X2 of the first has order 2, X1 of the second has order 3
    with pytest.raises(ValueError, match=r"node 0: node isotropy mismatch \(2 vs 3\)"):
        CurveChain((present(1, 2), present(3, 1)))


def test_validate_chain_degree_positivity():
    with pytest.raises(ValueError, match="not positive"):
        CurveChain((present(1, 1),), (F(0),))


def test_chain_names_every_violation():
    with pytest.raises(ValueError) as info:
        CurveChain((present(1, 2), present(3, 1), present(2, 1)), (F(1), F(-1), F(1)))
    assert str(info.value) == (
        "component 1: degree tag -1 is not positive; "
        "node 0: node isotropy mismatch (2 vs 3); "
        "node 1: node isotropy mismatch (1 vs 2)"
    )


def test_chain_defaults_degree_tags():
    chain = CurveChain((present(1, 1), present(1, 1)))
    assert chain.degree_tags == (F(1), F(1))
    assert chain.nodes == [(0, 1)]
