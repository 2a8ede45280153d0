"""Weighted projective state spaces: sectors, integrals, pairings, delta transform."""
from fractions import Fraction as F

import pytest

from orbicurve import suites
from orbicurve.foundation import Phase, PhasedScalar
from orbicurve.sectors import age, inverse_sector
from orbicurve.wps import (
    StateElement,
    WPSModel,
    ambient_pairing,
    cr_pairing,
    ct_pairing,
    delta_tilde,
    enumerate_sectors,
    integrate,
    pairing_gram,
    sector_at,
    state_basis,
    verify_delta_iso_dims,
    verify_pairing_comparison,
)


def rotations(m):
    return [s.f for s in enumerate_sectors(m)]


def test_enumerate_sectors_examples():
    assert rotations(WPSModel((1, 1))) == [F(0)]
    assert rotations(WPSModel((1, 1, 2, 2), (1,))) == [F(0), F(1, 2)]
    assert rotations(WPSModel((1, 2, 3))) == [F(0), F(1, 3), F(1, 2), F(2, 3)]


def test_sector_data_on_p1122_hypersurface_model():
    m = WPSModel((1, 1, 2, 2), (1,))
    s0 = sector_at(m, F(0))
    assert s0.dim == 3 and s0.rank_fixed == 1
    s = sector_at(m, F(1, 2))
    assert s.dim == 1
    assert s.fiber_weights.weights == (F(1, 2),)
    assert s.rank_fixed == 0 and age(s.fiber_weights) == F(1, 2)


def test_integrate_examples():
    m = WPSModel((1, 1, 2, 2), (1,))
    assert integrate(m, sector_at(m, F(0)), 3) == F(1, 4)
    assert integrate(m, sector_at(m, F(1, 2)), 1) == F(1, 4)
    assert integrate(m, sector_at(m, F(0)), 1) == 0
    p11 = WPSModel((1, 1))
    assert integrate(p11, sector_at(p11, F(0)), 1) == 1
    with pytest.raises(ValueError, match="exceeds sector dimension"):
        integrate(m, sector_at(m, F(1, 2)), 2)


def test_cr_pairing_examples():
    m = WPSModel((1, 2, 4))
    top = StateElement.basis(m, F(0), 2)
    one = StateElement.basis(m, F(0), 0)
    assert cr_pairing(m, one, top) == F(1, 8)
    m2 = WPSModel((1, 1, 2, 2), (1,))
    a = StateElement.basis(m2, F(1, 2), 0)
    b = StateElement.basis(m2, F(1, 2), 1)
    assert cr_pairing(m2, a, b) == F(1, 4)
    assert cr_pairing(m2, StateElement.basis(m2, F(0), 0), a) == 0


def test_cr_pairing_symmetry():
    m = WPSModel((1, 2, 3), (2,))
    basis = [(s.f, p) for s in enumerate_sectors(m) for p in range(s.dim + 1)]
    for f1, p1 in basis:
        for f2, p2 in basis:
            x = StateElement.basis(m, f1, p1)
            y = StateElement.basis(m, f2, p2)
            assert cr_pairing(m, x, y) == cr_pairing(m, y, x)


def test_sector_involution():
    for m in (WPSModel((1, 2, 3)), WPSModel((2, 3, 4), (1, 2))):
        for s in enumerate_sectors(m):
            assert inverse_sector(inverse_sector(s.fiber_weights)) == s.fiber_weights
            partner = sector_at(m, (1 - s.f) % 1)
            assert partner.fixed_indices == s.fixed_indices


def test_ambient_pairing_examples():
    m = WPSModel((1, 1, 2, 2), (1,))
    one0 = StateElement.basis(m, F(0), 0)
    h2 = StateElement.basis(m, F(0), 2)
    assert ambient_pairing(m, one0, h2) == F(1, 4)  # euler factor 1*H fills top degree
    a = StateElement.basis(m, F(1, 2), 0)
    b = StateElement.basis(m, F(1, 2), 1)
    assert ambient_pairing(m, a, b) == F(1, 4)  # empty euler factor on the twisted sector
    assert ambient_pairing(m, one0, StateElement.basis(m, F(0), 3)) == 0  # degree overflow


def test_ct_pairing_sign():
    m = WPSModel((1, 1, 1), (3,))
    one = StateElement.basis(m, F(0), 0)
    h = StateElement.basis(m, F(0), 1)
    # dual euler factor is -3H on the untwisted sector
    assert ct_pairing(m, one, h) == -ambient_pairing(m, one, h) == -3


def test_delta_tilde_examples():
    m = WPSModel((1, 1, 2, 2), (1,))
    out = delta_tilde(m, StateElement.basis(m, F(0), 2))
    assert out.coeff(F(0), 2) == PhasedScalar.from_rational(1)
    out = delta_tilde(m, StateElement.basis(m, F(1, 2), 0))
    assert out.coeff(F(1, 2), 0) == PhasedScalar.from_phase(Phase(F(1, 2)))


def test_delta_tilde_linearity():
    m = WPSModel((1, 1, 2, 2), (1,))
    x = StateElement.basis(m, F(0), 1)
    y = StateElement.basis(m, F(1, 2), 1)
    lhs = delta_tilde(m, x + y.scale(F(3, 2)))
    rhs = delta_tilde(m, x) + delta_tilde(m, y).scale(F(3, 2))
    for f, coeffs in lhs.parts.items():
        for p, c in enumerate(coeffs):
            assert PhasedScalar.coerce(c) == PhasedScalar.coerce(rhs.coeff(f, p))


def test_pairing_comparison_cubic_curve_model():
    report = verify_pairing_comparison(WPSModel((1, 1, 1), (3,)))
    assert report.ok and report.checks == 9


def test_pairing_comparison_p1122_hypersurface_model():
    m = WPSModel((1, 1, 2, 2), (1,))
    report = verify_pairing_comparison(m)
    assert report.ok
    # the twisted-sector self-pairing picks up i*i = -1 against (-1)^rank
    a = delta_tilde(m, StateElement.basis(m, F(1, 2), 0))
    b = delta_tilde(m, StateElement.basis(m, F(1, 2), 1))
    lhs = ambient_pairing(m, a, b)
    assert PhasedScalar.coerce(lhs) == PhasedScalar.from_rational(-F(1, 4))


def test_pairing_gram_matches_elementwise_pairings():
    # the block formula against the full sector walk of each pairing
    pairings = {"cr": cr_pairing, "ambient": ambient_pairing, "ct": ct_pairing}
    models = list(suites.wps_model_family(max_n=3))
    assert len(models) == 450
    for m in models:
        basis = state_basis(enumerate_sectors(m))
        elems = [StateElement.basis(m, f, p) for f, p in basis]
        for kind, pairing in pairings.items():
            expected = [[pairing(m, a, b) for b in elems] for a in elems]
            assert pairing_gram(m, kind) == expected, (str(m), kind)


def test_pairing_gram_example():
    # P(1,2,3): untwisted block 1/6 on p + q = 2; sectors 1/3 <-> 2/3 and 1/2 <-> 1/2
    assert pairing_gram(WPSModel((1, 2, 3)), "cr") == [
        [0, 0, F(1, 6), 0, 0, 0],
        [0, F(1, 6), 0, 0, 0, 0],
        [F(1, 6), 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, F(1, 3)],
        [0, 0, 0, 0, F(1, 2), 0],
        [0, 0, 0, F(1, 3), 0, 0],
    ]
    # P(1,1,1)/O(3): the ambient pairing inserts 3H, the compact-type one -3H
    m = WPSModel((1, 1, 1), (3,))
    assert pairing_gram(m, "ambient") == [[0, 3, 0], [3, 0, 0], [0, 0, 0]]
    assert pairing_gram(m, "ct") == [[0, -3, 0], [-3, 0, 0], [0, 0, 0]]


def test_pairing_comparison_rank_zero():
    report = verify_pairing_comparison(WPSModel((1, 2, 2), ()))
    assert report.ok


def test_delta_iso_dims_examples():
    rep = verify_delta_iso_dims(WPSModel((1, 1, 1), (3,)))
    assert rep.ok
    by_f = {s.f: s for s in rep.sectors}
    assert by_f[F(0)].image_dim == 2
    rep = verify_delta_iso_dims(WPSModel((1, 1, 2, 2), (1,)))
    assert rep.ok
    by_f = {s.f: s for s in rep.sectors}
    assert by_f[F(1, 2)].image_dim == 2
    assert by_f[F(0)].image_dim == 3
    rep = verify_delta_iso_dims(WPSModel((1, 2), ()))
    assert rep.ok and rep.sectors[0].image_dim == rep.sectors[0].ambient_pairing_rank == 2


def test_model_validation():
    with pytest.raises(ValueError):
        WPSModel((1,))
    with pytest.raises(ValueError):
        WPSModel((1, 1), (0,))
    with pytest.raises(ValueError, match="fixes no coordinate"):
        sector_at(WPSModel((2, 2)), F(1, 3))


def test_state_element_truncation():
    m = WPSModel((1, 1, 2, 2), (1,))
    with pytest.raises(ValueError, match="degree"):
        StateElement(m, {F(1, 2): [F(1), F(0), F(1)]})
