"""Novikov series, fundamental-solution operators, and the duality identity."""
import random
from fractions import Fraction as F

import pytest

from orbicurve.foundation import Phase, PhasedScalar
from orbicurve.linalg import mat_identity
from orbicurve.series import (
    EffClass,
    InvariantTable,
    LOperator,
    TableEntry,
    build_L,
    compact_type_basis,
    expand_psi_kernel,
    random_invariant_table,
    transported_table,
    verify_qsd_operator_identity,
    zero_class,
)
from orbicurve.wps import WPSModel


def test_expand_psi_kernel():
    assert expand_psi_kernel(2) == [-1, 1, -1]
    with pytest.raises(ValueError):
        expand_psi_kernel(-1)


def test_eff_class_invariants():
    with pytest.raises(ValueError, match="non-negative"):
        EffClass((F(-1), F(0)))
    with pytest.raises(ValueError, match="zero class"):
        EffClass((F(0), F(1)))
    beta = EffClass((F(1), F(1, 2)))
    assert beta.ordering == 1 and beta.det == F(1, 2)
    assert (beta + beta).degrees == (F(2), F(1))
    assert zero_class().is_zero()


def test_novikov_truncation():
    b1 = EffClass((F(1), F(1)))
    b3 = EffClass((F(3), F(0)))
    table = InvariantTable(1, [TableEntry(b1, 0, 0, 0, F(1)), TableEntry(b3, 0, 0, 0, F(5))])
    op = build_L(table, mat_identity(1), 2)
    assert op.nonzero_keys() == {(b1, -1)}  # b3 is beyond the truncation order
    assert op.truncation == 2


def _operator(dim, truncation, values):
    op = LOperator(dim, truncation)
    for beta, value in values.items():
        op.add_term(beta, -1, 0, 0, value)
    return op


def test_change_novikov_examples():
    b_odd = EffClass((F(1), F(1)))
    b_even = EffClass((F(1), F(0)))
    out = _operator(1, 3, {b_odd: F(2), b_even: F(5)}).substitute_novikov()
    assert out.matrix_at(b_odd, -1)[0][0] == PhasedScalar.from_rational(-2)
    assert out.matrix_at(b_even, -1)[0][0] == PhasedScalar.from_rational(5)
    # the implicit identity at the zero class is untouched
    assert out.matrix_at(zero_class(), 0) == [[PhasedScalar.from_rational(1)]]


def test_change_novikov_ring_homomorphism():
    # q^beta -> e^{i*pi*deg_beta(det E)} q^beta is multiplicative in beta
    rng = random.Random(0)
    for _ in range(20):
        b1, b2 = (EffClass((F(rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))) for _ in range(2))
        out = _operator(1, 6, {b1: F(1), b2: F(1), b1 + b2: F(1)}).substitute_novikov()
        phase = {b: out.matrix_at(b, -1)[0][0] for b in (b1, b2, b1 + b2)}
        assert phase[b1 + b2] == phase[b1] * phase[b2]


def test_change_novikov_involution_for_integral_det():
    beta = EffClass((F(2), F(3)))
    op = _operator(1, 4, {beta: F(7)})
    assert op.substitute_novikov().substitute_novikov().terms == op.terms


def test_build_L_empty_is_identity():
    op = build_L(InvariantTable(2), mat_identity(2), 3)
    assert op.nonzero_keys() == set()
    const = op.matrix_at(zero_class(), 0)
    assert const[0][0] == PhasedScalar.from_rational(1)
    assert const[0][1] == PhasedScalar.from_rational(0)


def test_build_L_single_entry():
    beta = EffClass((F(1), F(1)))
    table = InvariantTable(1, [TableEntry(beta, 0, 0, 0, F(3))])
    op = build_L(table, mat_identity(1), 2)
    assert op.matrix_at(beta, -1)[0][0] == PhasedScalar.from_rational(-3)


def test_build_L_symmetric_table_gives_symmetric_matrix():
    beta = EffClass((F(1), F(0)))
    entries = [
        TableEntry(beta, 0, 0, 1, F(2)),
        TableEntry(beta, 0, 1, 0, F(2)),
        TableEntry(beta, 0, 0, 0, F(5)),
    ]
    op = build_L(InvariantTable(2, entries), mat_identity(2), 2)
    mat = op.matrix_at(beta, -1)
    assert mat[0][1] == mat[1][0]


def test_build_L_rejects_degenerate_pairing():
    beta = EffClass((F(1), F(0)))
    with pytest.raises(ValueError, match="degenerate pairing"):
        build_L(InvariantTable(2, [TableEntry(beta, 0, 0, 0, F(1))]), [[F(0), F(0)], [F(0), F(0)]], 2)


def test_compact_type_basis_dimensions():
    assert len(compact_type_basis(WPSModel((1, 1, 2, 2), (1,)))) == 5
    assert len(compact_type_basis(WPSModel((1, 1, 1), (3,)))) == 2
    assert len(compact_type_basis(WPSModel((1, 3), ()))) == 2 + 2  # f=0 and the 1/3, 2/3 points


def test_qsd_identity_empty_table():
    m = WPSModel((1, 1), (2,))
    report = verify_qsd_operator_identity(InvariantTable(len(compact_type_basis(m))), m, 3)
    assert report.ok


def test_qsd_identity_one_dimensional_hand_check():
    # one-dimensional untwisted state space, beta(det E) = 1, rank 1: the
    # transported entry equals the original and the substitution sign is
    # compensated by the (-1)^rank pairing flip
    m = WPSModel((1, 1), (2,))
    basis = compact_type_basis(m)
    assert len(basis) == 1
    beta = EffClass((F(1), F(1)))
    table = InvariantTable(1, [TableEntry(beta, 0, 0, 0, F(3))])
    z_table = transported_table(table, m, basis)
    assert PhasedScalar.coerce(z_table.entries[0].value) == PhasedScalar.from_rational(3)
    report = verify_qsd_operator_identity(table, m, 2)
    assert report.ok and report.checks > 0


def test_qsd_identity_random_tables_on_p1122_hypersurface_model():
    m = WPSModel((1, 1, 2, 2), (1,))
    for seed in range(5):
        rng = random.Random(seed)
        table = random_invariant_table(m, 3, rng)
        report = verify_qsd_operator_identity(table, m, 3)
        assert report.ok, report.first_violation


def test_qsd_identity_detects_tampered_phase():
    # sanity of the verifier itself: breaking one transported entry must fail
    m = WPSModel((1, 1, 2, 2), (1,))
    rng = random.Random(1)
    table = random_invariant_table(m, 2, rng, n_classes=1, a_max=0)
    assert table.entries
    basis = compact_type_basis(m)
    from orbicurve import series as series_mod

    p_ct, p_amb = series_mod._pairing_matrices(m, basis)
    op_e = build_L(table, p_ct, 2)
    bad_table = transported_table(table, m, basis)
    bad_table.entries[0] = TableEntry(
        bad_table.entries[0].beta,
        bad_table.entries[0].psi_power,
        bad_table.entries[0].row,
        bad_table.entries[0].col,
        PhasedScalar.coerce(bad_table.entries[0].value) * F(2),
        bad_table.entries[0].sectors,
    )
    op_z = build_L(bad_table, p_amb, 2)
    sub = op_e.substitute_novikov()
    keys = op_z.nonzero_keys() | sub.nonzero_keys()
    assert any(
        op_z.matrix_at(*k)[i][j] != sub.matrix_at(*k)[i][j]
        for k in keys
        for i in range(len(basis))
        for j in range(len(basis))
    )


def test_qsd_rejects_mismatched_dimension():
    m = WPSModel((1, 1), (2,))
    with pytest.raises(ValueError, match="dimension"):
        verify_qsd_operator_identity(InvariantTable(7), m, 2)


def test_table_sector_validation():
    m = WPSModel((1, 1, 2, 2), (1,))
    basis = compact_type_basis(m)
    beta = EffClass((F(1), F(0)))
    bad = InvariantTable(
        len(basis), [TableEntry(beta, 0, 0, 0, F(1), sectors=(F(1, 2), F(0)))]
    )
    problems = bad.validate([f for f, _ in basis])
    assert problems and "sector pair" in problems[0]
