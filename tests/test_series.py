"""Novikov series, fundamental-solution operators, and the duality identity."""
import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from orbicurve import cli, series as series_mod
from orbicurve.foundation import PhasedScalar
from orbicurve.sectors import age
from orbicurve.series import (
    EffClass,
    InvariantTable,
    LOperator,
    TableEntry,
    build_L,
    compact_type_basis,
    random_invariant_table,
    transported_table,
    verify_qsd_operator_identity,
)
from orbicurve.suites import qsd_model_family, wps_model_family
from orbicurve.wps import WPSModel, pairing_gram, pairing_rows, state_basis


def _dense(op, beta, zpow):
    """The dense dim x dim coefficient of q^beta z^zpow in `op`, the identity at (zero class, z^0)."""
    mat = [[PhasedScalar() for _ in range(op.dim)] for _ in range(op.dim)]
    if beta.is_zero() and zpow == 0:
        for i in range(op.dim):
            mat[i][i] = PhasedScalar.from_rational(1)
    for (i, j), x in op.terms.get((beta, zpow), {}).items():
        mat[i][j] = x
    return mat


def test_build_L_psi_power_signs():
    # 1/(-z-psi) = sum_a (-1)^(a+1) psi^a z^(-a-1)
    beta = EffClass((F(1), F(0)))
    table = InvariantTable(1, [TableEntry(beta, a, 0, 0, F(1)) for a in range(3)])
    op = build_L(table, [(0, F(1))], 2)
    signs = [_dense(op, beta, -a - 1)[0][0] for a in range(3)]
    assert signs == [PhasedScalar.from_rational(s) for s in (-1, 1, -1)]


def test_eff_class_invariants():
    with pytest.raises(ValueError, match="non-negative"):
        EffClass((F(-1), F(0)))
    with pytest.raises(ValueError, match="zero class"):
        EffClass((F(0), F(1)))
    beta = EffClass((F(1), F(1, 2)))
    assert beta.ordering == 1 and beta.det == F(1, 2)
    assert (beta + beta).degrees == (F(2), F(1))
    assert EffClass((F(0), F(0))).is_zero()


def test_novikov_truncation():
    b1 = EffClass((F(1), F(1)))
    b3 = EffClass((F(3), F(0)))
    table = InvariantTable(1, [TableEntry(b1, 0, 0, 0, F(1)), TableEntry(b3, 0, 0, 0, F(5))])
    op = build_L(table, [(0, F(1))], 2)
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
    assert _dense(out, b_odd, -1)[0][0] == PhasedScalar.from_rational(-2)
    assert _dense(out, b_even, -1)[0][0] == PhasedScalar.from_rational(5)
    # the implicit identity at the zero class is untouched
    assert _dense(out, EffClass((F(0), F(0))), 0) == [[PhasedScalar.from_rational(1)]]


def test_change_novikov_ring_homomorphism():
    # q^beta -> e^{i*pi*deg_beta(det E)} q^beta is multiplicative in beta
    rng = random.Random(0)
    for _ in range(20):
        b1, b2 = (EffClass((F(rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))) for _ in range(2))
        out = _operator(1, 6, {b1: F(1), b2: F(1), b1 + b2: F(1)}).substitute_novikov()
        phase = {b: _dense(out, b, -1)[0][0] for b in (b1, b2, b1 + b2)}
        assert phase[b1 + b2] == phase[b1] * phase[b2]


def test_change_novikov_involution_for_integral_det():
    beta = EffClass((F(2), F(3)))
    op = _operator(1, 4, {beta: F(7)})
    assert op.substitute_novikov().substitute_novikov().terms == op.terms


def test_build_L_empty_is_identity():
    op = build_L(InvariantTable(2), [(0, F(1)), (1, F(1))], 3)
    assert op.nonzero_keys() == set()
    const = _dense(op, EffClass((F(0), F(0))), 0)
    assert const[0][0] == PhasedScalar.from_rational(1)
    assert const[0][1] == PhasedScalar.from_rational(0)


def test_build_L_single_entry():
    beta = EffClass((F(1), F(1)))
    table = InvariantTable(1, [TableEntry(beta, 0, 0, 0, F(3))])
    op = build_L(table, [(0, F(1))], 2)
    assert _dense(op, beta, -1)[0][0] == PhasedScalar.from_rational(-3)


def test_build_L_symmetric_table_gives_symmetric_matrix():
    beta = EffClass((F(1), F(0)))
    entries = [
        TableEntry(beta, 0, 0, 1, F(2)),
        TableEntry(beta, 0, 1, 0, F(2)),
        TableEntry(beta, 0, 0, 0, F(5)),
    ]
    op = build_L(InvariantTable(2, entries), [(0, F(1)), (1, F(1))], 2)
    mat = _dense(op, beta, -1)
    assert mat[0][1] == mat[1][0]


def test_build_L_inverts_a_signed_permutation():
    # P = [[0, 2], [-3, 0]]: P^{-1} = [[0, -1/3], [1/2, 0]], so the entry
    # <T_0, T_1> = 6 puts -6 * (P^{-1})[1][0] = -3 at row 0, column 0
    beta = EffClass((F(1), F(0)))
    op = build_L(InvariantTable(2, [TableEntry(beta, 0, 0, 1, F(6))]), [(1, F(2)), (0, F(-3))], 2)
    assert _dense(op, beta, -1) == [[PhasedScalar.from_rational(x) for x in row] for row in ([-3, 0], [0, 0])]


def test_build_L_rejects_degenerate_pairing():
    # the inverse is taken row by row: one nonzero value per row, in a column
    # no other row takes
    beta = EffClass((F(1), F(0)))
    table = InvariantTable(2, [TableEntry(beta, 0, 0, 0, F(1))])
    for pairing in (
        [None, None],
        [(0, F(1)), None],
        [(0, F(0)), (1, F(1))],
        [(0, F(1)), (2, F(1))],
        [(-1, F(1)), (0, F(1))],
        [(F(0), F(1)), (1, F(1))],
        [[F(1), F(0)], [F(0), F(1)]],  # a dense matrix is no pairing row form
    ):
        with pytest.raises(ValueError, match="degenerate pairing"):
            build_L(table, pairing, 2)
    for pairing in ([(0, F(1))], [(0, F(1)), (1, F(1)), (2, F(1))]):
        with pytest.raises(ValueError, match="size does not match"):
            build_L(table, pairing, 2)


def test_build_L_rejects_a_pairing_with_two_entries_in_a_column():
    beta = EffClass((F(1), F(0)))
    with pytest.raises(ValueError, match="degenerate pairing"):
        build_L(InvariantTable(2, [TableEntry(beta, 0, 0, 0, F(1))]), [(1, F(1)), (1, F(1))], 2)


def test_build_L_refuses_a_zero_class_wherever_it_sits():
    # the class is checked before the value, so a zero value does not hide it
    zero, kept, beyond = EffClass((F(0), F(0))), EffClass((F(1), F(0))), EffClass((F(3), F(1)))
    bad = TableEntry(zero, 0, 0, 0, F(0))
    others = [TableEntry(beyond, 0, 0, 0, F(0)), TableEntry(beyond, 1, 1, 1, F(2)), TableEntry(kept, 0, 1, 0, F(5))]
    for at in range(len(others) + 1):
        entries = others[:at] + [bad] + others[at:]
        with pytest.raises(ValueError, match="^table entries must have nonzero effective class$"):
            build_L(InvariantTable(2, entries), [(0, F(1)), (1, F(1))], 2)
    # a truncation below every class skips the zero class too, as before
    assert build_L(InvariantTable(2, [bad]), [(0, F(1)), (1, F(1))], -1).terms == {}


def test_build_L_skips_a_class_beyond_the_truncation_each_time():
    kept, beyond = EffClass((F(2), F(1, 2))), EffClass((F(3), F(1)))
    entries = [TableEntry(beta, a, a, 1 - a, F(a + 1)) for a in (0, 1) for beta in (beyond, kept, beyond)]
    op = build_L(InvariantTable(2, entries), [(0, F(1)), (1, F(-1))], 2)
    # kept entries: value * P^{-1}[col][col] with the sign (-1)^{a+1}
    assert {key: {cell: str(x) for cell, x in cells.items()} for key, cells in op.terms.items()} == {
        (kept, -1): {(1, 0): "1"},
        (kept, -2): {(0, 1): "2"},
    }


def _compact_type_rows(m):
    """For the ct and ambient pairings: (`pairing_rows` on the compact-type
    basis, the compact-type block of `pairing_gram`), after checking that the
    rows are a signed permutation and expand to that block."""
    basis = compact_type_basis(m)
    n = len(basis)
    at = {fp: i for i, fp in enumerate(state_basis(m))}
    out = []
    for kind in ("ct", "ambient"):
        rows = pairing_rows(m, kind, basis)
        assert None not in rows and sorted(c for c, _ in rows) == list(range(n)), (str(m), kind)
        assert all(x != 0 for _, x in rows), (str(m), kind)
        gram = pairing_gram(m, kind)
        block = [[gram[at[a]][at[b]] for b in basis] for a in basis]
        assert block == [[x if c == j else 0 for j in range(n)] for c, x in rows], (str(m), kind)
        out.append((rows, block))
    return out


@pytest.mark.parametrize("m", qsd_model_family(), ids=str)
def test_entrywise_inverse_of_both_pairings(m):
    n = len(compact_type_basis(m))
    identity = [[F(int(r == c)) for c in range(n)] for r in range(n)]
    for rows, block in _compact_type_rows(m):
        inverse = [[F(0)] * n for _ in range(n)]
        for i, (j, x) in enumerate(rows):
            inverse[j][i] = 1 / x
        assert [[sum(block[r][k] * inverse[k][c] for k in range(n)) for c in range(n)] for r in range(n)] == identity


def test_pairing_rows_on_the_compact_type_basis_of_every_pairing_model():
    # the 1815 models of the pairing comparison (criterion 9)
    models = list(wps_model_family())
    assert len(models) == 1815
    for m in models:
        _compact_type_rows(m)


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


def test_integer_transport_matches_the_fraction_exponents():
    # the transport phase written with Fraction exponents, entry by entry
    def by_fractions(table, m, basis):
        ages = {s.f: age(s.fiber_weights) for s in m.sectors}
        out = []
        for e in table.entries:
            exponent = e.beta.det + m.rank - ages[basis[e.row][0]] - ages[basis[e.col][0]]
            if isinstance(e.value, PhasedScalar):
                out.append(PhasedScalar({exponent: 1}) * e.value)
            else:
                out.append(PhasedScalar({exponent: e.value}))
        return out

    rng = random.Random(5)
    cases = [(m, random_invariant_table(m, n, rng, n_classes=3, a_max=2)) for m in qsd_model_family() for n in (1, 3)]
    m = WPSModel((1, 2, 3), (1,))
    dim = len(compact_type_basis(m))
    values = [PhasedScalar({F(1, 3): F(2, 5), F(3, 4): -1}), PhasedScalar(), PhasedScalar.from_rational(F(-7, 2))]
    betas = [EffClass((F(1), F(-5, 4))), EffClass((F(2), F(7, 3))), EffClass((F(1), F(0)))]
    entries = [
        TableEntry(beta, 0, r, c, values[(r + c + i) % 3]) for i, beta in enumerate(betas) for r in range(dim) for c in range(dim)
    ]
    cases.append((m, InvariantTable(dim, entries)))
    for m, table in cases:
        basis = compact_type_basis(m)
        got = [e.value for e in transported_table(table, m, basis).entries]
        want = by_fractions(table, m, basis)
        assert got == want and list(map(str, got)) == list(map(str, want)), str(m)


def test_qsd_identity_random_tables_on_p1122_hypersurface_model():
    m = WPSModel((1, 1, 2, 2), (1,))
    for seed in range(5):
        rng = random.Random(seed)
        table = random_invariant_table(m, 3, rng)
        report = verify_qsd_operator_identity(table, m, 3)
        assert report.ok, report.first_violation


def test_qsd_identity_reads_a_zero_value_as_no_entry():
    # a kept entry of value 0 changes no check: one on a cell that another
    # entry holds, one on a (class, psi power) key that no other entry reaches
    m = WPSModel((1, 1, 2, 2), (1,))
    table = random_invariant_table(m, 3, random.Random(0), n_classes=2)
    e = table.entries[0]
    assert (e.beta, 3) not in {(f.beta, f.psi_power) for f in table.entries}
    zeros = (TableEntry(e.beta, e.psi_power, e.row, e.col, F(0)), TableEntry(e.beta, 3, 0, 0, F(0)))
    plain = verify_qsd_operator_identity(table, m, 3)
    padded = verify_qsd_operator_identity(InvariantTable(table.dim, table.entries + zeros), m, 3)
    assert (padded.checks, padded.ok) == (plain.checks, plain.ok) == (150, True)


def test_qsd_identity_detects_tampered_phase():
    # sanity of the verifier itself: breaking one transported entry must fail
    m = WPSModel((1, 1, 2, 2), (1,))
    rng = random.Random(1)
    table = random_invariant_table(m, 2, rng, n_classes=1, a_max=0)
    assert table.entries
    basis = compact_type_basis(m)
    op_e = build_L(table, pairing_rows(m, "ct", basis), 2)
    z_table = transported_table(table, m, basis)
    e = z_table.entries[0]
    bad = TableEntry(e.beta, e.psi_power, e.row, e.col, PhasedScalar.coerce(e.value) * F(2), e.sectors)
    bad_table = InvariantTable(z_table.dim, (bad,) + z_table.entries[1:])
    op_z = build_L(bad_table, pairing_rows(m, "ambient", basis), 2)
    sub = op_e.substitute_novikov()
    keys = op_z.nonzero_keys() | sub.nonzero_keys()
    assert any(
        _dense(op_z, *k)[i][j] != _dense(sub, *k)[i][j]
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
    with pytest.raises(ValueError, match=r"^inconsistent table: entry 0: sector pair .* does not match basis sectors$"):
        verify_qsd_operator_identity(bad, m, 2)


def test_tables_are_checked_when_built():
    beta = EffClass((F(1), F(0)))
    with pytest.raises(
        ValueError,
        match=r"^inconsistent table: entry 0: basis index out of range; entry 1: negative descendant power; "
        r"entry 2: basis index out of range; entry 2: negative descendant power$",
    ):
        InvariantTable(
            2, [TableEntry(beta, 0, 2, 0, F(1)), TableEntry(beta, -1, 1, 1, F(1)), TableEntry(beta, -1, 0, -1, F(1))]
        )
    table = InvariantTable(2, [TableEntry(beta, 0, 1, 0, F(1))])
    assert table.entries == (TableEntry(beta, 0, 1, 0, F(1)),)
    with pytest.raises(AttributeError):
        table.entries = ()


@pytest.mark.parametrize(
    "psi_power, row, col",
    [(0, 0, 1.0), (1.5, True, 0), ("1", 0, 0), (0, F(1), 0)],
    ids=["float-col", "float-power-bool-row", "str-power", "fraction-row"],
)
def test_table_indices_must_be_ints(psi_power, row, col):
    beta = EffClass((F(1), F(0)))
    with pytest.raises(ValueError, match=r"^inconsistent table: entry 1: non-integer index or descendant power$"):
        InvariantTable(2, [TableEntry(beta, 0, 0, 0, F(1)), TableEntry(beta, psi_power, row, col, F(1))])


def _suite_tables(count):
    """The first `count` (model, table, truncation) triples of `suite_qsd_operator()`."""
    rng = random.Random(0)
    models = qsd_model_family(6)
    out = []
    for _ in range(count):
        m = rng.choice(models)
        n = rng.randint(1, 4)
        table = random_invariant_table(m, n, rng, n_classes=rng.randint(1, 3), a_max=rng.randint(0, 3))
        out.append((m, table, n))
    return out


def _dense_scan(table, m, truncation):
    """(checks, first_violation) of a dense row-major scan over `_dense`."""
    basis = compact_type_basis(m)
    dim = len(basis)
    op_z = build_L(series_mod.transported_table(table, m, basis), pairing_rows(m, "ambient", basis), truncation)
    sub = build_L(table, pairing_rows(m, "ct", basis), truncation).substitute_novikov()
    ages = {s.f: age(s.fiber_weights) for s in m.sectors}
    delta = [PhasedScalar({ages[f]: 1}) for f, _ in basis]
    dense = {k: (_dense(op_z, *k), _dense(sub, *k)) for k in op_z.terms.keys() | sub.terms.keys()}
    keys = [k for k, mats in dense.items() if any(not x.is_zero() for mat in mats for row in mat for x in row)]
    checks, first = 0, None
    for k in sorted(keys, key=lambda k: (k[0].ordering, k[1], str(k[0]))):
        z_mat, e_mat = dense[k]
        for i in range(dim):
            for j in range(dim):
                checks += 1
                if z_mat[i][j].is_zero() and e_mat[i][j].is_zero():
                    continue
                lhs, rhs = z_mat[i][j] * delta[j], delta[i] * e_mat[i][j]
                if lhs != rhs and first is None:
                    first = {"beta": str(k[0]), "z_power": k[1], "entry": (i, j), "lhs": str(lhs), "rhs": str(rhs)}
    return checks, first


def _scale_first_transported_entry(monkeypatch):
    transport = series_mod.transported_table

    def faulty(table, *args, **kwargs):
        out = transport(table, *args, **kwargs)
        if not out.entries:
            return out
        e = out.entries[0]
        scaled = TableEntry(e.beta, e.psi_power, e.row, e.col, e.value * 2, e.sectors)
        return InvariantTable(out.dim, (scaled,) + out.entries[1:])

    monkeypatch.setattr(series_mod, "transported_table", faulty)


def _negate_substitution_on_one_key(monkeypatch):
    substitute = LOperator.substitute_novikov

    def faulty(self):
        out = substitute(self)
        if out.terms:
            key = min(out.terms, key=lambda k: (k[0].ordering, k[1], str(k[0])))
            out.terms[key] = {cell: -x for cell, x in out.terms[key].items()}
        return out

    monkeypatch.setattr(LOperator, "substitute_novikov", faulty)


def _cancel_the_first_entry(table):
    """The table with a second entry that cancels its first one in the same cell."""
    e = table.entries[0]
    return InvariantTable(table.dim, table.entries + (TableEntry(e.beta, e.psi_power, e.row, e.col, -e.value, e.sectors),))


@pytest.mark.parametrize("fault", ["none", "transported", "substitution", "cancelling"])
def test_sparse_comparison_matches_the_dense_scan(monkeypatch, fault):
    cases = _suite_tables(150)
    if fault == "transported":
        _scale_first_transported_entry(monkeypatch)
    elif fault == "substitution":
        _negate_substitution_on_one_key(monkeypatch)
    elif fault == "cancelling":
        cases = [(m, _cancel_the_first_entry(t), n) for m, t, n in cases if t.entries]
    failing = 0
    for m, table, n in cases:
        report = verify_qsd_operator_identity(table, m, n)
        assert (report.checks, report.first_violation) == _dense_scan(table, m, n), str(m)
        failing += not report.ok
    assert (failing > 0) == (fault in ("transported", "substitution"))
    if fault == "cancelling":
        # the cancelled cells are stored as zeros, some alone in their key and
        # some beside nonzero cells
        alone = beside = 0
        for m, table, n in cases:
            op = build_L(table, pairing_rows(m, "ct", compact_type_basis(m)), n)
            for key, cells in op.terms.items():
                if any(x.is_zero() for x in cells.values()):
                    alone += key not in op.nonzero_keys()
                    beside += key in op.nonzero_keys()
        assert alone > 0 and beside > 0


# first_violation of the first 20 suite tables with their first transported
# entry doubled, recorded from the Fraction-coefficient PhasedScalar
FAULTY_REPORTS = [
    {"beta": "(4,0)", "z_power": -1, "entry": (0, 0), "lhs": "3/10", "rhs": "3/20"},
    {"beta": "(1,5/3)", "z_power": -1, "entry": (0, 1), "lhs": "1*e^{i*pi*2/3}", "rhs": "1/2*e^{i*pi*2/3}"},
    {"beta": "(3,3)", "z_power": -1, "entry": (0, 0), "lhs": "-3", "rhs": "-3/2"},
    {"beta": "(2,-3/4)", "z_power": -1, "entry": (1, 0), "lhs": "1*e^{i*pi*1/4}", "rhs": "1/2*e^{i*pi*1/4}"},
    {"beta": "(2,2)", "z_power": -1, "entry": (1, 0), "lhs": "-30", "rhs": "-15"},
    {"beta": "(1,1)", "z_power": -3, "entry": (0, 0), "lhs": "7", "rhs": "7/2"},
    {"beta": "(2,3/4)", "z_power": -1, "entry": (1, 0), "lhs": "4/3*e^{i*pi*3/4}", "rhs": "2/3*e^{i*pi*3/4}"},
    {"beta": "(1,-5/3)", "z_power": -1, "entry": (0, 0), "lhs": "8*e^{i*pi*1/3}", "rhs": "4*e^{i*pi*1/3}"},
    {"beta": "(2,3)", "z_power": -1, "entry": (0, 0), "lhs": "4/3", "rhs": "2/3"},
    {"beta": "(4,-3/2)", "z_power": -1, "entry": (1, 0), "lhs": "-1*e^{i*pi*1/2}", "rhs": "-1/2*e^{i*pi*1/2}"},
    {"beta": "(1,-3)", "z_power": -1, "entry": (0, 0), "lhs": "1/3", "rhs": "1/6"},
    None,  # its table is empty
    {"beta": "(4,2)", "z_power": -1, "entry": (0, 0), "lhs": "3", "rhs": "3/2"},
    {"beta": "(1,1)", "z_power": -2, "entry": (0, 0), "lhs": "8", "rhs": "4"},
    {"beta": "(2,3)", "z_power": -1, "entry": (0, 0), "lhs": "32/5", "rhs": "16/5"},
    {"beta": "(1,3/4)", "z_power": -1, "entry": (0, 0), "lhs": "-32/5*e^{i*pi*3/4}", "rhs": "-16/5*e^{i*pi*3/4}"},
    {"beta": "(1,-1)", "z_power": -4, "entry": (0, 0), "lhs": "-4/3", "rhs": "-2/3"},
    {"beta": "(1,2)", "z_power": -1, "entry": (0, 0), "lhs": "-8/3", "rhs": "-4/3"},
    {"beta": "(1,0)", "z_power": -1, "entry": (0, 0), "lhs": "4/15", "rhs": "2/15"},
    {"beta": "(1,0)", "z_power": -1, "entry": (1, 0), "lhs": "-27/5", "rhs": "-12/5"},
]
FAULTY_CLI_OUT = (
    '{"command":"series-verify","results":{"coefficient_checks":16,"first_violation":'
    '{"beta":"(1,5/3)","entry":[0,1],"lhs":"1*e^{i*pi*2/3}","rhs":"1/2*e^{i*pi*2/3}","z_power":-1},'
    '"model":"P(1,3)","ok":false,"state_dim":4}}\n'
)


def _table_document(m, table):
    entries = [
        {"beta": {"degrees": [str(d) for d in e.beta.degrees]}, "sectors": [str(s) for s in e.sectors],
         "psi_power": e.psi_power, "row": e.row, "col": e.col, "value": str(e.value)}
        for e in table.entries
    ]
    return {"wps": {"weights": list(m.weights), "bundle": list(m.bundle_degrees)},
            "table": {"dim": table.dim, "entries": entries}}


def test_failing_reports_keep_their_bytes(monkeypatch, tmp_path, capsys):
    cases = _suite_tables(20)
    _scale_first_transported_entry(monkeypatch)
    assert [verify_qsd_operator_identity(t, m, n).first_violation for m, t, n in cases] == FAULTY_REPORTS
    m, table, n = cases[1]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_table_document(m, table)))
    assert cli.main(["--json", "--order", str(n), "series-verify", str(path)]) == 1
    assert capsys.readouterr().out == FAULTY_CLI_OUT


def test_operator_check_cost_follows_the_table(monkeypatch):
    # a 400-dimensional basis and three entries: the check multiplies a
    # bounded number of times per entry while counting every cell of each key
    m = WPSModel((1, 400), (1,))
    dim = len(compact_type_basis(m))
    assert dim == 400
    entries = [
        TableEntry(EffClass((F(1), F(1, 2))), 0, 0, 0, F(3)),
        TableEntry(EffClass((F(2), F(1))), 1, 1, 399, F(-2, 5)),
        TableEntry(EffClass((F(1), F(0))), 2, 5, 7, F(7)),
    ]
    calls = []
    mul = PhasedScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(PhasedScalar, "__mul__", counted)
    report = verify_qsd_operator_identity(InvariantTable(dim, entries), m, 2)
    assert report.ok
    assert report.checks == len(entries) * dim**2
    assert len(calls) <= 6 * len(entries)


def test_operator_check_memory_follows_the_table():
    # the pairings are inverted row by row: no dim x dim matrix is built
    m = WPSModel((1, 1000), (1,))
    dim = len(compact_type_basis(m))
    entries = [
        TableEntry(EffClass((F(1), F(1, 2))), 0, 0, 0, F(3)),
        TableEntry(EffClass((F(2), F(1))), 1, 1, dim - 1, F(-2, 5)),
        TableEntry(EffClass((F(1), F(0))), 2, 5, 7, F(7)),
    ]
    table = InvariantTable(dim, entries)
    tracemalloc.start()
    try:
        report = verify_qsd_operator_identity(table, m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.checks == len(entries) * dim**2
    assert peak < 4 * 2**20, peak
