"""Weighted projective state spaces: sectors, integrals, pairings, delta transform."""
import math
import pickle
import random
from fractions import Fraction as F

import pytest

from orbicurve import series, suites, wps
from orbicurve.foundation import PhasedScalar
from orbicurve.linalg import mat_rank
from orbicurve.oracles import StateElement, ambient_pairing, cr_pairing, ct_pairing, delta_tilde
from orbicurve.sectors import SectorAction, age, inverse_sector
from orbicurve.wps import (
    WPSModel,
    comparison_sides,
    integrate,
    pairing_gram,
    sector_at,
    state_basis,
    verify_delta_iso_dims,
    verify_pairing_comparison,
)


def rotations(m):
    return [s.f for s in m.sectors]


def test_sectors_examples():
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
    basis = [(s.f, p) for s in m.sectors for p in range(s.dim + 1)]
    for f1, p1 in basis:
        for f2, p2 in basis:
            x = StateElement.basis(m, f1, p1)
            y = StateElement.basis(m, f2, p2)
            assert cr_pairing(m, x, y) == cr_pairing(m, y, x)


def test_sector_involution():
    for m in (WPSModel((1, 2, 3)), WPSModel((2, 3, 4), (1, 2))):
        for s in m.sectors:
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


def _coeff(elem: StateElement, f, power: int):
    """Coefficient of H^power on sector f, zero on a sector the class misses."""
    f = F(f) % 1
    return elem.parts[f][power] if f in elem.parts else F(0)


def _add(x: StateElement, y: StateElement) -> StateElement:
    parts = {f: list(c) for f, c in x.parts.items()}
    for f, coeffs in y.parts.items():
        parts[f] = [a + b for a, b in zip(parts[f], coeffs)] if f in parts else list(coeffs)
    return StateElement(x.model, parts)


def test_delta_tilde_examples():
    m = WPSModel((1, 1, 2, 2), (1,))
    out = delta_tilde(m, StateElement.basis(m, F(0), 2))
    assert _coeff(out, F(0), 2) == PhasedScalar.from_rational(1)
    out = delta_tilde(m, StateElement.basis(m, F(1, 2), 0))
    assert _coeff(out, F(1, 2), 0) == PhasedScalar.root(1, 2)


def test_delta_tilde_linearity():
    m = WPSModel((1, 1, 2, 2), (1,))
    x = StateElement.basis(m, F(0), 1)
    y = StateElement.basis(m, F(1, 2), 1)
    y32 = StateElement(m, {F(1, 2): [F(0), F(3, 2)]})  # 3/2 * y
    lhs = delta_tilde(m, _add(x, y32))
    moved_y = delta_tilde(m, y)
    rhs = _add(delta_tilde(m, x), StateElement(m, {f: [F(3, 2) * c for c in cs] for f, cs in moved_y.parts.items()}))
    for f, coeffs in lhs.parts.items():
        for p, c in enumerate(coeffs):
            assert PhasedScalar.coerce(c) == PhasedScalar.coerce(_coeff(rhs, f, p))


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
        basis = state_basis(m)
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


def test_sector_at_takes_exact_rotations_only():
    m = WPSModel((1, 2), (1,))
    half = sector_at(m, F(1, 2))
    for f, sector in (("1/2", half), ("-1/2", half), (3, sector_at(m, F(0)))):
        got = sector_at(m, f)
        assert (got.f, got.fixed_indices, got.age_num) == (sector.f, sector.fixed_indices, sector.age_num)
    # read as Fractions, 0.5 would be the sector 1/2, True the sector 0, and 0.1 its binary expansion
    for f in (0.5, True, 0.1):
        with pytest.raises(TypeError, match=f"^not an exact rational: {f!r}$"):
            sector_at(m, f)


def test_model_rejects_weights_and_degrees_that_are_not_integers():
    # no silent cast: 1.5 would become 1, "3" would become 3, True would become 1
    for weights, degrees, message in (
        ((1.5, 2), (), "weight must be an integer, got 1.5"),
        (("3", True), (2,), "weight must be an integer, got '3'"),
        ((3, True), (), "weight must be an integer, got True"),
        ((1, 2), (2.9,), "bundle degree must be an integer, got 2.9"),
        ((1, 2), (1, 2.0), "bundle degree must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WPSModel(weights, degrees)
    assert WPSModel([1, 2], [3]) == WPSModel((1, 2), (3,))


def test_state_element_truncation():
    m = WPSModel((1, 1, 2, 2), (1,))
    with pytest.raises(ValueError, match="degree"):
        StateElement(m, {F(1, 2): [F(1), F(0), F(1)]})


def _dense_failures(m):
    """The failures of a dense row-major scan of `comparison_sides`."""
    basis, lhs, rhs = comparison_sides(m)
    return [
        {"g1": g1, "g2": g2, "lhs": str(lhs[i][j]), "rhs": str(rhs[i][j])}
        for i, g1 in enumerate(basis)
        for j, g2 in enumerate(basis)
        if lhs[i][j] != rhs[i][j]
    ]


def _dense_iso(m):
    """(f, image dim, block rank, kernel stable) per sector, by `mat_rank` on
    the dense matrix of the Euler-factor multiplication and on the blocks cut
    out of the dense ambient Gram matrix.  The kernel of the transposed block
    B^T is stable under the multiplication M when adding the rows of B^T M to
    those of B^T keeps the rank."""
    basis = state_basis(m)
    gram = pairing_gram(m, "ambient")
    out = []
    for s in m.sectors:
        coeff, power = wps.euler_factor(m, s)
        n = s.dim + 1
        mult = [[coeff if r == c + power else 0 for c in range(n)] for r in range(n)]
        rows = [i for i, (f, _) in enumerate(basis) if f == s.f]
        cols = [j for j, (f, _) in enumerate(basis) if f == (1 - s.f) % 1]
        transposed = [[gram[i][j] for i in rows] for j in cols]
        moved = [[sum(x * mult[r][c] for r, x in enumerate(row) if x) for c in range(n)] for row in transposed]
        rank = mat_rank(transposed)
        out.append((s.f, mat_rank(mult), rank, mat_rank(transposed + moved) == rank))
    return out


def _iso_rows(report):
    return [(r.f, r.image_dim, r.ambient_pairing_rank, r.kernel_stable) for r in report.sectors]


def _corrupt(name, f, coeff=lambda c: c, power=lambda p: p):
    """Corrupt the Euler factor `name` on the sector with rotation f."""
    orig = getattr(wps, name)

    def corrupted(m, s):
        c, p = orig(m, s)
        return (coeff(c), power(p)) if s.f == f else (c, p)

    return corrupted


def _scale_volume(factor, where):
    orig = wps.integrate
    return lambda m, s, k: orig(m, s, k) * (factor if where(s.f) else 1)


# fault -> (patches, does the pairing comparison fail somewhere, does the iso check)
FAULTS = {
    "none": (lambda: {}, False, False),
    "ct coefficient at 1/2": (
        lambda: {"dual_euler_factor": _corrupt("dual_euler_factor", F(1, 2), coeff=lambda c: c + 1)}, True, False
    ),
    "ct power at 0": (lambda: {"dual_euler_factor": _corrupt("dual_euler_factor", 0, power=lambda p: p + 1)}, True, False),
    # both sides of the comparison scale alike, and no block loses its rank
    "volume x2 at thirds": (lambda: {"integrate": _scale_volume(2, lambda f: f.denominator == 3)}, False, False),
    "volume 0 at 1/2": (lambda: {"integrate": _scale_volume(0, lambda f: f == F(1, 2))}, False, True),
    # the iso check reads one Euler factor for its block and its shift, so the
    # image dimensions change but still match; the extra power also flips
    # the sign of the dual Euler factor, which the comparison sees
    "coefficient 0 at 1/2": (lambda: {"euler_factor": _corrupt("euler_factor", F(1, 2), coeff=lambda c: 0)}, False, False),
    "power at 0": (lambda: {"euler_factor": _corrupt("euler_factor", 0, power=lambda p: p + 1)}, True, False),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_block_walk_matches_the_dense_scan(monkeypatch, fault):
    patches, pairing_fails, iso_fails = FAULTS[fault]
    for name, corrupted in patches().items():
        monkeypatch.setattr(wps, name, corrupted)
    failing = not_iso = 0
    for m in suites.wps_model_family(max_n=3):
        report = verify_pairing_comparison(m)
        assert report.failures == _dense_failures(m), str(m)
        assert report.checks == len(state_basis(m)) ** 2
        iso = verify_delta_iso_dims(m)
        assert _iso_rows(iso) == _dense_iso(m), str(m)
        failing += not report.ok
        not_iso += not iso.ok
    assert (failing > 0, not_iso > 0) == (pairing_fails, iso_fails)


def test_closed_form_iso_matches_the_dense_ranks_on_the_family():
    for m in suites.wps_model_family():
        assert _iso_rows(verify_delta_iso_dims(m)) == _dense_iso(m), str(m)


def test_kernel_check_sees_an_unpaired_class_shifted_onto_a_paired_row(monkeypatch):
    # a block pairing H^p with H^{3-p} on P(1,1,1) leaves H^0 unpaired, and
    # the Euler factor 3H sends it onto the paired H^1
    monkeypatch.setattr(wps, "pairing_blocks", lambda m, kind: [(F(3), 3)])
    (rep,) = verify_delta_iso_dims(WPSModel((1, 1, 1), (3,))).sectors
    assert (rep.image_dim, rep.ambient_pairing_rank, rep.kernel_stable) == (2, 2, False)


def test_verification_never_expands_the_gram_matrix(monkeypatch):
    def dense(*args):
        raise RuntimeError("dense Gram matrix built")

    monkeypatch.setattr(wps, "pairing_gram", dense)
    for m in (WPSModel((1, 1, 2, 2), (1,)), WPSModel((1, 2, 3), (2,)), WPSModel((2, 3, 4), (1, 2))):
        assert verify_pairing_comparison(m).ok and verify_delta_iso_dims(m).ok
    m = WPSModel((1, 1, 2, 2), (1,))
    table = series.random_invariant_table(m, 3, random.Random(0))
    assert series.verify_qsd_operator_identity(table, m, 3).ok


def test_sector_walk_in_integers_matches_rationals():
    # rotations k/w of every weight, fixed coordinates by (f * w) in Z
    for m in suites.wps_model_family(max_n=3, max_w=6, max_r=2, max_k=5):
        rotations = sorted({F(k, w) for w in m.weights for k in range(w)})
        assert [s.f for s in m.sectors] == rotations
        for s in m.sectors:
            assert s.fixed_indices == tuple(i for i, w in enumerate(m.weights) if (s.f * w).denominator == 1)
            assert s.fiber_weights.weights == tuple((s.f * k) % 1 for k in m.bundle_degrees)


def test_sector_walk_matches_a_fraction_walk():
    # each sector of the integer walk against one computed here in Fractions:
    # rotations k/w, fixed coordinates where f*w is an integer, fiber weights
    # (f*k) mod 1, the age their sum and the integer age that sum times lcm(weights)
    for m in suites.wps_model_family(max_n=4, max_w=4):
        N = math.lcm(*m.weights)
        walk = []
        for f in sorted({F(k, w) for w in m.weights for k in range(w)}):
            fibers = tuple((f * k) % 1 for k in m.bundle_degrees)
            fixed = tuple(i for i, w in enumerate(m.weights) if (f * w).denominator == 1)
            walk.append((f, fixed, fibers, sum(fibers, F(0))))
        assert [(s.f, s.fixed_indices, s.fiber_weights.weights, F(s.age_num, N)) for s in m.sectors] == walk
        # the fiber action is the one the checking constructor builds from those Fractions
        assert [s.fiber_weights for s in m.sectors] == [SectorAction(fibers) for _, _, fibers, _ in walk]
        assert [hash(s.fiber_weights) for s in m.sectors] == [hash(SectorAction(fibers)) for _, _, fibers, _ in walk]
        assert [s.age_num for s in m.sectors] == [a * N for *_, a in walk]
        assert all(type(s.age_num) is int for s in m.sectors)


def test_each_model_walks_its_sectors_once(monkeypatch):
    table = series.random_invariant_table(WPSModel((1, 1, 2, 2), (1,)), 3, random.Random(0))
    walked = []
    orig = wps.sector_at
    monkeypatch.setattr(wps, "sector_at", lambda m, f: walked.append(f) or orig(m, f))
    m = WPSModel((1, 1, 2, 2), (1,))
    assert verify_pairing_comparison(m).ok and verify_delta_iso_dims(m).ok
    comparison_sides(m)
    pairing_gram(m, "ct")
    state_basis(m)
    series.compact_type_basis(m)
    assert series.verify_qsd_operator_identity(table, m, 3).ok
    assert walked == [s.f for s in m.sectors] == [F(0), F(1, 2)]


def test_each_model_derives_its_blocks_basis_and_ages_once(monkeypatch):
    derived = []
    block_volume, image_dim, fiber_action = wps.integrate, series.euler_image_dim, wps._over
    rows = series.pairing_rows
    monkeypatch.setattr(wps, "integrate", lambda m, s, k: derived.append(("block", s.f)) or block_volume(m, s, k))
    monkeypatch.setattr(series, "euler_image_dim", lambda m, s: derived.append(("basis", s.f)) or image_dim(m, s))

    def counted_action(nums, n):  # a sector's age is summed from the fiber action `_over` builds
        derived.append(("age", fiber_action(nums, n)))
        return derived[-1][1]

    monkeypatch.setattr(wps, "_over", counted_action)
    monkeypatch.setattr(wps, "lcm", lambda *ws: derived.append(("N", ws)) or math.lcm(*ws))
    monkeypatch.setattr(series, "pairing_rows", lambda m, kind, b: derived.append(("rows", kind)) or rows(m, kind, b))
    m = WPSModel((1, 1, 2, 2), (1,))
    table = series.random_invariant_table(m, 3, random.Random(0))
    for _ in range(2):
        assert verify_pairing_comparison(m).ok and verify_delta_iso_dims(m).ok
        comparison_sides(m)
        pairing_gram(m, "cr")
        assert series.verify_qsd_operator_identity(table, m, 3).ok
    # one N, one block per sector for each of the three kinds, one basis walk,
    # one age per sector, and the rows of the ct and ambient pairings on the basis once
    fs = [s.f for s in m.sectors]
    expected = [("block", f) for f in fs] * 3 + [("basis", f) for f in fs] + [("rows", "ambient"), ("rows", "ct")]
    expected.append(("N", m.weights))
    assert sorted(d for d in derived if d[0] != "age") == sorted(expected)
    assert set(m.kept) == {"ambient", "ct", "cr", "ct basis", "ct basis rows"}
    assert [w for kind, w in derived if kind == "age"] == [s.fiber_weights for s in m.sectors]
    # the kept basis is never handed out: each call returns a new list
    series.compact_type_basis(m).clear()
    assert series.compact_type_basis(m) == [(F(0), p) for p in range(3)] + [(F(1, 2), p) for p in range(2)]


def test_cached_sectors_leave_equality_hash_and_pickling_alone():
    for m in suites.wps_model_family(max_n=3):
        fresh = WPSModel(m.weights, m.bundle_degrees)
        assert verify_pairing_comparison(m).ok and verify_delta_iso_dims(m).ok
        pairing_gram(m, "cr")
        series.compact_type_basis(m)
        assert isinstance(m.sectors, tuple) and set(m.kept) == {"ambient", "ct", "cr", "ct basis"}
        # N = lcm(weights) is worked out once, when the model is built, and shows in no field
        assert m.N == fresh.N == math.lcm(*m.weights) and "N" not in repr(m)
        assert "sectors" not in vars(fresh) and fresh.kept == {}
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert [hash(s) for s in m.sectors] == [hash(s) for s in fresh.sectors]
        # a pickle holds the fields alone: a used model pickles as a fresh one
        assert pickle.dumps(m) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and copy.sectors == m.sectors and copy.kept == {}
