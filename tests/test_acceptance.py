"""Acceptance gate: every advertised guarantee at its full stated bounds.

Each test runs one verification suite at the documented grid and requires
zero failures, exact arithmetic throughout, and the instance counts of
criteria 1-7 and 9-11 are frozen.  One summary line per criterion
is printed (visible with `pytest -s` or on failure).
"""
import time

from orbicurve import suites


def _report(number: int, result: suites.SuiteResult, description: str, elapsed: float) -> None:
    status = "PASS" if result.ok else "FAIL"
    extra = f", details={result.details}" if result.details else ""
    print(
        f"[{status}] criterion {number:2d}: {description} "
        f"(suite={result.name}, instances={result.instances}, failures={result.failures}{extra}, {elapsed:.1f}s)"
    )
    assert result.ok, (result.name, result.first_counterexample)


def run(number, description, fn, **kwargs):
    started = time.monotonic()
    result = fn(**kwargs)
    _report(number, result, description, time.monotonic() - started)
    return result


def test_criterion_01_h1_vanishing():
    res = run(
        1,
        "h1 vanishes for every non-negatively twisted line bundle",
        suites.suite_h1_vanishing,
        max_ab=6,
        max_l=6,
        max_d=12,
    )
    assert res.instances == 9737  # exhaustive grid size, frozen


def test_criterion_02_h1_two_path_agreement():
    res = run(
        2,
        "Serre-route h1 equals direct negative-monomial h1",
        suites.suite_h1_two_path,
        max_ab=6,
        max_l=6,
        max_d=12,
    )
    assert res.instances == 18725


def test_criterion_03_riemann_roch():
    res = run(
        3,
        "h0 - h1 = deg + 1 - age_x1 - age_x2 exactly",
        suites.suite_riemann_roch,
        max_ab=6,
        max_l=6,
        max_d=12,
    )
    assert res.instances == 18725


def test_criterion_04_semipositive_implies_convex():
    res = run(
        4,
        "semi-positive chain bundles have h1(L(-x2)) = 0 (rank <= 2)",
        suites.suite_weak_convexity,
        max_ab=4,
        max_l=4,
        max_d=8,
        max_len=3,
    )
    assert res.details["rank2_failures"] == 0
    assert res.details["sampled"] > 0
    assert (res.instances, res.details["rank2_pairs"], res.details["sampled"]) == (2194022, 2481337074, 10998)


def test_criterion_05_convex_iff_concave():
    res = run(
        5,
        "h0(dual(L)(-x1)) = h1(L(-x2)) summandwise on the full grid",
        suites.suite_weak_concavity,
        max_ab=4,
        max_l=4,
        max_d=8,
        max_len=3,
    )
    assert res.details["rank2_equiv_failures"] == 0
    assert res.details["n_tf"] == 0 and res.details["n_ft"] == 0
    assert res.instances == 14585906
    assert (res.details["n_tt"], res.details["n_ff"]) == (6104853, 8481053)
    assert (res.details["rank2_pairs"], res.details["sampled"]) == (112174113690, 73277)


def test_criterion_06_log_canonical_certificate():
    res = run(
        6,
        "log-canonical certificate on every chain of length <= 6",
        suites.suite_log_canonical,
        max_ab=4,
        max_l=4,
        max_len=6,
    )
    assert (res.instances, res.details["sampled"]) == (1328569, 6647)


def test_criterion_07_rank_formula():
    res = run(
        7,
        "degree/age rank formula equals direct h1 of the twisted dual",
        suites.suite_rank_formula,
        max_ab=4,
        max_l=4,
        max_d=8,
    )
    assert (res.instances, res.details["rank2_pairs"]) == (1870, 3496900)
    res = run(
        7,
        "rank formula on genuine rank-2 split bundles (direct sweep)",
        suites.suite_rank2_direct,
    )
    assert res.instances == 1216


def test_criterion_08_age_sum_and_sign_consistency():
    run(
        8,
        "age-sum and sign-consistency identities on random sectors",
        suites.suite_age_sum,
        trials=10000,
        max_den=12,
        seed=0,
    )


def test_criterion_09_pairing_comparison():
    res = run(
        9,
        "pairing comparison and transform image dimensions, all models",
        suites.suite_pairing_comparison,
        max_n=5,
        max_w=4,
        max_r=2,
        max_k=4,
    )
    assert res.instances == 1815  # includes the weights (1,1,2,2), bundle (1) instance
    assert res.details["pairing_checks"] == 220050  # basis^2 per model, frozen
    assert res.details["sampled"] > 0  # elementwise oracle replays


def test_criterion_10_operator_identity():
    res = run(
        10,
        "fundamental-solution operator identity on 1000 random tables",
        suites.suite_qsd_operator,
        trials=1000,
        order=4,
        max_dim=6,
        seed=0,
    )
    assert res.instances == 1000
    assert res.details["coefficient_checks"] == 43336  # frozen with seed 0


def test_criterion_11_isotropy_oracle():
    res = run(
        11,
        "brute-force isotropy enumeration matches presentations",
        suites.suite_isotropy_oracle,
        max_cd=12,
    )
    assert res.instances == 144
