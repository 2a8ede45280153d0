"""Verification-suite plumbing at small bounds."""
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from orbicurve import suites


def test_component_family_is_valid():
    from orbicurve.curves import TwistedComponent

    fam = suites.component_family(4, 4)
    assert len(fam) == len(set(fam))
    for a, b, l1, l2 in fam:
        TwistedComponent(a, b, l1, l2)  # constructor enforces all invariants
    assert (1, 1, 1, 1) in fam and (2, 3, 2, 1) in fam


def test_iter_chains_node_matching():
    comps = suites.component_family(3, 2)
    for chain in suites.iter_chains(comps, 3):
        for i, j in zip(chain, chain[1:]):
            a1, b1, l11, l21 = comps[i]
            a2, b2, l12, l22 = comps[j]
            assert b1 * l11 * l21 == a2 * l12 * l22


def test_sweep_instances_all_match_the_elimination_oracle(monkeypatch):
    # every instance replayed: the prefix folds over the component tables, on
    # both sides of the concavity sweep, against Gaussian elimination through
    # the public API
    monkeypatch.setattr(suites, "SAMPLE_EVERY", 1)
    res = suites.suite_weak_concavity(max_ab=3, max_l=3, max_d=2, max_len=2, workers=1)
    assert res.ok and res.details["sampled"] == res.instances == 5898
    # length 4 reaches runs grounded through two constant monomials
    res = suites.suite_weak_concavity(max_ab=2, max_l=1, max_d=1, max_len=4, workers=1)
    assert res.ok and res.details["sampled"] == res.instances == 927
    res = suites.suite_log_canonical(max_ab=3, max_l=2, max_len=3, workers=1)
    assert res.ok and res.details["sampled"] == res.instances > 100


def test_concavity_sweep_takes_chains_longer_than_three():
    res = suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=1, max_len=4)
    assert res.ok and res.details["sampled"] > 0


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        ("suite_weak_convexity", dict(max_ab=3, max_l=2, max_d=6, max_len=2)),
        ("suite_weak_concavity", dict(max_ab=2, max_l=2, max_d=1, max_len=4)),
        ("suite_log_canonical", dict(max_ab=3, max_l=3, max_len=4)),
    ],
)
def test_replay_disagreement_raises_under_python_O(suite, kwargs):
    # the replays must not be assertions: python -O would strip them
    script = textwrap.dedent(
        f"""
        import sys
        from orbicurve import cohomology, suites

        if not sys.flags.optimize:
            sys.exit(2)
        oracle = cohomology.h_chain_by_elimination
        cohomology.h_chain_by_elimination = lambda B: tuple(v + 1 for v in oracle(B))
        try:
            suites.{suite}(**{kwargs!r}, workers=1)
        except cohomology.InternalInconsistency as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(pathlib.Path(suites.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "elimination" in proc.stdout


def test_pairing_suite_replays_a_sample_elementwise():
    res = suites.suite_pairing_comparison(3, 3, 1, 2)
    assert res.ok and res.instances == 48
    assert res.details == {"pairing_checks": 1488, "sampled": 5}  # models 0, 11, 22, 33, 44


def test_pairing_replay_disagreement_raises_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        from orbicurve import cohomology, suites, wps

        if not sys.flags.optimize:
            sys.exit(2)
        oracle = wps.ct_pairing
        wps.ct_pairing = lambda m, a, b: oracle(m, a, b) + 1
        try:
            suites.suite_pairing_comparison(3, 2, 1, 2)
        except cohomology.InternalInconsistency as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = str(pathlib.Path(suites.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "elementwise" in proc.stdout


def test_suite_failures_keep_the_first_witness(monkeypatch):
    monkeypatch.setattr(suites.cohomology, "h1_component", lambda L: 1)
    res = suites.suite_h1_vanishing(max_ab=1, max_l=1, max_d=2)
    assert res.instances == res.failures == 3
    assert res.first_counterexample == {"bundle": "O^{0,0}(0) on P(1,1)", "h1": 1}


def test_small_suite_runs_pass():
    assert suites.suite_h1_vanishing(2, 2, 4).ok
    assert suites.suite_h1_two_path(2, 2, 4).ok
    assert suites.suite_riemann_roch(2, 2, 4).ok
    assert suites.suite_log_canonical(2, 2, 3).ok
    assert suites.suite_rank_formula(2, 2, 4).ok
    assert suites.suite_isotropy_oracle(6).ok
    assert suites.suite_age_oracle(2, 2, 3).ok
    assert suites.suite_age_sum(trials=200, seed=1).ok
    assert suites.suite_pairing_comparison(3, 2, 1, 2).ok
    assert suites.suite_qsd_operator(trials=5, order=2, seed=2).ok
    assert suites.suite_rank2_direct(2, 2, 3).ok


def test_convexity_suite_counts_rank2():
    res = suites.suite_weak_convexity(max_ab=2, max_l=2, max_d=3, max_len=2)
    assert res.ok
    assert res.details["rank2_pairs"] > res.instances
    # sampling fires every 199 instances per chunk; a slightly larger run must hit it
    res = suites.suite_weak_convexity(max_ab=3, max_l=2, max_d=6, max_len=2)
    assert res.ok and res.details["sampled"] > 0


def test_chunked_runner_parallel_matches_serial():
    serial = suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=3, max_len=2, workers=1)
    parallel = suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=3, max_len=2, workers=2)
    assert serial.instances == parallel.instances
    assert serial.failures == parallel.failures == 0
    assert serial.details == parallel.details
