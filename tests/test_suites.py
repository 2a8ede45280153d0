"""Verification-suite plumbing at small bounds."""
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction
from types import SimpleNamespace

import pytest

from orbicurve import bundles, cohomology, oracles, sectors, suites, wps
from orbicurve.bundles import EqLineBundle
from orbicurve.curves import MarkedPoint, TwistedComponent, present


def test_component_family_is_valid():
    fam = suites.component_family(4, 4)
    assert len(fam) == len(set(fam))
    for a, b, l1, l2 in fam:
        TwistedComponent(a, b, l1, l2)  # constructor enforces all invariants
    assert (1, 1, 1, 1) in fam and (2, 3, 2, 1) in fam


def test_iter_chains_node_matching():
    # every chain whose nodes match, each once, in lexicographic order: the
    # pre-order of a DFS that takes the extensions in ascending index order
    comps = suites.component_family(3, 2)
    matching = lambda i, j: comps[i][1] * comps[i][2] * comps[i][3] == comps[j][0] * comps[j][2] * comps[j][3]
    chains = [
        chain
        for n in range(1, 4)
        for chain in itertools.product(range(len(comps)), repeat=n)
        if all(map(matching, chain, chain[1:]))
    ]
    assert list(oracles.iter_chains(comps, 3)) == sorted(chains)
    assert list(oracles.iter_chains(comps, 3, first=2)) == sorted(c for c in chains if c[0] == 2)


def test_chain_adjacency_matches_all_pairs():
    comps = suites.component_family(6, 6)
    all_pairs = [
        [j for j, (a, _, l1, l2) in enumerate(comps) if a * l1 * l2 == b_i * l1_i * l2_i]
        for _, b_i, l1_i, l2_i in comps
    ]
    assert suites.chain_adjacency(comps) == all_pairs


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


def test_replays_catch_a_fault_in_the_node_activity_test(monkeypatch):
    # the oracle decides node activity by its own character test, so a fault in
    # bundles.acts_trivially_at, wherever it is bound, reaches the fold alone
    real = bundles.acts_trivially_at
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("orbicurve") and getattr(mod, "acts_trivially_at", None) is real:
            monkeypatch.setattr(mod, "acts_trivially_at", lambda L, pt: True)
    monkeypatch.setattr(suites, "SAMPLE_EVERY", 1)
    with pytest.raises(cohomology.InternalInconsistency, match="elimination"):
        suites.suite_weak_concavity(max_ab=3, max_l=3, max_d=2, max_len=2, workers=1)


def test_the_gate_sees_a_fault_in_the_free_flag(monkeypatch):
    # the nearest fault the two-flag fold can express: from (free, active) =
    # (F, T), a piece with a column at x1 and d == 0 leaves its column free,
    # as if the row had not grounded it
    step = cohomology.chain_step

    def faulty(state, piece):
        out = step(state, piece)
        _, _, nz1, _, merged, _ = piece
        return out[:2] + (True,) + out[3:] if state[2:] == (False, True) and nz1 and merged else out

    monkeypatch.setattr(cohomology, "chain_step", faulty)
    with pytest.raises(cohomology.InternalInconsistency, match="elimination"):
        suites.suite_weak_concavity(2, 2, 5, 3)


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
        from orbicurve import cohomology, oracles, suites

        if not sys.flags.optimize:
            sys.exit(2)
        oracle = oracles.h_chain_by_elimination
        oracles.h_chain_by_elimination = lambda B: tuple(v + 1 for v in oracle(B))
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
        from orbicurve import cohomology, oracles, suites

        if not sys.flags.optimize:
            sys.exit(2)
        oracle = oracles.ct_pairing
        oracles.ct_pairing = lambda m, a, b: oracle(m, a, b) + 1
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


def test_an_integer_age_fault_reaches_the_pairing_replay(monkeypatch):
    # age_num one whole N too large on the sectors with 0 < f < 1/2 turns their
    # transport phase e^{i*pi*age} into its negative.  The elementwise oracle
    # sums each sector's fiber weights itself, so the sampled replay of the
    # fault disagrees with it, besides the theorem failures the fault causes.
    sector_at = wps.sector_at

    def shifted(m, f):
        s = sector_at(m, f)
        return dataclasses.replace(s, age_num=s.age_num + m.N) if 0 < s.f < Fraction(1, 2) else s

    monkeypatch.setattr(wps, "sector_at", shifted)
    replay = r"^pairing comparison of P\(1,3\)/O\(4,4\): .*elementwise"
    with pytest.raises(cohomology.InternalInconsistency, match=replay):
        suites.suite_pairing_comparison(max_n=3)


def test_suite_failures_keep_the_first_witness(monkeypatch):
    monkeypatch.setattr(suites.cohomology, "h1_component", lambda L: 1)
    res = suites.suite_h1_vanishing(max_ab=1, max_l=1, max_d=2)
    assert res.instances == res.failures == 3
    assert res.first_counterexample == {"bundle": "O^{0,0}(0) on P(1,1)", "h1": 1}


def _grid_in_order(max_ab, max_l, ds):
    """The suites' bundle grid, written out as a plain nested loop."""
    for a, b, l1, l2 in suites.component_family(max_ab, max_l):
        comp = TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in ds:
                    yield EqLineBundle(comp, k1, k2, d)


def _hit(L):
    """The bundles the faults below hit: k1 + k2 = 1 and d even, on components
    with l1, l2 > 1, so the first witness moves if the grid's order of k1 and
    k2, or of d, changes."""
    return L.comp.l1 > 1 < L.comp.l2 and L.k1 + L.k2 == 1 and L.d % 2 == 0


def _h1_vanishing_witnesses(L):
    h1 = cohomology.h1_component(L)
    return [{"bundle": str(L), "h1": h1}] if h1 else []


def _h1_two_path_witnesses(L):
    direct = cohomology.h1_negative_monomials(L)
    serre = cohomology.h0_component(bundles.tensor(bundles.canonical_bundle(L.comp), bundles.dual(L)))
    return [{"bundle": str(L), "direct": direct, "serre": serre}] if direct != serre else []


def _riemann_roch_witnesses(L):
    h0, h1, chi = cohomology.h0_component(L), cohomology.h1_component(L), cohomology.riemann_roch_check(L)
    return [{"bundle": str(L), "h0": h0, "h1": h1, "riemann_roch": str(chi)}] if h0 - h1 != chi else []


def _age_oracle_witnesses(L):
    out = []
    for pt in (MarkedPoint.X1, MarkedPoint.X2):
        fast, slow = bundles.age_at(L, pt), oracles.brute_force_age(L, pt)
        if fast != slow:
            out.append({"bundle": str(L), "point": pt.value, "formula": str(fast), "oracle": str(slow)})
    return out


# suite -> (module and name of the faulted function, the fault, d range, witnesses of one bundle)
COMPONENT_FAULTS = {
    "suite_h1_vanishing": (
        cohomology, "h1_component", lambda f: lambda L: f(L) + _hit(L), range(5), _h1_vanishing_witnesses
    ),
    "suite_h1_two_path": (
        cohomology, "h1_negative_monomials", lambda f: lambda L: f(L) + _hit(L), range(-4, 5),
        _h1_two_path_witnesses,
    ),
    "suite_riemann_roch": (
        cohomology, "riemann_roch_check", lambda f: lambda L: f(L) + _hit(L), range(-4, 5),
        _riemann_roch_witnesses,
    ),
    "suite_age_oracle": (
        bundles, "age_at", lambda f: lambda L, pt: (f(L, pt) + Fraction(pt is MarkedPoint.X2 and _hit(L), 5)) % 1,
        range(-4, 5), _age_oracle_witnesses,
    ),
}


@pytest.mark.parametrize("suite", COMPONENT_FAULTS)
def test_component_suites_report_the_first_failing_bundle_in_grid_order(monkeypatch, suite):
    module, name, fault, ds, witnesses_of = COMPONENT_FAULTS[suite]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    witnesses = [w for L in _grid_in_order(2, 6, ds) for w in witnesses_of(L)]
    res = getattr(suites, suite)(2, 6, ds.stop - 1)
    assert witnesses
    assert res.failures == len(witnesses)
    assert res.first_counterexample == witnesses[0]


def _rank_hit(beta, weights1):
    """The sector data the rank-formula fault below hits: an even degree numerator and a nonzero age at x1."""
    return beta.numerator % 2 == 0 and any(weights1)


def _faulted_rank_formula(f):
    return lambda beta, g1, g2: f(beta, g1, g2) + _rank_hit(beta, g1.weights)


def _convex(L):
    """h1(L(-x2)) = 0: on one component, with no node, the component's own h1."""
    return cohomology.h1_component(bundles.twist_marked(L, MarkedPoint.X2, -1)) == 0


def _rank_value(L):
    """The rank formula of L from Fractions: deg L - age_x1(L) + age_x2(dual L)."""
    return L.degree - bundles.age_at(L, MarkedPoint.X1) + -bundles.age_at(L, MarkedPoint.X2) % 1


def _rank_formula_failures(max_ab, max_l, max_d):
    """(failures, first witness) of suite_rank_formula under the fault: each hit
    bundle, and each rank-2 pair of convex bundles with a hit summand."""
    convex = [L for L in _grid_in_order(max_ab, max_l, range(-max_d, max_d + 1)) if _convex(L)]
    hit = [L for L in convex if _rank_hit(L.degree, [bundles.age_at(L, MarkedPoint.X1)])]
    rf = _rank_value(hit[0])
    n, unhit = len(convex), len(convex) - len(hit)
    return len(hit) + n * n - unhit * unhit, {"bundle": str(hit[0]), "rank_formula": str(rf + 1), "direct_h1": rf}


def _rank2_direct_failures(max_ab, max_l, max_d):
    """(failures, first witness) of suite_rank2_direct under the fault: each hit pair of convex bundles."""
    witnesses = []
    for _, grid in itertools.groupby(_grid_in_order(max_ab, max_l, range(-max_d, max_d + 1)), lambda L: L.comp):
        for L1, L2 in itertools.combinations_with_replacement(grid, 2):
            ages = [bundles.age_at(L, MarkedPoint.X1) for L in (L1, L2)]
            if _convex(L1) and _convex(L2) and _rank_hit(L1.degree + L2.degree, ages):
                rf = _rank_value(L1) + _rank_value(L2)
                witnesses.append({"bundles": [str(L1), str(L2)], "rank_formula": str(rf + 1), "direct_h1": rf})
    return len(witnesses), witnesses[0]


def _isotropy_hit(comp):
    """The components the isotropy fault hits: c != d with a common factor, so
    the first hit in (c, d) order, (2, 4), is not the first in (d, c) order."""
    return comp.l > 1 and comp.a != comp.b


def _isotropy_oracle_failures(max_cd):
    """(failures, first witness) of suite_isotropy_oracle under the fault: the true counts are (c, d, 1)."""
    witnesses = [
        {"c": c, "d": d, "component": str(comp), "counts": {"x1": c, "x2": d + 1, "generic": 1}}
        for c in range(1, max_cd + 1)
        for d in range(1, max_cd + 1)
        if _isotropy_hit(comp := present(c, d))
    ]
    return len(witnesses), witnesses[0]


# suite -> (module and name of the faulted function, the fault, the suite's arguments, the expected failures)
WITNESS_FAULTS = {
    "suite_rank_formula": (sectors, "rank_formula", _faulted_rank_formula, (2, 6, 4), _rank_formula_failures),
    "suite_rank2_direct": (sectors, "rank_formula", _faulted_rank_formula, (2, 2, 3), _rank2_direct_failures),
    "suite_isotropy_oracle": (
        oracles, "brute_force_isotropy_counts",
        lambda f: lambda comp: dict(f(comp), x2=f(comp)["x2"] + _isotropy_hit(comp)), (8,), _isotropy_oracle_failures,
    ),
}


@pytest.mark.parametrize("suite", WITNESS_FAULTS)
def test_sector_and_isotropy_suites_report_the_first_failure_in_their_order(monkeypatch, suite):
    module, name, fault, args, failures_of = WITNESS_FAULTS[suite]
    failures, first = failures_of(*args)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    res = getattr(suites, suite)(*args)
    assert 0 < failures < res.instances + res.details.get("rank2_pairs", 0)
    assert (res.failures, res.first_counterexample) == (failures, first)


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


def test_chunked_runner_parallel_matches_serial(monkeypatch):
    # 3 replays pay for no worker: the pool only runs when told they do
    monkeypatch.setattr(suites, "REPLAYS_PER_WORKER", 1)
    serial = suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=3, max_len=2, workers=1)
    parallel = suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=3, max_len=2, workers=2)
    assert serial.instances == parallel.instances
    assert serial.failures == parallel.failures == 0
    assert serial.details == parallel.details


class _RecordedPool(suites.ProcessPoolExecutor):
    """The real pool, with the worker count of each one started."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers=max_workers)


class _FakePool:
    """Records the worker count asked for and runs the chunks in process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        future = Future()
        future.set_result(fn(arg))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def pools(monkeypatch):
    """Patch in a pool class; the list it returns collects the worker counts."""
    started = []

    def patch(cls, cpus=2):
        monkeypatch.setattr(cls, "started", started)
        monkeypatch.setattr(suites, "ProcessPoolExecutor", cls)
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus, raising=False)
        return started

    return patch


def test_log_canonical_parallel_matches_serial(monkeypatch, pools):
    # 20 replays pay for no worker: the pool only runs when told they do
    monkeypatch.setattr(suites, "REPLAYS_PER_WORKER", 1)
    started = pools(_RecordedPool)
    serial = suites.suite_log_canonical(max_ab=3, max_l=3, max_len=4, workers=1)
    parallel = suites.suite_log_canonical(max_ab=3, max_l=3, max_len=4, workers=2)
    assert started == [2]
    assert (serial.instances, serial.details) == (parallel.instances, parallel.details) == (5544, {"sampled": 20})
    assert serial.failures == parallel.failures == 0


def test_log_canonical_replays_in_process_below_the_break_even(pools):
    # (4, 4, 4) has 105 replays, far fewer than two workers pay for
    started = pools(_FakePool)
    res = suites.suite_log_canonical(max_ab=4, max_l=4, max_len=4, workers=2)
    assert started == [] and res.instances == 24999 and res.details == {"sampled": 105}
    # criterion 6's 6647 replays still get both
    assert 2 * suites.REPLAYS_PER_WORKER <= 6647


def test_bundle_sweeps_replay_in_process_below_the_break_even(pools):
    started = pools(_FakePool)
    res = suites.suite_weak_concavity(2, 2, 1, 2, workers=2)
    assert started == [] and res.instances == 300
    # criterion 5's 73277 replays and criterion 4's 10998 still get both
    assert 2 * suites.REPLAYS_PER_WORKER <= 10998


def test_chain_suites_default_to_one_worker_whatever_the_environment(monkeypatch, pools):
    # the worker count is an argument only: ORBICURVE_WORKERS starts no pool
    monkeypatch.setattr(suites, "REPLAYS_PER_WORKER", 1)
    monkeypatch.setenv("ORBICURVE_WORKERS", "2")
    started = pools(_FakePool)
    suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=2, max_len=3)
    suites.suite_log_canonical(max_ab=3, max_l=3, max_len=4)
    assert started == []


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pool_holds_at_most_two_runs_per_worker(workers):
    # the caller produces a run only when the pool has room for it, so the
    # runs not yet replayed do not pile up in its memory
    produced = []

    def args():
        for n in range(-20, 0):
            produced.append(n)
            yield n

    done = []
    for result in suites._run_chunks(abs, args(), workers):
        done.append(result)
        assert len(produced) - len(done) <= 2 * workers
    assert done == list(range(20, 0, -1))


@pytest.mark.parametrize("cpus", [3, 10**6])
def test_pools_ask_for_no_more_workers_than_runs_or_cpus(monkeypatch, pools, cpus):
    monkeypatch.setattr(suites, "REPLAYS_PER_WORKER", 1)
    started = pools(_FakePool, cpus)
    concave = suites.suite_weak_concavity(max_ab=2, max_l=2, max_d=2, max_len=3, workers=10_000)
    log_canonical = suites.suite_log_canonical(max_ab=3, max_l=3, max_len=4, workers=10_000)
    assert concave.details["sampled"] == 46 and log_canonical.details == {"sampled": 20}
    # one run per first component in both; 46 and 20 replays allow as many workers
    runs = len(suites.component_family(2, 2)), len(suites.component_family(3, 3))
    assert started == [min(runs[0], 46, cpus), min(runs[1], 20, cpus)]


def test_a_replay_fault_on_the_pool_reaches_the_caller():
    # a forked worker inherits the fault; the caller gets the one-worker
    # message, and the pool is gone when the suite returns
    script = textwrap.dedent(
        """
        import multiprocessing, sys
        from orbicurve import cohomology, oracles, suites

        if multiprocessing.get_start_method() != "fork":
            sys.exit(2)
        oracle = oracles.h_chain_by_elimination
        oracles.h_chain_by_elimination = lambda B: tuple(v + 1 for v in oracle(B))
        suites.REPLAYS_PER_WORKER = 1
        suites._usable_cpus = lambda: 2
        messages = []
        for workers in (1, 2):
            try:
                suites.suite_log_canonical(max_ab=3, max_l=3, max_len=4, workers=workers)
            except cohomology.InternalInconsistency as exc:
                messages.append(str(exc))
        print(len(messages), messages[0] == messages[-1], len(multiprocessing.active_children()))
        """
    )
    src = str(pathlib.Path(suites.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode == 2:
        pytest.skip("the pool does not fork here, so its workers would not inherit the fault")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 True 0\n"


@pytest.mark.parametrize(
    "env, workers, message",
    [
        (None, 0, "workers must be at least 1"),
        (None, -1, "workers must be at least 1"),
        ("2", 0, "workers must be at least 1"),  # the environment is not read
        (None, True, "workers must be an integer, got True"),
        (None, 1.5, "workers must be an integer, got 1.5"),
        (None, None, "workers must be an integer, got None"),
    ],
)
def test_chain_suites_refuse_an_unusable_worker_count(monkeypatch, env, workers, message):
    # nothing is counted: the refusal comes before the component family
    if env is not None:
        monkeypatch.setenv("ORBICURVE_WORKERS", env)
    monkeypatch.setattr(suites, "component_family", None)
    calls = [(suites.suite_weak_convexity, (2, 2, 1, 2)), (suites.suite_weak_concavity, (2, 2, 1, 2))]
    for suite, args in calls + [(suites.suite_log_canonical, (2, 2, 2))]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            suite(*args, workers=workers)


@pytest.mark.parametrize("max_len", [0, -1])
def test_chain_suites_refuse_a_max_len_below_one(monkeypatch, max_len):
    # nothing is counted: the refusal comes before the component family
    monkeypatch.setattr(suites, "component_family", None)
    for suite in (suites.suite_weak_convexity, suites.suite_weak_concavity):
        with pytest.raises(ValueError, match="^max_len must be at least 1$"):
            suite(2, 2, 1, max_len)
    with pytest.raises(ValueError, match="^max_len must be at least 1$"):
        suites.suite_log_canonical(2, 2, max_len)


@pytest.mark.parametrize(
    "suite, arg, value",
    [pytest.param("suite_log_canonical", "max_len", v, id=str(v)) for v in (2.5, True, "3")]
    + [
        pytest.param(suite, "seed", v, id=f"{suite}-seed-{v}")
        for suite in ("suite_age_sum", "suite_qsd_operator")
        for v in (None, True, 1.5, "abc")
    ],
)
def test_suites_refuse_an_argument_that_is_not_an_int(monkeypatch, suite, arg, value):
    # a bool is not read as 1, nor a float or a string compared or indexed,
    # nor a seed of any other type handed to random.Random; no work is done
    monkeypatch.setattr(suites, "component_family", None)
    monkeypatch.setattr(suites, "random", None)
    kwargs = {"max_ab": 2, "max_l": 2} if arg == "max_len" else {"trials": 2}
    with pytest.raises(ValueError, match=f"^{arg} must be an integer, got {re.escape(repr(value))}$"):
        getattr(suites, suite)(**kwargs, **{arg: value})


@pytest.mark.parametrize("order", [0, -1])
def test_qsd_suite_refuses_an_order_below_one(order):
    with pytest.raises(ValueError, match="^order must be at least 1$"):
        suites.suite_qsd_operator(trials=3, order=order)


@pytest.mark.parametrize(
    "name, arg, least",
    [
        (name, arg, suites.MINIMUMS[arg])
        for name, suite in suites.SUITES.items()
        for arg in inspect.signature(suite).parameters
        if arg != "seed"
    ],
)
def test_suites_refuse_an_argument_below_its_minimum(name, arg, least):
    # below its minimum an argument empties the suite's grid, family or
    # trials, and an empty suite would report success
    with pytest.raises(ValueError, match=f"^{arg} must be at least {least}$"):
        suites.SUITES[name](**{arg: least - 1})


def test_minimums_name_every_bounded_argument_and_leave_work():
    params = {name: set(inspect.signature(suite).parameters) for name, suite in suites.SUITES.items()}
    assert set(suites.MINIMUMS) == set().union(*params.values()) - {"seed"}
    for name, suite in suites.SUITES.items():
        res = suite(**{arg: suites.MINIMUMS[arg] for arg in params[name] - {"seed"}})
        assert res.ok and res.instances > 0, name


def test_log_canonical_sweep_takes_a_chain_of_1500_components():
    # one component, glued to itself: a single chain of each length, whose
    # subtree counts are 1500 deep
    res = suites.suite_log_canonical(max_ab=1, max_l=1, max_len=1500, workers=1)
    assert res.ok and res.instances == 1500 and res.details["sampled"] == 7


# ---------------------------------------------------------------------------
# The counting sweeps against a reference that enumerates every bundle.
# ---------------------------------------------------------------------------


def _assignments(tabs, need=None):
    """Balanced bundle ordinals of a chain, one tuple per bundle, in lexicographic order."""
    tab, rest = tabs[0], tabs[1:]
    for t in range(len(tab.lines)) if need is None else tab.by_age1.get(need, []):
        if rest:
            for tail in _assignments(rest, tab.need[t]):
                yield (t, *tail)
        else:
            yield (t,)


def _reference_descent(concave: bool, tabs) -> list:
    """(ordinals, kept values) of every balanced bundle of a chain, listed in
    lexicographic order, so that the r-th entry is rank r.

    Folds `chain_step` over the `piece_ends` of each bundle's pieces, read
    here and not from the tables: L(-x2) for h1 and, on the concavity side,
    dual(L)(-x1) for h0."""
    step, ends = cohomology.chain_step, cohomology.piece_ends
    out = []
    for idx in _assignments(tabs):
        conv = dual = cohomology.CHAIN_START
        for k, (tab, t) in enumerate(zip(tabs, idx)):
            L = tab.lines[t]
            conv = step(conv, ends(bundles.twist_marked(L, MarkedPoint.X2, -1) if k == len(idx) - 1 else L))
            if concave:
                L = bundles.dual(L)
                dual = step(dual, ends(bundles.twist_marked(L, MarkedPoint.X1, -1) if k == 0 else L))
        out.append((idx, (conv[1], dual[0]) if concave else (conv[1],)))
    return out


def _tables(concave: bool, max_ab: int, max_l: int, max_d: int) -> list:
    """One table per component of the family, built as a sweep builds them."""
    folds = (suites._CONVEX_SIDE, suites._DUAL_SIDE) if concave else (suites._CONVEX_SIDE,)
    ds = range(-max_d if concave else 0, max_d + 1)
    return [suites._CompTables(c, ds, folds) for c in suites.component_family(max_ab, max_l)]


def _reference_sweep(concave: bool, max_ab: int, max_l: int, max_d: int, max_len: int):
    """(instances, failures, first counterexample, details, replays) by enumeration.

    Replays are listed in order as the arguments of the sweep's `_api_check_*`
    call.
    """
    comps = suites.component_family(max_ab, max_l)
    tables = _tables(concave, max_ab, max_l, max_d)
    instances = failures = rank2_failures = 0
    first_cx = None
    details = Counter(sampled=0, rank2_pairs=0)
    replays = []
    for first in range(len(comps)):
        numbered = 0  # instances are numbered per first component
        for chain in oracles.iter_chains(comps, max_len, first):
            tabs = [tables[i] for i in chain]
            chain_comps = [list(comps[i]) for i in chain]
            counts = Counter()
            for idx, values in _reference_descent(concave, tabs):
                pieces = [[L.k1, L.k2, L.d] for L in (tab.lines[t] for tab, t in zip(tabs, idx))]
                counts[values] += 1
                numbered += 1
                if (values[0] != values[1]) if concave else (values[0] != 0):
                    failures += 1
                    names = ("h1", "h0_dual") if concave else ("h1",)
                    first_cx = first_cx or {"chain": chain_comps, "pieces": pieces, **dict(zip(names, values))}
                if numbered % suites.SAMPLE_EVERY == 0:
                    replays.append((chain_comps, pieces, *values))
                    details["sampled"] += 1
            n = sum(counts.values())
            instances += n
            details["rank2_pairs"] += n * n
            if concave:
                tt = sum(m for (hc, hd), m in counts.items() if hc == 0 and hd == 0)
                tf = sum(m for (hc, hd), m in counts.items() if hc == 0 and hd != 0)
                ft = sum(m for (hc, hd), m in counts.items() if hc != 0 and hd == 0)
                for key, m in (("n_tt", tt), ("n_tf", tf), ("n_ft", ft), ("n_ff", n - tt - tf - ft)):
                    details[key] += m
                x, y = tt + tf, tt + ft
                rank2_failures += x * x + y * y - 2 * tt * tt
            else:
                good = counts[(0,)]
                rank2_failures += n * n - good * good
    details["rank2_equiv_failures" if concave else "rank2_failures"] = rank2_failures
    return instances, failures + rank2_failures, first_cx, dict(details), replays


def _counted_sweep(monkeypatch, concave: bool, grid: dict):
    """The same five results from the suite, with its replays recorded instead of run.

    A replay is called with the component objects and the grid bundles of the
    suite's tables; they are recorded in the list form of the witnesses."""
    replays = []
    record = lambda comps, pieces, *args: replays.append(
        (suites._listed(comps), suites._listed_pieces(pieces), *args)
    )
    monkeypatch.setattr(suites, "_api_check_convexity_instance", record)
    monkeypatch.setattr(suites, "_api_check_concavity_instance", record)
    suite = suites.suite_weak_concavity if concave else suites.suite_weak_convexity
    res = suite(**grid, workers=1)
    return res.instances, res.failures, res.first_counterexample, res.details, replays


def test_replay_arguments_keep_their_hash(monkeypatch):
    # the ordered replay arguments of a length-4 concavity grid, in list form:
    # which instances are sampled, in what order, and the values they check
    replays = _counted_sweep(monkeypatch, True, dict(max_ab=3, max_l=3, max_d=2, max_len=4))[4]
    assert len(replays) == 10835
    digest = hashlib.sha256(json.dumps(replays).encode()).hexdigest()
    assert digest == "5c257ff8b8ba42ecb617c460db34c9629cd004405bbc856d4ac026a7a4539742"


SMALL_GRIDS = [
    dict(max_ab=2, max_l=2, max_d=2, max_len=3),
    dict(max_ab=3, max_l=3, max_d=1, max_len=3),
    dict(max_ab=2, max_l=1, max_d=1, max_len=4),
    dict(max_ab=3, max_l=2, max_d=2, max_len=2),
]


@pytest.mark.parametrize("sample_every", [199, 7])
@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=lambda g: "-".join(map(str, g.values())))
@pytest.mark.parametrize("concave", [False, True], ids=["convexity", "concavity"])
def test_counting_sweep_matches_enumeration(monkeypatch, concave, grid, sample_every):
    monkeypatch.setattr(suites, "SAMPLE_EVERY", sample_every)
    expected = _reference_sweep(concave, **grid)
    got = _counted_sweep(monkeypatch, concave, grid)
    assert got[:4] == expected[:4]
    assert got[4] == expected[4] and len(got[4]) == got[3]["sampled"]
    assert got[3]["sampled"] > 0 or sample_every == 199


@pytest.mark.parametrize("concave", [False, True], ids=["convexity", "concavity"])
def test_counting_sweep_finds_the_first_counterexample(monkeypatch, concave):
    # a fault in the per-piece data: h1 one too large whenever d = 1 (mod 3)
    ends = cohomology.piece_ends
    monkeypatch.setattr(
        cohomology, "piece_ends", lambda L: (lambda e: (e[0], e[1] + (L.d % 3 == 1), *e[2:]))(ends(L))
    )
    grid = dict(max_ab=3, max_l=2, max_d=2, max_len=3)
    expected = _reference_sweep(concave, **grid)
    got = _counted_sweep(monkeypatch, concave, grid)
    assert expected[1] > 0 and expected[2] is not None
    assert got[:4] == expected[:4] and got[4] == expected[4]


def _h0_fault(ends):
    """The log-canonical suite's piece fault: h0 one too large on components
    with a = 3 and one too small on those with b = 3."""
    return lambda L: (lambda e: (e[0] + (L.comp.a == 3) - (L.comp.b == 3), *e[1:]))(ends(L))


@pytest.mark.parametrize("fault", [None, _h0_fault], ids=["no-fault", "h0-fault"])
@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=lambda g: "-".join(map(str, g.values())))
@pytest.mark.parametrize("concave", [False, True], ids=["convexity", "concavity"])
def test_descent_matches_an_unranker_and_a_fold(monkeypatch, concave, grid, fault):
    if fault:
        monkeypatch.setattr(cohomology, "piece_ends", fault(cohomology.piece_ends))
    comps = suites.component_family(grid["max_ab"], grid["max_l"])
    tables = _tables(concave, grid["max_ab"], grid["max_l"], grid["max_d"])
    completions = {}  # shared by the chains, as in a suite call
    for chain in oracles.iter_chains(comps, grid["max_len"]):
        tabs = [tables[i] for i in chain]
        descend = suites._descent(tabs, completions)
        expected = _reference_descent(concave, tabs)
        assert [descend(r) for r in range(len(expected))] == expected, chain
    if fault:
        # the sweep descends to its replays and first counterexample (with no
        # fault, test_counting_sweep_matches_enumeration compares the sweep);
        # the fault reaches only the dual side's h0, on components with a or b = 3
        for sample_every in (199, 7):
            monkeypatch.setattr(suites, "SAMPLE_EVERY", sample_every)
            expected = _reference_sweep(concave, **grid)
            assert _counted_sweep(monkeypatch, concave, grid) == expected
            assert (expected[1] > 0) == (concave and grid["max_ab"] >= 3)


def test_bundle_sweeps_finish_each_distinct_node_once(monkeypatch):
    # a node is (prefix distribution, last component, is-first): the grid
    # (4, 4, 3, 3) has 3422 chains but 427 distinct nodes, each stepped
    # through its component as the last piece once
    calls = []
    step = suites._step
    monkeypatch.setattr(suites, "_step", lambda *args: args[2][1] and calls.append(args) or step(*args))
    res = suites.suite_weak_convexity(4, 4, 3, 3, workers=1)
    assert res.instances == 201784
    assert len(calls) == len(set(calls)) == 427
    assert sum(1 for _ in oracles.iter_chains(suites.component_family(4, 4), 3)) == 3422


def test_bundle_sweeps_keep_the_order_of_their_details():
    # `verify` prints the details dict in this order
    convex = suites.suite_weak_convexity(2, 2, 1, 2, workers=1)
    concave = suites.suite_weak_concavity(2, 2, 1, 2, workers=1)
    assert list(convex.details) == ["rank2_pairs", "rank2_failures", "sampled"]
    assert list(concave.details) == ["sampled", "rank2_pairs", "rank2_equiv_failures", "n_tt", "n_tf", "n_ft", "n_ff"]


def test_sweeps_build_only_the_tables_they_read(monkeypatch):
    # a bundle sweep reads the fold data of each distinct bundle that its
    # folds map the grid of a component to, once; the log-canonical sweep
    # reads the trivial bundle of each component and its twist by -x1
    built = []
    ends = cohomology.piece_ends
    monkeypatch.setattr(cohomology, "piece_ends", lambda L: built.append(L) or ends(L))
    for name in ("_api_check_convexity_instance", "_api_check_concavity_instance", "_api_check_log_canonical"):
        monkeypatch.setattr(suites, name, lambda *args: None)
    family = suites.component_family(3, 2)
    keyed = lambda L: (L.comp.a, L.comp.b, L.comp.l1, L.comp.l2, L.k1, L.k2, L.d)

    def images(roles: tuple, ds: range) -> list:
        """The distinct bundles that `roles` map the grids to, sorted by `keyed`."""
        grids = [suites._bundle_grid(TwistedComponent(*c), ds) for c in family]
        return sorted({keyed(role(L)) for grid in grids for L in grid for role in roles})

    convex = (lambda L: L, lambda L: bundles.twist_marked(L, MarkedPoint.X2, -1))
    dual = (bundles.dual, lambda L: bundles.twist_marked(bundles.dual(L), MarkedPoint.X1, -1))
    suites.suite_weak_convexity(max_ab=3, max_l=2, max_d=2, max_len=3, workers=1)
    assert sorted(map(keyed, built)) == images(convex, range(3))
    built.clear()
    suites.suite_weak_concavity(max_ab=3, max_l=2, max_d=2, max_len=3, workers=1)
    assert sorted(map(keyed, built)) == images(convex + dual, range(-2, 3))
    # dual(L) runs over the symmetric grid itself: fewer reads than four roles on every grid bundle
    assert len(built) < 4 * 5 * sum(l1 * l2 for _, _, l1, l2 in family)
    built.clear()
    suites.suite_log_canonical(max_ab=3, max_l=2, max_len=3, workers=1)
    trivial = [EqLineBundle(TwistedComponent(*c), 0, 0, 0) for c in family]
    assert built == trivial + [bundles.twist_marked(L, MarkedPoint.X1, -1) for L in trivial]


@pytest.mark.parametrize("suite", ["suite_weak_convexity", "suite_weak_concavity", "suite_log_canonical"])
def test_a_fault_after_a_clean_call_reaches_the_replays(monkeypatch, suite):
    # a call folds the per-piece data it reads itself, not what a clean call
    # before it read, so its replays catch a fault that comes in between.  The
    # fault is in the sweep's own view of `cohomology`: the log-canonical
    # certificate's fold stays clean, so only the comparison with the
    # elimination can catch it
    monkeypatch.setattr(suites, "SAMPLE_EVERY", 1)
    grid = dict(max_ab=2, max_l=2, max_len=3, workers=1)
    if suite != "suite_log_canonical":
        grid["max_d"] = 2
    assert getattr(suites, suite)(**grid).ok
    faulty = lambda L: (lambda e: (e[0], e[1] + 1, *e[2:]))(cohomology.piece_ends(L))
    monkeypatch.setattr(suites, "cohomology", SimpleNamespace(**{**vars(cohomology), "piece_ends": faulty}))
    with pytest.raises(cohomology.InternalInconsistency, match="elimination"):
        getattr(suites, suite)(**grid)


@pytest.mark.parametrize(
    "name, fault",
    [("_CONVEX_SIDE", (False, MarkedPoint.X1, 1, "h1")), ("_DUAL_SIDE", (False, MarkedPoint.X1, 0, "h0_dual"))],
    ids=["convex-side-twisted-at-x1", "dual-side-not-dualized"],
)
def test_a_fault_in_a_fold_spec_reaches_the_replays(monkeypatch, name, fault):
    # the replays twist and dualize by their own code, not by the fold specs,
    # so a fold that reads the wrong bundles disagrees with the elimination
    monkeypatch.setattr(suites, "SAMPLE_EVERY", 1)
    grid = dict(max_ab=2, max_l=2, max_d=1, max_len=2, workers=1)
    assert suites.suite_weak_concavity(**grid).ok
    monkeypatch.setattr(suites, name, fault)
    with pytest.raises(cohomology.InternalInconsistency, match="elimination"):
        suites.suite_weak_concavity(**grid)


@pytest.mark.parametrize("suite", ["suite_weak_convexity", "suite_weak_concavity"])
def test_a_replay_failure_lists_its_pieces_and_components(monkeypatch, suite):
    # a replay is handed the grid's bundle objects, and its message lists them
    # as [k1, k2, d], as the witnesses do
    faulty = lambda L: (lambda e: (e[0], e[1] + 1, *e[2:]))(cohomology.piece_ends(L))
    monkeypatch.setattr(suites, "cohomology", SimpleNamespace(**{**vars(cohomology), "piece_ends": faulty}))
    monkeypatch.setattr(suites, "SAMPLE_EVERY", 1)
    pieces, comps = r"\[\[\d+, \d+, -?\d+\](, \[\d+, \d+, -?\d+\])*\]", r"\[\[\d+, \d+, \d+, \d+\]"
    with pytest.raises(cohomology.InternalInconsistency, match=rf" of {pieces} on {comps}.*: sweep .*, elimination "):
        getattr(suites, suite)(max_ab=2, max_l=2, max_d=2, max_len=3, workers=1)


@pytest.mark.parametrize("n", [1, 4, 6])
def test_a_log_canonical_replay_builds_each_bundle_once(monkeypatch, n):
    # the certificate builds omega(x1+x2) of each component (canonical bundle,
    # then its twists at x1 and x2) and one checked chain bundle from those
    # pieces, omega(x2) twists its first piece, and the elimination reads the
    # certificate's two chain bundles.  Every piece is derived, so it is built
    # by reduction and none goes through the checking constructor
    family = suites.component_family(4, 4)
    path = next(chain for chain in oracles.iter_chains(family, n) if len(chain) == n)
    comps = tuple(TwistedComponent(*family[i]) for i in path)
    suites._api_check_log_canonical(comps, suites._LOG_CANONICAL)  # fills the per-component caches
    built = Counter()
    for cls in (EqLineBundle, bundles.ChainBundle):
        checks = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, checks=checks: built.update([type(self)]) or checks(self))
    reduced = bundles._reduced
    monkeypatch.setattr(bundles, "_reduced", lambda *args: built.update(["reduced"]) or reduced(*args))
    suites._api_check_log_canonical(comps, suites._LOG_CANONICAL)
    assert built == Counter({"reduced": 3 * n + 1, bundles.ChainBundle: 1, EqLineBundle: 0})


def test_no_state_survives_between_suite_calls(monkeypatch):
    runs = []
    for _ in range(2):
        runs.append((
            _counted_sweep(monkeypatch, True, dict(max_ab=3, max_l=2, max_d=2, max_len=3)),
            _counted_log_canonical(monkeypatch, dict(max_ab=3, max_l=2, max_len=3)),
        ))
        for name, value in vars(suites).items():
            if name.startswith("__") or value is suites.SUITES:
                continue
            if isinstance(value, (dict, list, set)):
                assert not value, name
            info = getattr(value, "cache_info", None)
            if callable(info):
                assert info().currsize == 0, name
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# The log-canonical subtree counts against a walk over every chain.
# ---------------------------------------------------------------------------


def _reference_log_canonical(max_ab: int, max_l: int, max_len: int):
    """(instances, failures, first counterexample, sampled, replays) by walking every chain.

    Carries the fold states of omega(x1+x2) and omega(x2) by depth down the
    pre-order DFS of each chunk; replays are listed in order as the arguments
    of the sweep's `_api_check_log_canonical` call."""
    comps = suites.component_family(max_ab, max_l)
    step = cohomology.chain_step
    trivial = [EqLineBundle(TwistedComponent(*c), 0, 0, 0) for c in comps]
    plain = [cohomology.piece_ends(L) for L in trivial]
    first_x2 = [cohomology.piece_ends(bundles.twist_marked(bundles.dual(L), MarkedPoint.X1, -1)) for L in trivial]
    instances = failures = 0
    first_cx = None
    replays = []
    for first in range(len(comps)):
        numbered = 0  # chains are numbered per first component
        log_can, omega_x2 = [cohomology.CHAIN_START], [cohomology.CHAIN_START]
        for chain in oracles.iter_chains(comps, max_len, first):
            k, i = len(chain), chain[-1]
            del log_can[k:], omega_x2[k:]
            log_can.append(step(log_can[-1], plain[i]))
            omega_x2.append(step(omega_x2[-1], first_x2[i] if k == 1 else plain[i]))
            values = log_can[k][:2] + omega_x2[k][:2]
            chain_comps = [list(comps[i]) for i in chain]
            instances += 1
            numbered += 1
            if values != (1, 0, 0, 0):
                failures += 1
                first_cx = first_cx or {"chain": chain_comps, "log_canonical": values[:2], "omega_x2": values[2:]}
            if numbered % suites.SAMPLE_EVERY == 0:
                replays.append((chain_comps, values))
    return instances, failures, first_cx, len(replays), replays


def _counted_log_canonical(monkeypatch, grid: dict):
    """The same five results from the suite, with its replays recorded instead of run."""
    replays = []
    monkeypatch.setattr(
        suites, "_api_check_log_canonical", lambda comps, expected: replays.append((suites._listed(comps), expected))
    )
    res = suites.suite_log_canonical(**grid, workers=1)
    return res.instances, res.failures, res.first_counterexample, res.details["sampled"], replays


LOG_CANONICAL_GRIDS = [
    dict(max_ab=2, max_l=2, max_len=3),
    dict(max_ab=3, max_l=3, max_len=4),
    dict(max_ab=4, max_l=4, max_len=4),
    dict(max_ab=1, max_l=2, max_len=8),
]


@pytest.mark.parametrize("sample_every", [199, 7])
@pytest.mark.parametrize("grid", LOG_CANONICAL_GRIDS, ids=lambda g: "-".join(map(str, g.values())))
def test_log_canonical_counts_match_the_chain_walk(monkeypatch, grid, sample_every):
    monkeypatch.setattr(suites, "SAMPLE_EVERY", sample_every)
    expected = _reference_log_canonical(**grid)
    assert _counted_log_canonical(monkeypatch, grid) == expected
    assert expected[3] > 0 or sample_every == 199


@pytest.mark.parametrize("sample_every", [199, 7])
def test_log_canonical_counts_find_the_first_counterexample(monkeypatch, sample_every):
    # a fault in the per-piece data that a later piece can undo
    monkeypatch.setattr(cohomology, "piece_ends", _h0_fault(cohomology.piece_ends))
    monkeypatch.setattr(suites, "SAMPLE_EVERY", sample_every)
    grid = dict(max_ab=3, max_l=3, max_len=4)
    expected = _reference_log_canonical(**grid)
    first_chain = [list(suites.component_family(3, 3)[0])]
    assert 0 < expected[1] < expected[0] and expected[2]["chain"] != first_chain
    assert _counted_log_canonical(monkeypatch, grid) == expected


def test_log_canonical_work_does_not_depend_on_the_calls_before(monkeypatch):
    # every call counts its family's subtrees itself: the fold steps it makes
    # are the same first, after a call on another family and after a call on
    # its own, and it lists the family and its adjacency once
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for module, name in ((cohomology, "chain_step"), (suites, "component_family"), (suites, "chain_adjacency")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    grid, other = dict(max_ab=3, max_l=3, max_len=4), dict(max_ab=4, max_l=4, max_len=4)
    runs = []
    for before in (None, other, grid):
        if before:
            _counted_log_canonical(monkeypatch, before)
        calls.clear()
        runs.append((_counted_log_canonical(monkeypatch, grid), dict(calls)))
    assert runs[0][1]["chain_step"] > 0 and runs[0] == runs[1] == runs[2]
    assert runs[0][1]["component_family"] == runs[0][1]["chain_adjacency"] == 1


@pytest.mark.parametrize("sample_every", [199, 7])
def test_log_canonical_sends_one_run_of_replays_per_first_component(monkeypatch, sample_every):
    # the counts stay in the calling process; the pool gets the replays alone,
    # in order, one run for each first component whether it has replays or not
    monkeypatch.setattr(suites, "SAMPLE_EVERY", sample_every)
    grid = dict(max_ab=3, max_l=3, max_len=4)
    runs = []
    run_chunks = suites._run_chunks

    def recorded(fn, args, workers):
        args = list(args)
        runs.extend(args)
        return run_chunks(fn, args, workers)

    monkeypatch.setattr(suites, "_run_chunks", recorded)
    res = suites.suite_log_canonical(**grid, workers=1)
    expected = _reference_log_canonical(**grid)
    assert len(runs) == len(suites.component_family(3, 3))
    assert [(suites._listed(comps), v) for _, run in runs for comps, v in run] == expected[4]
    assert res.details["sampled"] == expected[3] > 0


def test_log_canonical_counts_are_kept_per_family(monkeypatch):
    # families share components; a run must give what it gave first
    # whatever ran before
    monkeypatch.setattr(suites, "SAMPLE_EVERY", 7)
    grids = [dict(max_ab=3, max_l=3, max_len=4), dict(max_ab=4, max_l=4, max_len=4)]
    first = [_counted_log_canonical(monkeypatch, grid) for grid in grids]
    for n in (0, 1, 0):
        assert _counted_log_canonical(monkeypatch, grids[n]) == first[n]


def test_a_fault_reaches_the_state_space_suites_called_after_a_clean_call(monkeypatch):
    # models keep their blocks and basis, but each suite call builds its own
    # models, so an Euler factor patched between two calls is read by the second
    family = dict(max_n=3, max_w=2, max_r=1, max_k=2)
    qsd = dict(trials=20, order=2, seed=2)
    assert suites.suite_pairing_comparison(**family).ok and suites.suite_qsd_operator(**qsd).ok
    euler = wps.euler_factor

    def one_power_too_many_at_half(m, s):
        coeff, power = euler(m, s)
        return coeff, power + (s.f == Fraction(1, 2))

    monkeypatch.setattr(wps, "euler_factor", one_power_too_many_at_half)
    assert suites.suite_pairing_comparison(**family).failures > 0
    assert suites.suite_qsd_operator(**qsd).failures > 0


def test_a_faulty_dual_sector_fails_both_suites_that_check_the_age_sum(monkeypatch):
    # criteria 8 and 9 check age(E) + age(dual E) = rank - rank_fixed through
    # sectors.age_sum_check; a dual that returns E itself breaks the identity
    # wherever E has a weight other than 0 and 1/2, and both suites record it
    family = dict(max_n=2, max_w=3, max_r=1, max_k=1)
    assert suites.suite_age_sum(trials=50).ok and suites.suite_pairing_comparison(**family).ok
    monkeypatch.setattr(sectors, "inverse_sector", lambda s: s)
    res = suites.suite_age_sum(trials=50)
    assert res.failures > 0
    witness = res.first_counterexample
    weights = [Fraction(w) for w in witness["weights"]]
    assert witness["lhs"] == str(2 * sum(weights)) != witness["rhs"] == str(sum(1 for w in weights if w))
    res = suites.suite_pairing_comparison(**family)
    assert res.failures > 0 and res.first_counterexample["ages_ok"] is False


def test_a_faulty_sign_reaches_the_age_sum_suite(monkeypatch):
    # criterion 8 compares the exponent of the cycle sign plus the residual
    # ages with sectors.sign_invariant's; one rank too many shifts the latter
    # by 1 mod 2, and the witness shows the two sign exponents, not only the
    # age-sum sides, which stay equal
    assert suites.suite_age_sum(trials=50).ok
    invariant = sectors.sign_invariant
    monkeypatch.setattr(sectors, "sign_invariant", lambda beta_det_e, r: invariant(beta_det_e, r + 1))
    res = suites.suite_age_sum(trials=50)
    assert res.failures == 50
    witness = res.first_counterexample
    assert witness["lhs"] == witness["rhs"]
    assert (Fraction(witness["sign_lhs"]) - Fraction(witness["sign_rhs"])) % 2 == 1
