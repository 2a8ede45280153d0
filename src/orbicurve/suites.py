"""Exhaustive and randomized verification suites.

Each suite checks one mathematical statement over a bounded family and
reports instance/failure counts with a first counterexample if any.  The
heavy chain enumerations extend chains piece by piece and carry the prefix
states of the chain-cohomology fold (`cohomology.chain_step`) over cached
per-component tables of fold data.  A systematic sample of instances is
recomputed through the public dataclass API by Gaussian elimination
(`cohomology.h_chain_by_elimination`), which shares no code with the fold.

Summand additivity is used where it is exact: h^1 of a direct sum is the sum
of summand h^1's (and the rank formula is additive in the sector weights),
so rank-2 tallies over a chain are computed in closed form from the rank-1
sweep instead of materializing the quadratic number of pairs.
"""
from __future__ import annotations

import itertools
import os
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import bundles, cohomology, convexity, curves, sectors, series, wps
from .foundation import Phase, PhasedScalar

SAMPLE_EVERY = 199  # every k-th sweep instance is replayed through the elimination oracle
PAIRING_SAMPLE_EVERY = 11  # every k-th model's pairing comparison is replayed elementwise


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    failures: int = 0
    first_counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, witness: dict) -> None:
        """Count one failed instance; the first failure's witness is kept."""
        self.failures += 1
        if self.first_counterexample is None:
            self.first_counterexample = witness


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("ORBICURVE_WORKERS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Components and chains.  A component is (a, b, l1, l2); a bundle on it is
# (k1, k2, d).
# ---------------------------------------------------------------------------


def component_family(max_ab: int, max_l: int) -> list[tuple[int, int, int, int]]:
    """All valid (a, b, l1, l2) with a, b <= max_ab and l1*l2 <= max_l."""
    out = []
    for a in range(1, max_ab + 1):
        for b in range(1, max_ab + 1):
            if gcd(a, b) != 1:
                continue
            for l1 in range(1, max_l + 1):
                for l2 in range(1, max_l // l1 + 1):
                    if gcd(l1, l2) == 1 and gcd(l1, b) == 1 and gcd(l2, a) == 1:
                        out.append((a, b, l1, l2))
    return out


def chain_adjacency(comps: list[tuple]) -> list[list[int]]:
    orders_c = [a * l1 * l2 for a, b, l1, l2 in comps]
    orders_d = [b * l1 * l2 for a, b, l1, l2 in comps]
    return [[j for j in range(len(comps)) if orders_d[i] == orders_c[j]] for i in range(len(comps))]


def iter_chains(comps: list[tuple], max_len: int, first: int | None = None):
    """Yield tuples of component indices forming valid chains, lazily (DFS).

    The order is depth-first pre-order, so the prefix of a chain with one
    component fewer is the last chain of that length yielded before it; the
    sweeps rely on this to carry prefix states by depth.
    """
    adjacency = chain_adjacency(comps)
    starts = range(len(comps)) if first is None else [first]
    for i in starts:
        stack = [(i,)]
        while stack:
            path = stack.pop()
            yield path
            if len(path) < max_len:
                for j in reversed(adjacency[path[-1]]):
                    stack.append(path + (j,))


# ---------------------------------------------------------------------------
# API replay used by the sampled cross-checks.
# ---------------------------------------------------------------------------


def _api_chain(chain_comps: list, pieces: list):
    comps = [curves.TwistedComponent(*c) for c in chain_comps]
    chain = curves.CurveChain(tuple(comps))
    return bundles.ChainBundle(
        chain, tuple(bundles.EqLineBundle(c, *bnd) for c, bnd in zip(comps, pieces))
    )


def _api_check_convexity_instance(chain_comps: list, pieces: list, expected_h1: int) -> None:
    cb = _api_chain(chain_comps, pieces)
    _, h1 = cohomology.h_chain_by_elimination(bundles.chain_twist(cb, curves.MarkedPoint.X2, -1))
    if h1 != expected_h1:
        raise cohomology.InternalInconsistency(
            f"h1(L(-x2)) of {pieces} on {chain_comps}: sweep {expected_h1}, elimination {h1}"
        )


def _api_check_concavity_instance(chain_comps, pieces, expected_hc, expected_hd) -> None:
    cb = _api_chain(chain_comps, pieces)
    _, hc = cohomology.h_chain_by_elimination(bundles.chain_twist(cb, curves.MarkedPoint.X2, -1))
    hd, _ = cohomology.h_chain_by_elimination(
        bundles.chain_twist(bundles.chain_dual(cb), curves.MarkedPoint.X1, -1)
    )
    if (hc, hd) != (expected_hc, expected_hd):
        raise cohomology.InternalInconsistency(
            f"(h1(L(-x2)), h0(dual L(-x1))) of {pieces} on {chain_comps}: "
            f"sweep {(expected_hc, expected_hd)}, elimination {(hc, hd)}"
        )


# ---------------------------------------------------------------------------
# Criteria 1-3: smooth components, modest grids, straight through the API.
# ---------------------------------------------------------------------------


def _component_grid(max_ab: int, max_l: int):
    for a, b, l1, l2 in component_family(max_ab, max_l):
        comp = curves.TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                yield comp, k1, k2


def suite_h1_vanishing(max_ab: int = 6, max_l: int = 6, max_d: int = 12) -> SuiteResult:
    res = SuiteResult("h1-vanishing")
    for comp, k1, k2 in _component_grid(max_ab, max_l):
        for d in range(0, max_d + 1):
            L = bundles.EqLineBundle(comp, k1, k2, d)
            h1 = cohomology.h1_component(L)
            res.instances += 1
            if h1 != 0:
                res.fail({"bundle": str(L), "h1": h1})
    return res


def suite_h1_two_path(max_ab: int = 6, max_l: int = 6, max_d: int = 12) -> SuiteResult:
    res = SuiteResult("h1-two-path")
    for comp, k1, k2 in _component_grid(max_ab, max_l):
        for d in range(-max_d, max_d + 1):
            L = bundles.EqLineBundle(comp, k1, k2, d)
            n_direct = cohomology.h1_negative_monomials(L)
            n_serre = cohomology.h0_component(
                bundles.tensor(bundles.canonical_bundle(comp), bundles.dual(L))
            )
            res.instances += 1
            if n_direct != n_serre:
                res.fail({
                    "bundle": str(L),
                    "direct": n_direct,
                    "serre": n_serre,
                })
    return res


def suite_riemann_roch(max_ab: int = 6, max_l: int = 6, max_d: int = 12) -> SuiteResult:
    res = SuiteResult("riemann-roch")
    for comp, k1, k2 in _component_grid(max_ab, max_l):
        for d in range(-max_d, max_d + 1):
            L = bundles.EqLineBundle(comp, k1, k2, d)
            h0 = cohomology.h0_component(L)
            h1 = cohomology.h1_component(L)
            chi = cohomology.riemann_roch_check(L)
            res.instances += 1
            if h0 - h1 != chi:
                res.fail({
                    "bundle": str(L),
                    "h0": h0,
                    "h1": h1,
                    "riemann_roch": str(chi),
                })
    return res


# ---------------------------------------------------------------------------
# Criteria 4-6: chain enumerations carrying prefix states of the fold.
# ---------------------------------------------------------------------------


class _CompTables:
    """Per-component tables for the chain sweeps, indexed by bundle ordinal.

    For each bundle (k1, k2, d) in the grid this holds the fold data
    (`cohomology.piece_ends`) of the four roles a piece can play: plain,
    twisted by -x2 (last component of the convexity side), dualized (dual
    side), and dualized-then-twisted by -x1 (first component of the dual
    side).  Nodes balance on ages, counted in units of one over the node's
    isotropy order: `need[t]` is the age at x1 that the next piece must have,
    and `by_age1` groups the bundles by their age at x1.
    """

    __slots__ = ("bnds", "need", "by_age1", "plain", "tw2", "dualx", "dtw1")

    def __init__(self, comp, d_lo: int, d_hi: int):
        x1, x2 = curves.MarkedPoint.X1, curves.MarkedPoint.X2
        c = curves.TwistedComponent(*comp)
        self.bnds = [
            (k1, k2, d) for k1 in range(c.l1) for k2 in range(c.l2) for d in range(d_lo, d_hi + 1)
        ]
        lines = [bundles.EqLineBundle(c, *bnd) for bnd in self.bnds]
        duals = [bundles.dual(L) for L in lines]
        ends = cohomology.piece_ends
        self.plain = [ends(L) for L in lines]
        self.tw2 = [ends(bundles.twist_marked(L, x2, -1)) for L in lines]
        self.dualx = [ends(L) for L in duals]
        self.dtw1 = [ends(bundles.twist_marked(L, x1, -1)) for L in duals]
        self.need = [-bundles._age_data(L, x2)[0] % c.d for L in lines]
        self.by_age1: dict[int, list[int]] = {}
        for t, L in enumerate(lines):
            self.by_age1.setdefault(bundles._age_data(L, x1)[0], []).append(t)


@lru_cache(maxsize=None)
def _comp_tables(comp, d_lo: int, d_hi: int) -> _CompTables:
    return _CompTables(comp, d_lo, d_hi)


def _balanced_prefixes(tabs: list[_CompTables], roles: list[tuple]):
    """Balanced bundle assignments of a chain, in lexicographic order.

    roles[k] holds one table of fold data per fold, used at position k.
    Yields (idx, states, fits) for every balanced assignment idx of all
    pieces but the last: states holds each fold over that prefix and fits
    the bundle ordinals of the last piece that balance with it.
    """
    step = cohomology.chain_step
    n = len(tabs)
    stack = [((), (cohomology.CHAIN_START,) * len(roles[0]))]
    while stack:
        idx, states = stack.pop()
        k = len(idx)
        fits = tabs[k].by_age1.get(tabs[k - 1].need[idx[-1]], []) if k else range(len(tabs[0].bnds))
        if k == n - 1:
            yield idx, states, fits
            continue
        for t in reversed(fits):
            stack.append((idx + (t,), tuple([step(s, role[t]) for s, role in zip(states, roles[k])])))


def _pieces(tabs: list[_CompTables], idx: tuple[int, ...]) -> list:
    return [list(tab.bnds[t]) for tab, t in zip(tabs, idx)]


def _chain_suite(name: str, chunk, head: tuple, workers: int | None, keys: tuple) -> SuiteResult:
    """Run a chain sweep as one chunk per first component and add up the tallies.

    `head` holds the chunk arguments before the first component's index and
    starts with (max_ab, max_l).
    """
    res = SuiteResult(name)
    n_comps = len(component_family(*head[:2]))
    for tally in _run_chunks(chunk, [head + (i,) for i in range(n_comps)], workers):
        res.instances += tally["instances"]
        res.failures += tally["failures"]
        res.first_counterexample = res.first_counterexample or tally["first"]
        for key in keys:
            res.details[key] = res.details.get(key, 0) + tally[key]
    return res


def _convexity_chunk(args) -> dict:
    max_ab, max_l, max_d, max_len, first = args
    comps = component_family(max_ab, max_l)
    step = cohomology.chain_step
    instances = failures = sampled = rank2_pairs = rank2_failures = 0
    first_cx = None
    for chain in iter_chains(comps, max_len, first):
        tabs = [_comp_tables(comps[i], 0, max_d) for i in chain]
        chain_comps = [list(comps[i]) for i in chain]
        last = tabs[-1].tw2
        n_line = n_good = 0
        for idx, (state,), fits in _balanced_prefixes(tabs, [(tab.plain,) for tab in tabs]):
            for t in fits:
                h1 = step(state, last[t])[1]
                instances += 1
                n_line += 1
                if h1 == 0:
                    n_good += 1
                else:
                    failures += 1
                    first_cx = first_cx or {"chain": chain_comps, "pieces": _pieces(tabs, idx + (t,)), "h1": h1}
                if instances % SAMPLE_EVERY == 0:
                    _api_check_convexity_instance(chain_comps, _pieces(tabs, idx + (t,)), h1)
                    sampled += 1
        # every grid bundle is semi-positive (d >= 0), so rank-2 split bundles
        # fail exactly when one of the two summands has nonzero h1
        rank2_pairs += n_line * n_line
        rank2_failures += n_line * n_line - n_good * n_good
    return dict(
        instances=instances, failures=failures, first=first_cx, sampled=sampled,
        rank2_pairs=rank2_pairs, rank2_failures=rank2_failures,
    )


def suite_weak_convexity(
    max_ab: int = 4, max_l: int = 4, max_d: int = 8, max_len: int = 3, workers: int | None = None
) -> SuiteResult:
    """Semi-positive implies convex: h1(L(-x2)) = 0 for all d >= 0 chain bundles.

    Rank-1 bundles are enumerated exhaustively; rank-2 counts follow exactly
    by additivity of h1 over summands.
    """
    res = _chain_suite(
        "thm-weak-convexity",
        _convexity_chunk,
        (max_ab, max_l, max_d, max_len),
        workers,
        ("rank2_pairs", "rank2_failures", "sampled"),
    )
    res.failures += res.details.get("rank2_failures", 0)
    return res


def _concavity_chunk(args) -> dict:
    max_ab, max_l, max_d, max_len, first = args
    comps = component_family(max_ab, max_l)
    step = cohomology.chain_step
    instances = failures = sampled = rank2_pairs = rank2_equiv_failures = 0
    first_cx = None
    # split-level convexity <-> concavity tallies: counts of the classes
    # (h1(L(-x2)) == 0, h0(dual L(-x1)) == 0) in the order ff, ft, tf, tt
    totals = [0, 0, 0, 0]
    for chain in iter_chains(comps, max_len, first):
        tabs = [_comp_tables(comps[i], -max_d, max_d) for i in chain]
        chain_comps = [list(comps[i]) for i in chain]
        # two folds: L(-x2) on the convexity side, dual(L)(-x1) on the dual side
        roles = [(tab.plain, tab.dtw1 if k == 0 else tab.dualx) for k, tab in enumerate(tabs)]
        last_c = tabs[-1].tw2
        last_d = roles[-1][1]
        classes = [0, 0, 0, 0]
        for idx, (state_c, state_d), fits in _balanced_prefixes(tabs, roles):
            for t in fits:
                hc = step(state_c, last_c[t])[1]
                hd = step(state_d, last_d[t])[0]
                instances += 1
                if hc != hd:
                    failures += 1
                    first_cx = first_cx or {
                        "chain": chain_comps,
                        "pieces": _pieces(tabs, idx + (t,)),
                        "h1": hc,
                        "h0_dual": hd,
                    }
                classes[2 * (hc == 0) + (hd == 0)] += 1
                if instances % SAMPLE_EVERY == 0:
                    _api_check_concavity_instance(chain_comps, _pieces(tabs, idx + (t,)), hc, hd)
                    sampled += 1
        c_ff, c_ft, c_tf, c_tt = classes
        n = c_tt + c_tf + c_ft + c_ff
        x = c_tt + c_tf  # convex side count
        y = c_tt + c_ft  # concave side count
        rank2_pairs += n * n
        rank2_equiv_failures += x * x + y * y - 2 * c_tt * c_tt
        totals = [a + b for a, b in zip(totals, classes)]
    n_ff, n_ft, n_tf, n_tt = totals
    return dict(
        instances=instances, failures=failures, first=first_cx, sampled=sampled,
        n_tt=n_tt, n_tf=n_tf, n_ft=n_ft, n_ff=n_ff,
        rank2_pairs=rank2_pairs, rank2_equiv_failures=rank2_equiv_failures,
    )


def suite_weak_concavity(
    max_ab: int = 4, max_l: int = 4, max_d: int = 8, max_len: int = 3, workers: int | None = None
) -> SuiteResult:
    """Convexity <-> concavity: h0(dual(L)(-x1)) = h1(L(-x2)) for every summand."""
    res = _chain_suite(
        "thm-weak-concavity",
        _concavity_chunk,
        (max_ab, max_l, max_d, max_len),
        workers,
        ("sampled", "rank2_pairs", "rank2_equiv_failures", "n_tt", "n_tf", "n_ft", "n_ff"),
    )
    res.failures += res.details.get("rank2_equiv_failures", 0)
    return res


def _api_check_log_canonical(chain_comps: list, expected: tuple) -> None:
    chain = curves.CurveChain(tuple(curves.TwistedComponent(*c) for c in chain_comps))
    cert = convexity.log_canonical_certificate(chain)
    log_chain = bundles.trivial_chain_bundle(chain)
    omega_x2 = bundles.chain_twist(log_chain, curves.MarkedPoint.X1, -1)
    certified = (cert.h0_log_canonical, cert.h1_log_canonical, cert.h0_omega_x2, cert.h1_omega_x2)
    eliminated = cohomology.h_chain_by_elimination(log_chain) + cohomology.h_chain_by_elimination(omega_x2)
    if certified != expected or eliminated != expected:
        raise cohomology.InternalInconsistency(
            f"log canonical on {chain_comps}: sweep {expected}, certificate {certified}, "
            f"elimination {eliminated}"
        )


def _log_canonical_chunk(args) -> dict:
    max_ab, max_l, max_len, first = args
    comps = component_family(max_ab, max_l)
    step = cohomology.chain_step
    tally = {"instances": 0, "failures": 0, "first": None, "sampled": 0}
    # prefix states by depth of omega(x1+x2), which is the trivial bundle, and
    # of omega(x2) = omega(x1+x2)(-x1).  Ordinal 0 of the d = 0 grid is the
    # trivial bundle, its own dual, so its dtw1 role is omega(x2)'s first piece.
    log_can = [cohomology.CHAIN_START]
    omega_x2 = [cohomology.CHAIN_START]
    for chain in iter_chains(comps, max_len, first):
        k = len(chain)
        tab = _comp_tables(comps[chain[-1]], 0, 0)
        del log_can[k:], omega_x2[k:]
        log_can.append(step(log_can[-1], tab.plain[0]))
        omega_x2.append(step(omega_x2[-1], tab.dtw1[0] if k == 1 else tab.plain[0]))
        values = log_can[k][:2] + omega_x2[k][:2]
        tally["instances"] += 1
        if values != (1, 0, 0, 0):
            tally["failures"] += 1
            tally["first"] = tally["first"] or {
                "chain": [list(comps[i]) for i in chain],
                "log_canonical": values[:2],
                "omega_x2": values[2:],
            }
        if tally["instances"] % SAMPLE_EVERY == 0:
            _api_check_log_canonical([list(comps[i]) for i in chain], values)
            tally["sampled"] += 1
    return tally


def suite_log_canonical(
    max_ab: int = 4, max_l: int = 4, max_len: int = 6, workers: int | None = None
) -> SuiteResult:
    return _chain_suite("log-canonical", _log_canonical_chunk, (max_ab, max_l, max_len), workers, ("sampled",))


# ---------------------------------------------------------------------------
# Criterion 7: rank formula against direct cohomology on single components.
# ---------------------------------------------------------------------------


def suite_rank_formula(max_ab: int = 4, max_l: int = 4, max_d: int = 8) -> SuiteResult:
    res = SuiteResult("rank-formula")
    deltas: dict[Fraction, int] = {}
    n_convex = 0
    for a, b, l1, l2 in component_family(max_ab, max_l):
        comp = curves.TwistedComponent(a, b, l1, l2)
        chain = curves.CurveChain((comp,))
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-max_d, max_d + 1):
                    L = bundles.EqLineBundle(comp, k1, k2, d)
                    cb = bundles.ChainBundle(chain, (L,))
                    if cohomology.h_twisted(cb, curves.MarkedPoint.X2, -1).h1 != 0:
                        continue  # not weakly convex, formula not asserted
                    n_convex += 1
                    g1 = sectors.SectorAction((bundles.age_at(L, curves.MarkedPoint.X1),))
                    g2 = sectors.SectorAction((bundles.age_at(L, curves.MarkedPoint.X2),))
                    rf = sectors.rank_formula(L.degree, g1, g2)
                    direct = cohomology.h_twisted(
                        bundles.chain_dual(cb), curves.MarkedPoint.X1, -1
                    ).h1
                    res.instances += 1
                    ok = rf == direct and rf.denominator == 1 and rf >= 0
                    if not ok:
                        res.fail({
                            "bundle": str(L),
                            "rank_formula": str(rf),
                            "direct_h1": direct,
                        })
                    deltas[rf - direct] = deltas.get(rf - direct, 0) + 1
    # rank-2 split bundles: both the formula and the direct rank are additive
    # over summands, so pairs fail only through nonzero per-summand deltas
    good_pairs = sum(
        n1 * deltas.get(-delta, 0) for delta, n1 in deltas.items()
    )
    res.details["rank2_pairs"] = n_convex * n_convex
    res.details["rank2_failures"] = n_convex * n_convex - good_pairs
    res.failures += res.details["rank2_failures"]
    return res


def suite_rank2_direct(max_ab: int = 3, max_l: int = 2, max_d: int = 4) -> SuiteResult:
    """Small direct sweep of genuine rank-2 split bundles through the full API."""
    res = SuiteResult("rank2-direct")
    for a, b, l1, l2 in component_family(max_ab, max_l):
        comp = curves.TwistedComponent(a, b, l1, l2)
        chain = curves.CurveChain((comp,))
        line_bundles = [
            bundles.EqLineBundle(comp, k1, k2, d)
            for k1 in range(l1)
            for k2 in range(l2)
            for d in range(-max_d, max_d + 1)
        ]
        for L1, L2 in itertools.combinations_with_replacement(line_bundles, 2):
            split = bundles.SplitBundle(
                (bundles.ChainBundle(chain, (L1,)), bundles.ChainBundle(chain, (L2,)))
            )
            if not convexity.is_weakly_convex_on(split):
                continue
            g1 = sectors.SectorAction(
                tuple(bundles.age_at(L, curves.MarkedPoint.X1) for L in (L1, L2))
            )
            g2 = sectors.SectorAction(
                tuple(bundles.age_at(L, curves.MarkedPoint.X2) for L in (L1, L2))
            )
            rf = sectors.rank_formula(L1.degree + L2.degree, g1, g2)
            direct = sum(
                cohomology.h_twisted(
                    bundles.chain_dual(bundles.ChainBundle(chain, (L,))),
                    curves.MarkedPoint.X1,
                    -1,
                ).h1
                for L in (L1, L2)
            )
            res.instances += 1
            if rf != direct:
                res.fail({
                    "bundles": [str(L1), str(L2)],
                    "rank_formula": str(rf),
                    "direct_h1": direct,
                })
    return res


# ---------------------------------------------------------------------------
# Criterion 8: age-sum and sign-consistency identities on random sectors.
# ---------------------------------------------------------------------------


def suite_age_sum(trials: int = 10000, max_den: int = 12, seed: int = 0) -> SuiteResult:
    res = SuiteResult("age-sum")
    rng = random.Random(seed)
    for _ in range(trials):
        rank = rng.randint(1, 5)
        weights = []
        for _ in range(rank):
            den = rng.randint(1, max_den)
            weights.append(Fraction(rng.randint(0, den - 1), den))
        s = sectors.SectorAction(tuple(weights))
        res.instances += 1
        lhs = sectors.age(s) + sectors.age(sectors.inverse_sector(s))
        rhs = s.rank - s.rank_fixed
        ok = lhs == rhs
        # sign-consistency: phase of the cycle sign times the residual ages
        # equals the invariant-level phase e^{i*pi*(beta_det + rank)}
        g2 = sectors.SectorAction(tuple(sorted(weights, key=str)))
        if rng.random() < 0.5:
            beta_det = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        else:
            beta_det = sectors.age(s) - sectors.age(sectors.inverse_sector(g2)) + rng.randint(0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = sectors.sign_cycle(beta_det, s, g2)
        lhs_phase = sig.phase * Phase(
            sectors.age(s) + sectors.age(g2) + g2.rank_fixed
        )
        rhs_phase = sectors.sign_invariant(beta_det, s.rank)
        ok = ok and lhs_phase == rhs_phase
        if not ok:
            res.fail({
                "weights": [str(w) for w in weights],
                "lhs": str(lhs),
                "rhs": str(rhs),
            })
    return res


# ---------------------------------------------------------------------------
# Criteria 9 and 10: state-space pairings and the operator identity.
# ---------------------------------------------------------------------------


def wps_model_family(max_n: int = 5, max_w: int = 4, max_r: int = 2, max_k: int = 4):
    for n in range(2, max_n + 1):
        for weights in itertools.combinations_with_replacement(range(1, max_w + 1), n):
            for r in range(0, max_r + 1):
                for degrees in itertools.combinations_with_replacement(range(1, max_k + 1), r):
                    yield wps.WPSModel(weights, degrees)


def _pairing_sides_by_elements(m: wps.WPSModel) -> tuple[list, list, list]:
    """Oracle for `wps.comparison_sides`: delta_tilde and the full pairings of
    basis StateElements, each of which walks the sectors on its own."""
    sign = Fraction((-1) ** m.rank)
    basis = wps.state_basis(wps.enumerate_sectors(m))
    elems = [wps.StateElement.basis(m, f, p) for f, p in basis]
    moved = [wps.delta_tilde(m, g) for g in elems]
    lhs = [[PhasedScalar.coerce(wps.ambient_pairing(m, a, b)) for b in moved] for a in moved]
    rhs = [[PhasedScalar.coerce(wps.ct_pairing(m, a, b)) * sign for b in elems] for a in elems]
    return basis, lhs, rhs


def _api_check_pairing_comparison(m: wps.WPSModel, secs: list[wps.Sector]) -> None:
    if wps.comparison_sides(m, secs) != _pairing_sides_by_elements(m):
        raise cohomology.InternalInconsistency(
            f"pairing comparison of {m}: block Gram matrices disagree with the elementwise pairings"
        )


def suite_pairing_comparison(max_n: int = 5, max_w: int = 4, max_r: int = 2, max_k: int = 4) -> SuiteResult:
    res = SuiteResult("pairing-comparison", details={"pairing_checks": 0, "sampled": 0})
    for model in wps_model_family(max_n, max_w, max_r, max_k):
        secs = wps.enumerate_sectors(model)
        if res.instances % PAIRING_SAMPLE_EVERY == 0:
            _api_check_pairing_comparison(model, secs)
            res.details["sampled"] += 1
        pairing = wps.verify_pairing_comparison(model, secs)
        iso = wps.verify_delta_iso_dims(model, secs)
        # sector-level age-sum identity, checked alongside
        ages_ok = all(
            sectors.age(s.fiber_weights) + sectors.age(sectors.inverse_sector(s.fiber_weights))
            == model.rank - s.rank_fixed
            for s in secs
        )
        res.instances += 1
        if not (pairing.ok and iso.ok and ages_ok):
            res.fail({
                "model": str(model),
                "pairing_failures": pairing.failures[:1],
                "iso_ok": iso.ok,
                "ages_ok": ages_ok,
            })
        res.details["pairing_checks"] += pairing.checks
    return res


def qsd_model_family(max_dim: int = 6) -> list[wps.WPSModel]:
    candidates = [
        wps.WPSModel((1, 1), (2,)),
        wps.WPSModel((1, 1, 1), (3,)),
        wps.WPSModel((1, 1, 2, 2), (1,)),
        wps.WPSModel((1, 2), (1, 1)),
        wps.WPSModel((1, 1, 2), (2, 1)),
        wps.WPSModel((1, 2, 3), (1,)),
        wps.WPSModel((1, 1, 1, 1), (2, 2)),
        wps.WPSModel((1, 3), ()),
    ]
    return [m for m in candidates if len(series.compact_type_basis(m)) <= max_dim]


def suite_qsd_operator(trials: int = 1000, order: int = 4, max_dim: int = 6, seed: int = 0) -> SuiteResult:
    res = SuiteResult("qsd-operator")
    rng = random.Random(seed)
    models = qsd_model_family(max_dim)
    for _ in range(trials):
        model = rng.choice(models)
        n = rng.randint(1, order)
        table = series.random_invariant_table(model, n, rng, n_classes=rng.randint(1, 3), a_max=rng.randint(0, 3))
        report = series.verify_qsd_operator_identity(table, model, n)
        res.instances += 1
        res.details["coefficient_checks"] = res.details.get("coefficient_checks", 0) + report.checks
        if not report.ok:
            res.fail({
                "model": str(model),
                "violation": report.first_violation,
            })
    return res


# ---------------------------------------------------------------------------
# Criterion 11: brute-force isotropy oracle.
# ---------------------------------------------------------------------------


def suite_isotropy_oracle(max_cd: int = 12) -> SuiteResult:
    res = SuiteResult("isotropy-oracle")
    for c in range(1, max_cd + 1):
        for d in range(1, max_cd + 1):
            comp = curves.present(c, d)
            counts = curves.brute_force_isotropy_counts(comp)
            res.instances += 1
            ok = (
                counts["x1"] == c == curves.isotropy_order(comp, curves.MarkedPoint.X1)
                and counts["x2"] == d == curves.isotropy_order(comp, curves.MarkedPoint.X2)
                and counts["generic"] == 1 == curves.isotropy_order(comp)
            )
            if not ok:
                res.fail({
                    "c": c,
                    "d": d,
                    "component": str(comp),
                    "counts": counts,
                })
    return res


def suite_age_oracle(max_ab: int = 4, max_l: int = 4, max_d: int = 6) -> SuiteResult:
    """Closed-form ages against the generator-hunting brute force."""
    res = SuiteResult("age-oracle")
    for a, b, l1, l2 in component_family(max_ab, max_l):
        comp = curves.TwistedComponent(a, b, l1, l2)
        for k1 in range(l1):
            for k2 in range(l2):
                for d in range(-max_d, max_d + 1):
                    L = bundles.EqLineBundle(comp, k1, k2, d)
                    for pt in (curves.MarkedPoint.X1, curves.MarkedPoint.X2):
                        res.instances += 1
                        fast = bundles.age_at(L, pt)
                        slow = bundles.brute_force_age(L, pt)
                        if fast != slow:
                            res.fail({
                                "bundle": str(L),
                                "point": pt.value,
                                "formula": str(fast),
                                "oracle": str(slow),
                            })
    return res


# ---------------------------------------------------------------------------
# Runner plumbing.
# ---------------------------------------------------------------------------


def _run_chunks(fn, args_list, workers: int | None):
    workers = default_workers() if workers is None else max(1, workers)
    if workers == 1 or len(args_list) <= 1:
        for args in args_list:
            yield fn(args)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, args_list)


SUITES = {
    "h1-vanishing": suite_h1_vanishing,
    "h1-two-path": suite_h1_two_path,
    "riemann-roch": suite_riemann_roch,
    "thm-weak-convexity": suite_weak_convexity,
    "thm-weak-concavity": suite_weak_concavity,
    "log-canonical": suite_log_canonical,
    "rank-formula": suite_rank_formula,
    "rank2-direct": suite_rank2_direct,
    "age-sum": suite_age_sum,
    "pairing-comparison": suite_pairing_comparison,
    "qsd-operator": suite_qsd_operator,
    "isotropy-oracle": suite_isotropy_oracle,
    "age-oracle": suite_age_oracle,
}
