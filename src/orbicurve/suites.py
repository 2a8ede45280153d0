"""Exhaustive and randomized verification suites.

Each suite checks one mathematical statement over a bounded family and
reports instance/failure counts with a first counterexample if any.  The
bundles on a component come from one grid, O^{k1,k2}(d) in the lexicographic
order of (k1, k2, d) (`_bundle_grid`), and that one order numbers every
suite's instances: the component suites, the per-component tables of the
chain sweeps, and so every sampled replay position and first counterexample.

The three chain sweeps count by subtree instead of walking the chains
(`_subtree_sweep`): what the chains below a prefix of the DFS add up to
depends only on a node that takes few values and on how many more
components the prefix may take.  So each distinct node is tallied once per
call, in the calling process, the sums are descended to the sampled
replays and the first counterexample, and only the replays go to the pool.
The convexity and concavity sweeps keep of each chain fold
`cohomology.chain_step` only the value the theorem reads (the
transfer-matrix method, Stanley, Enumerative Combinatorics I, 4.7;
`_bundle_sweep`).  A piece's effect on a state depends only on the age
`need` it must match and the fold's flags, so the transitions are memoized
on the per-component tables (`_moves`), which each call builds for itself
and drops when it returns.  The instances keep the numbering of a
chain-by-chain enumeration in lexicographic order: a replayed instance is
unranked from counts of balanced completions per `need`, its folds stepped
on the way down (`_descent`), and recomputed through the public dataclass
API by elimination over listed monomials (`oracles.h_chain_by_elimination`),
which shares no code with the fold.  A replay builds its checked
`CurveChain` and `ChainBundle` on the components and grid bundles of the
call's tables, so neither is rebuilt from integers once per replay; its
twists and duals are derived without a second node check (see `bundles`).

The pairing comparison replays a sample of models through the elementwise
pairings of `oracles`, and the age and isotropy suites compare the closed
forms with its brute-force counts.

Summand additivity is used where it is exact: h^1 of a direct sum is the sum
of summand h^1's (and the rank formula is additive in the sector weights),
so rank-2 tallies over a chain are computed in closed form from the rank-1
counts instead of materializing the quadratic number of pairs.
"""
from __future__ import annotations

import itertools
import os
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import add
from types import MappingProxyType

from . import bundles, cohomology, convexity, curves, oracles, sectors, series, wps

SAMPLE_EVERY = 199  # every k-th sweep instance is replayed through the elimination oracle
PAIRING_SAMPLE_EVERY = 11  # every k-th model's pairing comparison is replayed elementwise
# Replays that pay for one pool worker, measured on log-canonical replays.  On
# a 2-core box (medians of 21 alternating runs in process, the pool forced)
# one worker against two read 13 vs 34 ms at 105 replays, 45 vs 70 ms at 387,
# 77 vs 94 ms at 414, 87 vs 74 ms at 437, 85 vs 76 ms at 459 and 104 vs 94 ms
# at 827: two workers break even at about 420-440 replays, and start from
# 600.  The figure is not lowered to match, because the bundle sweeps share
# it: their replays are about five times cheaper and descended in the caller,
# and there two workers break even only at about 2,000 (concavity) to
# 3,000-5,000 (convexity) replays.
REPLAYS_PER_WORKER = 300


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
    """For each component, the ascending indices of those whose x1 order equals its x2 order."""
    by_order_c: dict[int, list[int]] = {}
    for j, (a, b, l1, l2) in enumerate(comps):
        by_order_c.setdefault(a * l1 * l2, []).append(j)
    return [list(by_order_c.get(b * l1 * l2, ())) for a, b, l1, l2 in comps]


def _bundle_grid(comp: curves.TwistedComponent, ds: range) -> list[bundles.EqLineBundle]:
    """The bundles O^{k1,k2}(d) on `comp` with d in `ds`, in the grid order (k1, k2, d).

    Every suite over line bundles numbers its instances in this order, so it
    fixes the sampled replay positions and the first counterexamples.
    """
    return [
        bundles.EqLineBundle(comp, k1, k2, d) for k1 in range(comp.l1) for k2 in range(comp.l2) for d in ds
    ]


def _family_grid(max_ab: int, max_l: int, ds: range):
    """The bundle grid of each component of `component_family(max_ab, max_l)` in turn."""
    for abll in component_family(max_ab, max_l):
        yield from _bundle_grid(curves.TwistedComponent(*abll), ds)


# ---------------------------------------------------------------------------
# API replay used by the sampled cross-checks.
# ---------------------------------------------------------------------------


def _listed(comps: tuple) -> list[list[int]]:
    """Components as [a, b, l1, l2] lists, the form of witnesses and messages."""
    return [[c.a, c.b, c.l1, c.l2] for c in comps]


def _listed_pieces(pieces: tuple) -> list[list[int]]:
    """Line bundles as [k1, k2, d] lists, the form of witnesses and messages."""
    return [[L.k1, L.k2, L.d] for L in pieces]


def _api_check_convexity_instance(comps: tuple, pieces: tuple, expected_h1: int) -> None:
    cb = bundles.ChainBundle(curves.CurveChain(comps), pieces)
    _, h1 = oracles.h_chain_by_elimination(bundles.chain_twist(cb, curves.X2, -1))
    if h1 != expected_h1:
        raise cohomology.InternalInconsistency(
            f"h1(L(-x2)) of {_listed_pieces(pieces)} on {_listed(comps)}: sweep {expected_h1}, elimination {h1}"
        )


def _api_check_concavity_instance(comps: tuple, pieces: tuple, expected_hc: int, expected_hd: int) -> None:
    cb = bundles.ChainBundle(curves.CurveChain(comps), pieces)
    _, hc = oracles.h_chain_by_elimination(bundles.chain_twist(cb, curves.X2, -1))
    hd, _ = oracles.h_chain_by_elimination(
        bundles.chain_twist(bundles.chain_dual(cb), curves.X1, -1)
    )
    if (hc, hd) != (expected_hc, expected_hd):
        raise cohomology.InternalInconsistency(
            f"(h1(L(-x2)), h0(dual L(-x1))) of {_listed_pieces(pieces)} on {_listed(comps)}: "
            f"sweep {(expected_hc, expected_hd)}, elimination {(hc, hd)}"
        )


# ---------------------------------------------------------------------------
# Criteria 1-3: smooth components, modest grids, straight through the API.
# ---------------------------------------------------------------------------


def suite_h1_vanishing(max_ab: int = 6, max_l: int = 6, max_d: int = 12) -> SuiteResult:
    check_arguments(locals())
    res = SuiteResult("h1-vanishing")
    for L in _family_grid(max_ab, max_l, range(max_d + 1)):
        h1 = cohomology.h1_component(L)
        res.instances += 1
        if h1 != 0:
            res.fail({"bundle": str(L), "h1": h1})
    return res


def suite_h1_two_path(max_ab: int = 6, max_l: int = 6, max_d: int = 12) -> SuiteResult:
    check_arguments(locals())
    res = SuiteResult("h1-two-path")
    for L in _family_grid(max_ab, max_l, range(-max_d, max_d + 1)):
        n_direct = cohomology.h1_negative_monomials(L)
        n_serre = cohomology.h0_component(bundles.tensor(bundles.canonical_bundle(L.comp), bundles.dual(L)))
        res.instances += 1
        if n_direct != n_serre:
            res.fail({"bundle": str(L), "direct": n_direct, "serre": n_serre})
    return res


def suite_riemann_roch(max_ab: int = 6, max_l: int = 6, max_d: int = 12) -> SuiteResult:
    check_arguments(locals())
    res = SuiteResult("riemann-roch")
    for L in _family_grid(max_ab, max_l, range(-max_d, max_d + 1)):
        h0 = cohomology.h0_component(L)
        h1 = cohomology.h1_component(L)
        chi = cohomology.riemann_roch_check(L)
        res.instances += 1
        if h0 - h1 != chi:
            res.fail({"bundle": str(L), "h0": h0, "h1": h1, "riemann_roch": str(chi)})
    return res


# ---------------------------------------------------------------------------
# Criteria 4-6: chain sweeps carrying prefix states of the fold.
# ---------------------------------------------------------------------------


class _CompTables:
    """One call's tables of a component for the bundle sweeps, indexed by bundle ordinal.

    For each bundle of the grid (`lines`, the checked bundles that the
    replays build on) this holds the fold data (`cohomology.piece_ends`) of
    each role that the call's folds read, in `ends[role]`, read once for each
    distinct (k1, k2, d) that the roles map the grid to.  Nodes balance on
    ages, counted in units of one over the node's isotropy order: `need[t]`
    is the age at x1 that the next piece must have, and `by_age1` groups the
    bundles by their age at x1.  `moves` memoizes the call's transitions out
    of this component (see `_moves`), and `comp` is the component of `lines`.
    """

    def __init__(self, comp, ds: range, folds: tuple):
        self.comp = curves.TwistedComponent(*comp)
        self.lines = _bundle_grid(self.comp, ds)
        read: dict[tuple, tuple] = {}

        def ends(L) -> tuple:
            return read.get((L.k1, L.k2, L.d)) or read.setdefault((L.k1, L.k2, L.d), cohomology.piece_ends(L))

        self.ends = {role: [ends(role(L)) for L in self.lines] for fold in folds for role in fold[:2]}
        self.need = [-bundles._age_data(L, curves.X2)[0] % self.comp.d for L in self.lines]
        self.by_age1: dict[int, list[int]] = {}
        for t, L in enumerate(self.lines):
            self.by_age1.setdefault(bundles._age_data(L, curves.X1)[0], []).append(t)
        self.moves: dict[tuple, list] = {}

    def fits(self, need: int | None):
        """Ordinals, ascending, of the bundles that balance with `need` (all of them for None)."""
        return range(len(self.lines)) if need is None else self.by_age1.get(need, ())


# A fold of the sweeps is (base role, twisted role, twist on the last piece
# rather than the first, kept value), where a role maps a piece's bundle to
# the bundle whose fold data it reads: the twisted role at the piece that
# carries the twist and the base role elsewhere.  It keeps one value of
# (h0, h1).  The convexity side folds L(-x2) and is read for h1, the dual
# side folds dual(L)(-x1) and is read for h0.
_CONVEX_SIDE = (lambda L: L, lambda L: bundles.twist_marked(L, curves.X2, -1), True, 1)
_DUAL_SIDE = (bundles.dual, lambda L: bundles.twist_marked(bundles.dual(L), curves.X1, -1), False, 0)


def _roles(folds: tuple, first: bool, last: bool) -> tuple:
    """(role, kept value) of each fold at a piece that is or is not the first and the last."""
    return tuple(
        (twisted if (last if at_last else first) else base, keep)
        for base, twisted, at_last, keep in folds
    )


def _moves(tab: _CompTables, roles: tuple, need: int | None, flags: tuple, last: bool) -> list:
    """The effect of one piece on the sweep's states, counted over its bundles.

    `chain_step` adds to h0 and h1 and sets new flags (free, active); what
    it adds and sets depends only on the piece and the old flags.  So the
    pieces that balance with `need`, stepped from `flags`, group into rows
    (kept deltas, new flags, new need) -> number of bundles, or kept deltas
    -> number at the last piece.  The rows are memoized on the table.
    """
    key = (roles, need, flags, last)
    rows = tab.moves.get(key)
    if rows is None:
        step = cohomology.chain_step
        ends = [(tab.ends[role], keep) for role, keep in roles]
        grouped: dict = {}
        for t in tab.fits(need):
            states = [step((0, 0) + fl, table[t]) for (table, _), fl in zip(ends, flags)]
            deltas = tuple(s[keep] for s, (_, keep) in zip(states, ends))
            row = deltas if last else (deltas, tuple(s[2:] for s in states), tab.need[t])
            grouped[row] = grouped.get(row, 0) + 1
        rows = tab.moves[key] = list(grouped.items())
    return rows


def _extend(dist, tab: _CompTables, roles: tuple) -> dict:
    """Multiplicities of the states (kept values, flags, need) one piece
    further, from the (state, multiplicity) pairs of `dist`."""
    out: dict = {}
    for (values, flags, need), m in dist:
        for (deltas, new_flags, new_need), c in _moves(tab, roles, need, flags, False):
            key = (tuple(map(add, values, deltas)), new_flags, new_need)
            out[key] = out.get(key, 0) + m * c
    return out


def _finish(dist, tab: _CompTables, roles: tuple) -> dict:
    """Multiplicities of the kept values of whole chains, ending on the piece of `tab`."""
    out: dict = {}
    for (values, flags, need), m in dist:
        for deltas, c in _moves(tab, roles, need, flags, True):
            key = tuple(map(add, values, deltas))
            out[key] = out.get(key, 0) + m * c
    return out


def _descent(tabs: list[_CompTables], roles: list[tuple], completions: dict):
    """Map r to the r-th balanced bundle assignment of a chain, in lexicographic
    order, and to the kept values of the sweep's folds over it.

    The number of balanced completions of pieces k, k+1, ... depends only on
    their tables and the age `need` that piece k must match:
    `completions[tables from piece k on][need]`, filled for every `need` when
    the chains of one call first meet those tables.  Piece k of the r-th
    assignment is picked by a scan over the bundles that fit its `need`,
    subtracting the completions of the pieces after it through each.  The
    folds step along the way, at piece k in the roles `roles[k]` (see `_roles`).
    """
    last = len(tabs) - 1
    step = cohomology.chain_step
    below = [None] * len(tabs)  # below[k]: the completions of pieces k+1, ... (none after the last)
    for k in reversed(range(last)):
        suffix, tab = tuple(tabs[k + 1:]), tabs[k + 1]
        if suffix not in completions:
            after = below[k + 1]
            completions[suffix] = {
                need: len(fits) if after is None else sum(after.get(tab.need[t], 0) for t in fits)
                for need, fits in tab.by_age1.items()
            }
        below[k] = completions[suffix]
    ends = [[tab.ends[role] for role, _ in at] for tab, at in zip(tabs, roles)]

    def descend(r: int) -> tuple[tuple[int, ...], tuple]:
        idx, need = [], None
        states = [cohomology.CHAIN_START] * len(roles[0])
        for k, tab in enumerate(tabs):
            after = below[k]
            for t in tab.fits(need):
                through = 1 if after is None else after.get(tab.need[t], 0)
                if r < through:
                    break
                r -= through
            idx.append(t)
            states = [step(s, table[t]) for s, table in zip(states, ends[k])]
            need = tab.need[t]
        return tuple(idx), tuple(s[keep] for s, (_, keep) in zip(states, roles[last]))

    return descend


def _pieces(tabs: list[_CompTables], idx: tuple[int, ...]) -> tuple:
    return tuple(tab.lines[t] for tab, t in zip(tabs, idx))


def _subtree_sweep(
    res: SuiteResult, *, keys: tuple, roots: list, children, own, max_len: int, workers: int, witness, replay, check
) -> SuiteResult:
    """Tally a chain sweep by the subtrees of the chain DFS and replay its samples.

    The chains are numbered in depth-first pre-order: each chain comes right
    before its extensions by one component, which follow one another in
    ascending `chain_adjacency` order, each with its own extensions.  A node
    stands for the prefixes that agree on all that their subtrees depend on,
    one root per first component:
    `children(node)` lists its one-component extensions in ascending
    `chain_adjacency` order, and `own(node)` gives the figures of the
    prefix's own chain: instances, failures, then one per key of `keys` but
    "sampled".  With k more components allowed, a subtree's figures are the
    node's own plus its children's with k - 1; each distinct node's children
    and own figures are computed once, in the calling process, and the sums
    bottom-up by k with no recursion.

    A first component's tallies are its root's sums.  Descending them finds
    the first failing chain of the family, whose nodes go to `witness`, and
    each root's SAMPLE_EVERY-th, 2*SAMPLE_EVERY-th, ... instance: the nodes
    of each chain that holds some go to `replay` once, with their ranks
    within the chain, and `replay` returns one args tuple per rank.
    `_run_chunks` gets one run per first component as soon as it is
    descended, `check(*args)` for each of those args, on one worker per
    REPLAYS_PER_WORKER replays up to `workers`.  Returns `res` with the sums
    over the roots added and its details keyed by `keys` in that order.
    """
    top = max_len - 1
    levels, kids, tally = [roots], {}, {}
    while len(levels) < max_len and levels[-1]:
        kids.update((node, children(node)) for node in levels[-1] if node not in kids)
        levels.append(list(dict.fromkeys(child for node in levels[-1] for child in kids[node])))
    counts: dict = {}
    for depth in reversed(range(len(levels))):
        k = top - depth
        for node in levels[depth]:
            if node not in tally:
                tally[node] = own(node)
            below = [counts[child, k - 1] for child in kids[node]] if k else ()
            counts[node, k] = tuple(map(sum, zip(tally[node], *below)))

    def locate(head, r: int, col: int) -> tuple[list, int]:
        """The nodes of the chain below `head`, in pre-order, that holds the
        r-th instance (col 0) or failure (col 1), and r within that chain."""
        node, k, path = head, top, [head]
        while r >= (here := tally[node][col]):
            r -= here
            for child in kids[node]:
                c = counts[child, k - 1][col]
                if r < c:
                    break
                r -= c
            node, k = child, k - 1
            path.append(node)
        return path, r

    def runs():
        """Each first component's replays, tallying the root on the way."""
        for head in roots:
            instances, failures = counts[head, top][:2]
            res.instances += instances
            res.failures += failures
            if failures and res.first_counterexample is None:
                res.first_counterexample = witness(locate(head, 0, 1)[0])
            run, r = [], SAMPLE_EVERY - 1
            while r < instances:
                path, within = locate(head, r, 0)
                ranks = range(within, tally[path[-1]][0], SAMPLE_EVERY)
                run += replay(path, ranks)
                r += ranks[-1] - within + SAMPLE_EVERY  # the first sample past this chain
            yield check, run

    res.details = dict.fromkeys(keys, 0) if roots else {}
    replays = sum(counts[head, top][0] // SAMPLE_EVERY for head in roots)
    workers = _pool_size(min(workers, replays // REPLAYS_PER_WORKER), len(roots))
    for done in _run_chunks(_replay_chunk, runs(), workers):
        res.details["sampled"] += done["sampled"]
    sums = [sum(column) for column in zip(*(counts[head, top] for head in roots))]
    res.details.update(zip([key for key in keys if key != "sampled"], sums[2:]))
    return res


def _replay_chunk(run: tuple) -> dict:
    """Replay one first component's samples, given as (check, [args, ...])."""
    check, replays = run
    for args in replays:
        check(*args)
    return {"sampled": len(replays)}


def _bundle_sweep(
    name: str, *, keys: tuple, max_ab: int, max_l: int, max_d: int, max_len: int, workers: int,
    d_lo: int, folds: tuple, names: tuple, failing, figures, check,
) -> SuiteResult:
    """Count every balanced bundle on every chain of the family by its fold values.

    The bundles have d_lo <= d <= max_d; `names` name the folds' kept values
    in a witness, `failing(values)` tells a failing instance, and
    `figures(counts, instances)` gives a chain's detail figures.  A node is
    (last component i, the multiplicities of the states (kept values, flags,
    need) over the balanced prefixes before i, whether i is first): its own
    chain's counts {kept values: bundles} are one `_finish`, and its
    children, one per j in `chain_adjacency[i]`, share one `_extend` through
    i (see `_subtree_sweep`).  The instances are numbered as if enumerated
    chain by chain in lexicographic order: a sample is unranked and folded
    by one descent and replayed through `check`, and the first chain with a
    `failing` value is enumerated in that order for the witness.
    """
    comps = component_family(max_ab, max_l)
    adjacency = chain_adjacency(comps)
    tables = [_CompTables(c, range(d_lo, max_d + 1), folds) for c in comps]
    # the roles at (first piece, last piece), built once: the memo keys hold them
    roles = {(f, l): _roles(folds, f, l) for f in (False, True) for l in (False, True)}
    start = frozenset({((0,) * len(folds), (cohomology.CHAIN_START[2:],) * len(folds), None): 1}.items())
    interned: dict = {}

    def children(node: tuple) -> list:
        i, dist, first = node
        dist = frozenset(_extend(dist, tables[i], roles[first, False]).items())
        dist = interned.setdefault(dist, dist)
        return [(j, dist, False) for j in adjacency[i]]

    def own(node: tuple) -> tuple:
        i, dist, first = node
        counts = _finish(dist, tables[i], roles[first, True])
        n = sum(counts.values())
        return (n, sum(m for values, m in counts.items() if failing(values)), *figures(counts, n))

    completions: dict = {}

    def descent(path: list) -> tuple:
        tabs, last = [tables[node[0]] for node in path], len(path) - 1
        return tabs, _descent(tabs, [roles[k == 0, k == last] for k in range(last + 1)], completions)

    def witness(path: list) -> dict:
        tabs, descend = descent(path)
        idx, values = next(w for w in map(descend, itertools.count()) if failing(w[1]))
        pieces = _listed_pieces(_pieces(tabs, idx))
        return {"chain": _listed(tab.comp for tab in tabs), "pieces": pieces, **dict(zip(names, values))}

    def replay(path: list, ranks: range) -> list:
        tabs, descend = descent(path)
        comps = tuple(tab.comp for tab in tabs)
        return [(comps, _pieces(tabs, idx), *values) for idx, values in map(descend, ranks)]

    return _subtree_sweep(
        SuiteResult(name), keys=keys, roots=[(i, start, True) for i in range(len(comps))], children=children,
        own=own, max_len=max_len, workers=workers, witness=witness, replay=replay, check=check,
    )


def _convexity_figures(counts: dict, n: int) -> tuple:
    # every grid bundle is semi-positive (d >= 0), so rank-2 split bundles
    # fail exactly when one of the two summands has nonzero h1
    n_good = counts.get((0,), 0)
    return n * n, n * n - n_good * n_good


def suite_weak_convexity(
    max_ab: int = 4, max_l: int = 4, max_d: int = 8, max_len: int = 3, workers: int = 1
) -> SuiteResult:
    """Semi-positive implies convex: h1(L(-x2)) = 0 for all d >= 0 chain bundles.

    Rank-1 bundles are counted exhaustively; rank-2 counts follow exactly
    by additivity of h1 over summands.
    """
    check_arguments(locals())
    res = _bundle_sweep(
        "thm-weak-convexity", keys=("rank2_pairs", "rank2_failures", "sampled"), max_ab=max_ab, max_l=max_l,
        max_d=max_d, max_len=max_len, workers=workers, d_lo=0, folds=(_CONVEX_SIDE,), names=("h1",),
        failing=lambda v: v[0] != 0, figures=_convexity_figures, check=_api_check_convexity_instance,
    )
    res.failures += res.details.get("rank2_failures", 0)
    return res


def _concavity_figures(counts: dict, n: int) -> tuple:
    # split-level convexity <-> concavity tallies: counts of the classes
    # (h1(L(-x2)) == 0, h0(dual L(-x1)) == 0) in the order ff, ft, tf, tt
    classes = [0, 0, 0, 0]
    for (hc, hd), m in counts.items():
        classes[2 * (hc == 0) + (hd == 0)] += m
    c_ff, c_ft, c_tf, c_tt = classes
    x = c_tt + c_tf  # convex side count
    y = c_tt + c_ft  # concave side count
    return n * n, x * x + y * y - 2 * c_tt * c_tt, c_tt, c_tf, c_ft, c_ff


def suite_weak_concavity(
    max_ab: int = 4, max_l: int = 4, max_d: int = 8, max_len: int = 3, workers: int = 1
) -> SuiteResult:
    """Convexity <-> concavity: h0(dual(L)(-x1)) = h1(L(-x2)) for every summand."""
    check_arguments(locals())
    res = _bundle_sweep(
        "thm-weak-concavity", keys=("sampled", "rank2_pairs", "rank2_equiv_failures", "n_tt", "n_tf", "n_ft", "n_ff"),
        max_ab=max_ab, max_l=max_l, max_d=max_d, max_len=max_len, workers=workers, d_lo=-max_d,
        folds=(_CONVEX_SIDE, _DUAL_SIDE), names=("h1", "h0_dual"), failing=lambda v: v[0] != v[1],
        figures=_concavity_figures, check=_api_check_concavity_instance,
    )
    res.failures += res.details.get("rank2_equiv_failures", 0)
    return res


def _api_check_log_canonical(comps: tuple, expected: tuple) -> None:
    chain = curves.CurveChain(comps)
    cert = convexity.log_canonical_certificate(chain)
    certified = (cert.h0_log_canonical, cert.h1_log_canonical, cert.h0_omega_x2, cert.h1_omega_x2)
    # the elimination reads the very bundles the certificate's fold read
    eliminated = oracles.h_chain_by_elimination(cert.log_canonical) + oracles.h_chain_by_elimination(cert.omega_x2)
    if certified != expected or eliminated != expected:
        raise cohomology.InternalInconsistency(
            f"log canonical on {_listed(comps)}: sweep {expected}, certificate {certified}, "
            f"elimination {eliminated}"
        )


_LOG_CANONICAL = (1, 0, 0, 0)  # omega(x1+x2) trivial, and omega(x2) with no cohomology


def suite_log_canonical(
    max_ab: int = 4, max_l: int = 4, max_len: int = 6, workers: int = 1
) -> SuiteResult:
    """omega(x1+x2) is trivial, and omega(x2) has no cohomology, on every chain.

    A prefix of the chain DFS is a node (last component i, fold states of
    omega(x1+x2) and omega(x2)); its children, one per j in
    `chain_adjacency[i]`, step both states with the trivial piece on j, and
    its own chain is one instance, failing when the states' (h0, h1) are not
    `_LOG_CANONICAL`.  Those few nodes repeat across the family, so the
    (chains, failing chains) of each subtree are counted once per call, and
    only the replays go to the pool (see `_subtree_sweep`).
    """
    check_arguments(locals())
    comps = component_family(max_ab, max_l)
    adjacency = chain_adjacency(comps)
    objs = [curves.TwistedComponent(*c) for c in comps]
    # the trivial bundle, the first of the d = 0 grid, is every piece of
    # omega(x1+x2); omega(x2) twists the first piece by -x1
    trivial = [_bundle_grid(comp, range(1))[0] for comp in objs]
    plain = [cohomology.piece_ends(L) for L in trivial]
    first = [cohomology.piece_ends(bundles.twist_marked(L, curves.X1, -1)) for L in trivial]
    step = cohomology.chain_step
    start = cohomology.CHAIN_START

    def children(node: tuple) -> list:
        i, (log_can, omega_x2) = node
        return [(j, (step(log_can, plain[j]), step(omega_x2, plain[j]))) for j in adjacency[i]]

    def values(node: tuple) -> tuple:
        """(h0, h1) of omega(x1+x2), then of omega(x2)."""
        log_can, omega_x2 = node[1]
        return log_can[:2] + omega_x2[:2]

    def witness(path: list) -> dict:
        v = values(path[-1])
        return {"chain": [list(comps[node[0]]) for node in path], "log_canonical": v[:2], "omega_x2": v[2:]}

    def replay(path: list, ranks: range) -> list:
        """One args tuple per rank: a chain is one instance, so there is one rank."""
        return [(tuple(objs[node[0]] for node in path), values(path[-1]))] * len(ranks)

    roots = [(i, (step(start, plain[i]), step(start, first[i]))) for i in range(len(comps))]
    return _subtree_sweep(
        SuiteResult("log-canonical"), keys=("sampled",), roots=roots, children=children,
        own=lambda node: (1, int(values(node) != _LOG_CANONICAL)), max_len=max_len, workers=workers,
        witness=witness, replay=replay, check=_api_check_log_canonical,
    )


# ---------------------------------------------------------------------------
# Criterion 7: rank formula against direct cohomology on single components.
# ---------------------------------------------------------------------------


def suite_rank_formula(max_ab: int = 4, max_l: int = 4, max_d: int = 8) -> SuiteResult:
    check_arguments(locals())
    res = SuiteResult("rank-formula")
    deltas: dict[Fraction, int] = {}
    n_convex = 0
    for L in _family_grid(max_ab, max_l, range(-max_d, max_d + 1)):
        cb = bundles.ChainBundle(curves.CurveChain((L.comp,)), (L,))
        if cohomology.h_twisted(cb, curves.X2, -1).h1 != 0:
            continue  # not weakly convex, formula not asserted
        n_convex += 1
        g1 = sectors.SectorAction((bundles.age_at(L, curves.X1),))
        g2 = sectors.SectorAction((bundles.age_at(L, curves.X2),))
        rf = sectors.rank_formula(L.degree, g1, g2)
        direct = cohomology.h_twisted(bundles.chain_dual(cb), curves.X1, -1).h1
        res.instances += 1
        if not (rf == direct and rf.denominator == 1 and rf >= 0):
            res.fail({"bundle": str(L), "rank_formula": str(rf), "direct_h1": direct})
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
    check_arguments(locals())
    res = SuiteResult("rank2-direct")
    for a, b, l1, l2 in component_family(max_ab, max_l):
        comp = curves.TwistedComponent(a, b, l1, l2)
        chain = curves.CurveChain((comp,))
        line_bundles = _bundle_grid(comp, range(-max_d, max_d + 1))
        for L1, L2 in itertools.combinations_with_replacement(line_bundles, 2):
            split = bundles.SplitBundle(
                (bundles.ChainBundle(chain, (L1,)), bundles.ChainBundle(chain, (L2,)))
            )
            if not convexity.is_weakly_convex_on(split):
                continue
            g1 = sectors.SectorAction(
                tuple(bundles.age_at(L, curves.X1) for L in (L1, L2))
            )
            g2 = sectors.SectorAction(
                tuple(bundles.age_at(L, curves.X2) for L in (L1, L2))
            )
            rf = sectors.rank_formula(L1.degree + L2.degree, g1, g2)
            direct = sum(
                cohomology.h_twisted(
                    bundles.chain_dual(bundles.ChainBundle(chain, (L,))),
                    curves.X1,
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
    check_arguments(locals())
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
        try:
            (lhs, rhs), ok = sectors.age_sum_check(s), True
        except cohomology.InternalInconsistency as err:
            (lhs, rhs), ok = err.sides, False
        # sign-consistency: the exponent of the cycle sign plus the residual
        # ages is, mod 2, the invariant-level exponent of e^{i*pi*(beta_det + rank)}
        g2 = sectors.SectorAction(tuple(sorted(weights, key=str)))
        if rng.random() < 0.5:
            beta_det = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        else:
            beta_det = sectors.age(s) - sectors.age(sectors.inverse_sector(g2)) + rng.randint(0, 6)
        sig = sectors.sign_cycle(beta_det, s, g2)
        sign_lhs = (sig.exponent + sectors.age(s) + sectors.age(g2) + g2.rank_fixed) % 2
        sign_rhs = sectors.sign_invariant(beta_det, s.rank)
        if not ok or sign_lhs != sign_rhs:
            res.fail({
                "weights": [str(w) for w in weights],
                "lhs": str(lhs),
                "rhs": str(rhs),
                "sign_lhs": str(sign_lhs),
                "sign_rhs": str(sign_rhs),
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


def _api_check_pairing_comparison(m: wps.WPSModel) -> None:
    if wps.comparison_sides(m) != oracles._pairing_sides_by_elements(m):
        raise cohomology.InternalInconsistency(
            f"pairing comparison of {m}: block Gram matrices disagree with the elementwise pairings"
        )


def suite_pairing_comparison(max_n: int = 5, max_w: int = 4, max_r: int = 2, max_k: int = 4) -> SuiteResult:
    check_arguments(locals())
    res = SuiteResult("pairing-comparison", details={"pairing_checks": 0, "sampled": 0})
    for model in wps_model_family(max_n, max_w, max_r, max_k):
        if res.instances % PAIRING_SAMPLE_EVERY == 0:
            _api_check_pairing_comparison(model)
            res.details["sampled"] += 1
        pairing = wps.verify_pairing_comparison(model)
        iso = wps.verify_delta_iso_dims(model)
        try:  # the sector-level age-sum identity, checked alongside
            ages_ok = all(sectors.age_sum_check(s.fiber_weights) for s in model.sectors)
        except cohomology.InternalInconsistency:
            ages_ok = False
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
    check_arguments(locals())
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
    check_arguments(locals())
    res = SuiteResult("isotropy-oracle")
    for c in range(1, max_cd + 1):
        for d in range(1, max_cd + 1):
            comp = curves.present(c, d)
            counts = oracles.brute_force_isotropy_counts(comp)
            res.instances += 1
            ok = (
                counts["x1"] == c == curves.isotropy_order(comp, curves.X1)
                and counts["x2"] == d == curves.isotropy_order(comp, curves.X2)
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
    check_arguments(locals())
    res = SuiteResult("age-oracle")
    for L in _family_grid(max_ab, max_l, range(-max_d, max_d + 1)):
        for pt in (curves.X1, curves.X2):
            res.instances += 1
            fast = bundles.age_at(L, pt)
            slow = oracles.brute_force_age(L, pt)
            if fast != slow:
                res.fail({"bundle": str(L), "point": pt.value, "formula": str(fast), "oracle": str(slow)})
    return res


# ---------------------------------------------------------------------------
# Runner plumbing.
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_size(workers: int, runs: int) -> int:
    """The workers to start for `runs` chunks: no more than asked for, than
    there are runs, or than the process may run on; at least 1."""
    return max(1, min(workers, runs, _usable_cpus()))


def _run_chunks(fn, args, workers: int):
    """fn(a) for each a of the iterable `args`, in order: in process on one
    worker, otherwise on a pool that takes each item as it is produced, so the
    workers start on the first while the caller produces the rest.  Past two
    items per worker it waits for the oldest, so they do not pile up."""
    if workers == 1:
        yield from map(fn, args)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for a in args:
                pending.append(pool.submit(fn, a))
                if len(pending) > 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


# The least value of each integer argument of the suites, by name (`seed`
# takes any int); every suite that takes an argument takes it with this least
# value.  Below it a grid, a model family or a trial count is empty, an empty
# suite would report success, and a pool needs a worker.  The map is
# read-only: a suite call leaves no state behind.
MINIMUMS = MappingProxyType({
    "max_ab": 1, "max_l": 1, "max_d": 0, "max_len": 1, "workers": 1, "trials": 1, "max_den": 1,
    "max_n": 2, "max_w": 1, "max_r": 0, "max_k": 1, "order": 1, "max_dim": 1, "max_cd": 1,
})


def check_arguments(args: dict) -> None:
    """Refuse any of `args` (argument name to value) that is not an int or is below its least value.

    Each suite calls it first with its own `locals()`, so a refusal comes before any work.
    Every argument of a suite is an int, `seed` too; an argument missing from `args` is not checked.
    """
    for arg, value in args.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{arg} must be an integer, got {value!r}")
        if value < MINIMUMS.get(arg, value):
            raise ValueError(f"{arg} must be at least {MINIMUMS[arg]}")


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
