"""The benchmark's workloads: inputs, one timed pass, and the answer checks.

A workload builds its inputs once per set-up, from the seed where it has
one, and then runs passes over those same inputs.  A pass is the frozen unit
of work whose time is reported, and every answer in it is checked.  The
package is passed in as `mods` (a namespace of the imported `orbicurve`
modules) because the runner imports it afresh for each set-up.
"""
from __future__ import annotations

import bisect
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from tracing import cache_counts


def _reference_loop() -> int:
    """Fixed pure-Python work that shares no code with orbicurve.

    It mixes integer and Fraction arithmetic with the allocation of small
    dicts, lists, tuples and strings and a JSON round trip, the kinds of
    work the workloads do.
    """
    s = 0
    d = {}
    for i in range(8000):
        s += (i * i) % 7
        d[i & 255] = s
    rows = [{"a": i, "b": [i, i + 1, str(i)], "c": (i, "x" * (i % 7))} for i in range(1200)]
    s += len(json.loads(json.dumps(rows[:150])))
    f = Fraction(1, 3)
    for i in range(150):
        f = f * Fraction(i + 1, i + 2) + 1
    return s + len(rows) + f.numerator % 7


class SpeedReference:
    """How fast the machine runs at each moment of a run.

    The machine is shared: other tenants slow it by up to about 1.6x, for
    seconds to minutes at a time, and the slow-down reaches CPU time as well
    as wall time.  The runner times a fixed reference loop between units (at
    most once every INTERVAL_S) and states each measured time at the loop's
    nominal speed: time * NOMINAL_S / (median of the NEAREST loop timings
    around it).
    """

    NOMINAL_S = 0.003
    INTERVAL_S = 0.05
    NEAREST = 6

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> None:
        if not force and perf_counter() - self.last < self.INTERVAL_S:
            return
        t0 = perf_counter()
        _reference_loop()
        self.last = perf_counter()
        self.starts.append(t0)
        self.times.append(self.last - t0)

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured speed of the reference around [start, end]."""
        i = bisect.bisect(self.starts, (start + end) / 2)
        hi = min(len(self.times), max(i - self.NEAREST // 2, 0) + self.NEAREST)
        lo = max(0, hi - self.NEAREST)
        return self.NOMINAL_S / statistics.median(self.times[lo:hi])


@dataclass
class Pass:
    """What one pass did.  `counters` must repeat exactly from pass to pass."""

    clock: SpeedReference
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    units: list = field(default_factory=list)  # (start, wall s, CPU s) per unit
    counters: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)  # layer figures that may vary
    errors: list = field(default_factory=list)
    digest: str | None = None
    trace: dict | None = None  # per-name calls and self times, traced passes only

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(message)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _unit(p: Pass, tracer, kind: str, uid, fn, *args):
    """Call fn(*args) as one benchmark unit, recording its wall and CPU time.

    Every pass runs the same units in the same order.  When tracing, the
    unit is a root span.
    """
    p.clock.tick()
    c0, t0 = cpu_seconds(), perf_counter()
    try:
        if tracer is None:
            return fn(*args)
        return tracer.span(f"bench.{kind}", uid, fn, *args)
    finally:
        p.units.append((t0, perf_counter() - t0, cpu_seconds() - c0))
        p.clock.tick()


def _clear_suite_caches(suites) -> None:
    for obj in vars(suites).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


# ---------------------------------------------------------------------------
# Chain workloads: exhaustive suite grids, no seed.
# ---------------------------------------------------------------------------


class _SuiteWorkload:
    """Runs fixed suite calls, each one unit; a latency sample is a whole pass."""

    name = ""
    runs_suites = True
    # size -> [(suite function name, kwargs, frozen instance count)]
    CALLS: dict[str, list[tuple[str, dict, int]]] = {}

    def workers(self, nproc: int) -> int:
        return 1

    def setup(self, mods, seed: int, size: str, workdir: str):
        return self.CALLS[size]

    def run_pass(self, mods, calls, tracer, workers: int, clock: SpeedReference) -> Pass:
        suites = mods.suites
        p = Pass(clock)
        for n, (fn_name, kwargs, expected) in enumerate(calls):
            _clear_suite_caches(suites)
            fn = getattr(suites, fn_name)
            try:
                res = _unit(p, tracer, "suite", f"{fn_name}#{n}", lambda: fn(**kwargs, workers=workers))
            except Exception:
                p.attempted += expected
                p.fail(f"{fn_name}: {traceback.format_exc(limit=3)}", expected)
                continue
            caches = cache_counts(suites)
            p.attempted += res.instances
            p.failed += res.failures
            if res.failures:
                p.fail(f"{res.name}: {res.failures} failures, first {res.first_counterexample}", 0)
            if res.instances != expected:
                p.fail(f"{res.name}: {res.instances} instances, frozen count is {expected}")
            sampled = res.details.get("sampled", 0)
            if sampled <= 0:
                p.fail(f"{res.name}: no sampled API replays")
            for problem in self.extra_checks(res):
                p.fail(f"{res.name}: {problem}")
            p.counters[f"{res.name}.instances"] = res.instances
            p.counters[f"{res.name}.sampled"] = sampled
            target = p.counters if workers == 1 else p.stats
            for key, value in caches.items():
                target[key] = target.get(key, 0) + value
            p.stats["instances"] = p.stats.get("instances", 0) + res.instances
            p.stats["sampled"] = p.stats.get("sampled", 0) + sampled
        return p

    def extra_checks(self, res) -> list[str]:
        return []


class ChainSweep(_SuiteWorkload):
    """Many balanced bundles per chain: the cached integer core and its tables."""

    name = "chain-sweep"
    CALLS = {
        "full": [
            ("suite_weak_convexity", dict(max_ab=4, max_l=4, max_d=3, max_len=3), 201784),
            ("suite_weak_concavity", dict(max_ab=4, max_l=4, max_d=1, max_len=3), 87902),
        ],
        "smoke": [
            ("suite_weak_convexity", dict(max_ab=2, max_l=2, max_d=2, max_len=3), 2326),
            ("suite_weak_concavity", dict(max_ab=2, max_l=2, max_d=1, max_len=3), 2324),
        ],
    }

    def extra_checks(self, res) -> list[str]:
        d = res.details
        problems = []
        if d.get("rank2_failures", 0) or d.get("rank2_equiv_failures", 0):
            problems.append("rank-2 failures")
        if d.get("n_tf", 0) or d.get("n_ft", 0):
            problems.append("convexity and concavity disagree")
        return problems


class ChainCertify(_SuiteWorkload):
    """One bundle per chain over a deep DFS, on the process pool."""

    name = "chain-certify"
    CALLS = {
        "full": [("suite_log_canonical", dict(max_ab=4, max_l=4, max_len=4), 24999)],
        "smoke": [("suite_log_canonical", dict(max_ab=3, max_l=3, max_len=4), 5544)],
    }

    def workers(self, nproc: int) -> int:
        return min(2, nproc)


# ---------------------------------------------------------------------------
# State spaces: pairing comparisons on a model family, operator identities on
# seeded tables.
# ---------------------------------------------------------------------------


def seeded_tables(mods, rng: random.Random, count: int, max_truncation: int, max_classes: int, max_a: int):
    """(model, truncation, table) for `count` non-empty seeded operator tables.

    Model, truncation, class count and descendant range follow a fixed
    schedule; the seed draws the table entries.  So a pass costs about the
    same for every seed, and its slowest tables do too.
    """
    models = mods.suites.qsd_model_family(6)
    out = []
    while len(out) < count:
        i = len(out)
        model, n = models[i % len(models)], 1 + i % max_truncation
        table = mods.series.random_invariant_table(
            model, n, rng, n_classes=1 + i % max_classes, a_max=i % (max_a + 1)
        )
        if table.entries:  # an empty table has no coefficient to check
            out.append((model, n, table))
    return out


def _sector_layout(weights) -> tuple[int, int]:
    """(number of sectors, basis size) of P(weights), counted independently."""
    rotations = {Fraction(k, w) for w in weights for k in range(w)}
    basis = sum(sum(1 for w in weights if (f * w).denominator == 1) for f in rotations)
    return len(rotations), basis


@dataclass
class StateInputs:
    models: list
    tables: list  # (model, truncation, table)
    order: list  # (kind, index), shuffled by the seed
    expected_checks: list
    frozen: dict


class StateSpace:
    """Exact Phase/PhasedScalar/Fraction arithmetic, pairings and operators."""

    name = "state-space"
    runs_suites = False
    SIZES = {
        "full": dict(family=dict(max_n=4, max_w=3, max_k=3), tables=150, models=310, pairing_checks=15260),
        "smoke": dict(family=dict(max_n=2, max_w=3), tables=6, models=90, pairing_checks=1590),
    }

    def workers(self, nproc: int) -> int:
        return 1

    def setup(self, mods, seed: int, size: str, workdir: str) -> StateInputs:
        spec = self.SIZES[size]
        suites = mods.suites
        models = list(suites.wps_model_family(**spec["family"]))
        rng = random.Random(seed)
        tables = seeded_tables(mods, rng, spec["tables"], max_truncation=4, max_classes=2, max_a=2)
        order = [("model", i) for i in range(len(models))] + [("table", j) for j in range(len(tables))]
        rng.shuffle(order)
        expected = [_sector_layout(m.weights)[1] ** 2 for m in models]
        frozen = {"models": spec["models"], "pairing_checks": spec["pairing_checks"], "tables": spec["tables"]}
        return StateInputs(models, tables, order, expected, frozen)

    def run_pass(self, mods, inp: StateInputs, tracer, workers: int, clock: SpeedReference) -> Pass:
        wps, series = mods.wps, mods.series
        p = Pass(clock)
        c = {"models": 0, "tables": 0, "pairing_checks": 0, "coefficient_checks": 0}
        for kind, i in inp.order:
            p.attempted += 1
            try:
                if kind == "model":
                    m = inp.models[i]

                    def check_model(m=m):
                        return wps.verify_pairing_comparison(m), wps.verify_delta_iso_dims(m)

                    pairing, iso = _unit(p, tracer, "model", f"model#{i}", check_model)
                    c["models"] += 1
                    c["pairing_checks"] += pairing.checks
                    if not (pairing.ok and iso.ok) or pairing.checks != inp.expected_checks[i]:
                        p.fail(f"{m}: pairing ok={pairing.ok} iso ok={iso.ok} checks={pairing.checks}")
                else:
                    model, n, table = inp.tables[i]
                    report = _unit(
                        p, tracer, "table", f"table#{i}", series.verify_qsd_operator_identity, table, model, n
                    )
                    c["tables"] += 1
                    c["coefficient_checks"] += report.checks
                    if not report.ok or report.checks <= 0 or report.dim != table.dim:
                        p.fail(f"table#{i} on {model}: {report.first_violation}")
            except Exception:
                p.fail(f"{kind}#{i}: {traceback.format_exc(limit=3)}")
        for key, value in inp.frozen.items():
            if c[key] != value:
                p.fail(f"{key}: {c[key]}, frozen count is {value}")
        p.counters.update(c)
        p.digest = str(c["coefficient_checks"])
        return p


# ---------------------------------------------------------------------------
# One-document queries through the CLI, in process, one closed-loop client.
# ---------------------------------------------------------------------------

# queries per pass, by kind
QUERY_MIX = {
    "full": dict(
        chain=350, twisted=150, convexity=100, single=150, sectors=50, verify=50, series=50, rank=50, sign=50
    ),
    "smoke": dict(chain=6, twisted=3, convexity=3, single=3, sectors=2, verify=2, series=2, rank=2, sign=2),
}
MAX_CHAIN = {"full": 100, "smoke": 8}
MAX_LOG10_DEGREE = {"full": 5, "smoke": 3}


class _ChainMaker:
    """Seeded balanced chain bundles on the components of component_family(4, 4)."""

    D_RANGE = range(-3, 7)

    def __init__(self, mods, rng: random.Random):
        curves, bundles = mods.curves, mods.bundles
        self.rng = rng
        self.comps = mods.suites.component_family(4, 4)
        x1, x2 = curves.MarkedPoint.X1, curves.MarkedPoint.X2
        self.by_x1: list[dict[Fraction, list]] = []
        self.x2age: list[dict[tuple, Fraction]] = []
        for a, b, l1, l2 in self.comps:
            comp = curves.TwistedComponent(a, b, l1, l2)
            by_x1: dict[Fraction, list] = {}
            ages2 = {}
            for k1 in range(l1):
                for k2 in range(l2):
                    for d in self.D_RANGE:
                        L = bundles.EqLineBundle(comp, k1, k2, d)
                        by_x1.setdefault(bundles.age_at(L, x1), []).append((k1, k2, d))
                        ages2[(k1, k2, d)] = bundles.age_at(L, x2)
            self.by_x1.append(by_x1)
            self.x2age.append(ages2)
        orders_c = [a * l1 * l2 for a, b, l1, l2 in self.comps]
        self.next = [
            [j for j, c in enumerate(orders_c) if c == b * l1 * l2] for a, b, l1, l2 in self.comps
        ]

    def _pieces(self, idx: list[int], first=None):
        rng = self.rng
        first = first if first is not None else rng.choice([p for v in self.by_x1[idx[0]].values() for p in v])
        pieces = [first]
        for prev, j in zip(idx, idx[1:]):
            need = (-self.x2age[prev][pieces[-1]]) % 1
            options = self.by_x1[j].get(need)
            if not options:
                return None
            pieces.append(rng.choice(options))
        return pieces

    def chain(self, length: int, summands: int = 1):
        """(component indices, [pieces per summand]) of a balanced chain bundle."""
        rng = self.rng
        for _ in range(10_000):
            idx = [rng.randrange(len(self.comps))]
            while len(idx) < length and self.next[idx[-1]]:
                idx.append(rng.choice(self.next[idx[-1]]))
            if len(idx) < length:
                continue
            all_pieces = [self._pieces(idx) for _ in range(summands)]
            if all(p is not None for p in all_pieces):
                return idx, all_pieces
        raise RuntimeError(f"no balanced chain bundle of length {length}")

    def document(self, idx, all_pieces) -> dict:
        return {
            "chain": [dict(zip(("a", "b", "l1", "l2"), self.comps[i])) for i in idx],
            "bundle": [[{"k1": k1, "k2": k2, "d": d} for k1, k2, d in pieces] for pieces in all_pieces],
        }


def _table_document(model, table) -> dict:
    return {
        "wps": {"weights": list(model.weights), "bundle": list(model.bundle_degrees)},
        "table": {
            "dim": table.dim,
            "entries": [
                {
                    "beta": {"degrees": [str(x) for x in e.beta.degrees]},
                    "sectors": [str(x) for x in e.sectors],
                    "psi_power": e.psi_power,
                    "row": e.row,
                    "col": e.col,
                    "value": str(e.value),
                }
                for e in table.entries
            ],
        },
    }


def _rank_exponent(beta: Fraction, g1: list[Fraction], g2: list[Fraction]) -> Fraction:
    """deg - age(g1) + age(dual g2), computed here independently of `sectors`."""
    return beta - sum(g1, Fraction(0)) + sum((1 - w for w in g2 if w != 0), Fraction(0))


@dataclass
class Query:
    kind: str
    argv: list
    expect: dict
    stdin: str | None = None  # the document, piped as a user would


class ApiQueries:
    """cli.main per document: schema validation, parsing, uncached h_chain."""

    name = "api-queries"
    runs_suites = False

    def workers(self, nproc: int) -> int:
        return 1

    def setup(self, mods, seed: int, size: str, workdir: str) -> list[Query]:
        rng = random.Random(seed)
        mix = QUERY_MIX[size]
        maker = _ChainMaker(mods, rng)
        queries: list[Query] = []

        def write(doc: dict) -> str:
            path = os.path.join(workdir, f"q{len(queries)}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(doc))
            return path

        def piped(kind: str, doc: dict) -> Query:
            return Query(kind, ["--json", kind], {}, json.dumps(doc))

        def strata(n: int):
            return [(i + 0.5) / n for i in range(n)]

        # chain lengths: skewed short, plus a block of the longest chains two
        # percent of the mix wide, so that latency_p99_ms falls inside that
        # block rather than on the cost of one seeded chain
        n_long = max(1, sum(mix.values()) // 50)
        lengths = [max(1, round(MAX_CHAIN[size] ** (u**3))) for u in strata(mix["chain"] - n_long)]
        for length in lengths + [MAX_CHAIN[size]] * n_long:
            queries.append(piped("cohomology", maker.document(*maker.chain(length))))
        for i in range(mix["twisted"]):
            doc = maker.document(*maker.chain(1 + i % 6))
            doc["twist"] = {"point": rng.choice(["x1", "x2"]), "sign": rng.choice([1, -1])}
            queries.append(piped("cohomology", doc))
        for i in range(mix["convexity"]):
            queries.append(piped("convexity", maker.document(*maker.chain(1 + i % 4, summands=2))))
        for i, u in enumerate(strata(mix["single"])):
            # the cost grows with d / a: each degree stratum keeps its component
            # so that the tail of the mix does not change with the seed
            a, b, l1, l2 = maker.comps[(7 * i) % len(maker.comps)]
            d = round(10 ** (MAX_LOG10_DEGREE[size] * u)) * (1 if i % 2 == 0 else -1)
            doc = {
                "chain": [{"a": a, "b": b, "l1": l1, "l2": l2}],
                "bundle": [[{"k1": rng.randrange(l1), "k2": rng.randrange(l2), "d": d}]],
            }
            queries.append(piped("cohomology", doc))
        # every ninth model of the family from a seeded offset: the same spread
        # of model sizes for every seed
        small_models = list(mods.suites.wps_model_family(max_n=3))
        for kind in ("sectors", "verify"):
            offset = rng.randrange(len(small_models))
            for i in range(mix[kind]):
                m = small_models[(offset + 9 * i) % len(small_models)]
                argv = ["--json", "wps", kind, "--weights", ",".join(map(str, m.weights))]
                if m.bundle_degrees:
                    argv += ["--bundle", ",".join(map(str, m.bundle_degrees))]
                n_sectors, basis = _sector_layout(m.weights)
                queries.append(Query(f"wps-{kind}", argv, {"sectors": n_sectors, "checks": basis**2}))
        for model, n, table in seeded_tables(mods, rng, mix["series"], max_truncation=2, max_classes=1, max_a=1):
            path = write(_table_document(model, table))
            queries.append(Query("series", ["--json", "--order", str(n), "series-verify", path], {"dim": table.dim}))
        for kind in ("rank", "sign"):
            for _ in range(mix[kind]):
                r = rng.randint(1, 3)
                g1 = [Fraction(rng.randrange(den), den) for den in (rng.randint(1, 6) for _ in range(r))]
                g2 = [Fraction(rng.randrange(den), den) for den in (rng.randint(1, 6) for _ in range(r))]
                beta = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                argv = [
                    "--json", kind, f"--beta-detE={beta}",
                    "--g1", ",".join(map(str, g1)), "--g2", ",".join(map(str, g2)),
                ]
                queries.append(Query(kind, argv, {"exponent": _rank_exponent(beta, g1, g2)}))
        rng.shuffle(queries)
        return queries

    def run_pass(self, mods, queries: list[Query], tracer, workers: int, clock: SpeedReference) -> Pass:
        main = mods.cli.main
        p = Pass(clock)
        digest = hashlib.sha256()
        for n, q in enumerate(queries):
            p.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            stdin = sys.stdin
            try:
                sys.stdin = io.StringIO(q.stdin or "")
                with redirect_stdout(out), redirect_stderr(err):
                    code = _unit(p, tracer, "query", f"query#{n}", main, q.argv)
            except (Exception, SystemExit):
                p.fail(f"query#{n} {q.argv}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                sys.stdin = stdin
            text = out.getvalue()
            digest.update(f"{code}\n{text}".encode())
            problem = self._check(q, code, text, err.getvalue())
            if problem:
                p.fail(f"query#{n} {q.argv}: {problem}")
        p.counters["queries"] = len(queries)
        p.digest = digest.hexdigest()
        return p

    @staticmethod
    def _check(q: Query, code, text: str, err: str) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        try:
            res = json.loads(text)["results"]
        except (ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if q.kind == "cohomology":
            if res["h0"] - res["h1"] != Fraction(res["euler_char"]):
                return f"h0 - h1 != euler_char: {res}"
        elif q.kind == "convexity":
            if res["weakly_semipositive"] and not res["weakly_convex"]:
                return "semi-positive but not convex"
            if res["weakly_convex"] != res["weakly_concave_dual"]:
                return "convexity and concavity of the dual disagree"
        elif q.kind == "wps-sectors":
            if len(res["sectors"]) != q.expect["sectors"]:
                return f"{len(res['sectors'])} sectors, expected {q.expect['sectors']}"
        elif q.kind == "wps-verify":
            if not res["ok"] or res["pairing_checks"] != q.expect["checks"]:
                return f"ok={res['ok']} checks={res['pairing_checks']}"
        elif q.kind == "series":
            if not res["ok"] or res["state_dim"] != q.expect["dim"] or res["coefficient_checks"] <= 0:
                return f"ok={res['ok']} dim={res['state_dim']} checks={res['coefficient_checks']}"
        elif q.kind == "rank":
            if Fraction(res["rank"]) != q.expect["exponent"]:
                return f"rank {res['rank']}, expected {q.expect['exponent']}"
        elif q.kind == "sign":
            expo = q.expect["exponent"]
            want = {Fraction(0): 1, Fraction(1): -1}.get(expo % 2)
            if Fraction(res["exponent"]) != expo % 2 or res["sign"] != want:
                return f"sign {res}, exponent {expo}"
        return None


WORKLOADS = {w.name: w for w in (ChainSweep(), ChainCertify(), StateSpace(), ApiQueries())}
