#!/usr/bin/env python3
"""In-process timings of the PhasedScalar, sector, operator-check, chain-replay, chain-fold and document-intake layers.

    python3 scripts/layer_timings.py [--parent DIR]

Times this checkout's `orbicurve` (its `src/`).  With --parent, DIR is the
`src/` directory of another checkout: its package is imported in the same
process under a second name, both trees get the same inputs, and each round
times the two trees one after the other, alternating which goes first.

Each tree builds the state-space workload's 150 operator tables and the
api-queries workload's documents for seed 1 as perfbench does, records the
replay arguments of two chain suites (below) and a seeded 100-piece chain
bundle.  The figures, in microseconds unless the name says ms:

- `phased_mul_us`, `phased_add_us`: one product and one sum of two
  one-term PhasedScalars with rational coefficients at conductors 3 and 4
- `build_L_us`: `series.build_L` on the largest of the tables
- `operator_check_us`: `series.verify_qsd_operator_identity` on that table,
  on one model that keeps its derived data from call to call
- `operator_checks_ms`: all 150 operator checks of one pass, on the tables'
  8 models built afresh before each round, as a pass's set-up builds them
- `pairing_comparison_us`: `wps.verify_pairing_comparison` on P(1,2,3)/O(1,2),
  built afresh before each call
- `pairing_models_ms`: `wps.verify_pairing_comparison` and
  `wps.verify_delta_iso_dims` on each of the state-space workload's 310
  models, `suites.wps_model_family(max_n=4, max_w=3, max_k=3)`, built afresh
  before each round
- `sector_walk_ms`: the first read of `WPSModel.sectors` on each of those
  310 models, built afresh before each round
- `age_sum_ms`: `suites.suite_age_sum()` (criterion 8, 10,000 trials)
- `log_canonical_replay_us`: one `suites._api_check_log_canonical`, the mean
  over the 105 chains that `suite_log_canonical(4, 4, 4)` samples (the
  chain-certify workload); `certificate_us`: one
  `convexity.log_canonical_certificate` on those chains; `elimination_us`:
  the two `oracles.h_chain_by_elimination` calls of one such replay, on the
  certificate's two chain bundles
- `concavity_replay_us`: one `suites._api_check_concavity_instance`, the
  mean over the length-3 replays of `suite_weak_concavity(4, 4, 1, 3)` (the
  chain-sweep workload's concavity call)
- `log_canonical_count_ms`: `suite_log_canonical(4, 4, 6)` (criterion 6)
  with its replay check stubbed as for the recorded arguments above, so the
  subtree counting and the descents alone
- `bundle_sweep_count_ms`: the chain-sweep workload's two calls,
  `suite_weak_convexity(4, 4, 3, 3)` and `suite_weak_concavity(4, 4, 1, 3)`,
  with their replay checks stubbed in the same way: the tables, the counting
  and the descents to the replays
- `comp_tables_ms`: the `suites._CompTables` of every component of
  criterion 5's default grid (`suite_weak_concavity()`: component_family(4, 4),
  -8 <= d <= 8, both fold sides)
- `h_chain_us`: `cohomology.h_chain` on the 100-piece chain bundle, drawn by
  perfbench's chain maker at seed 1
- `component_build_us`: one `curves.TwistedComponent`, the mean over the
  55 components of `suites.component_family(4, 4)`
- `parse_table_us`: one `cli.parse_table`, the mean over the api-queries
  workload's 50 `series-verify` documents
- `long_chain_query_us`: one `cli.main(["--json", "cohomology"])` with the
  document piped in, the mean over the api-queries workload's 20 documents
  of 100 pieces

Each figure is the median of 21 rounds; a round times a loop long enough to
last a few milliseconds.  The output is one JSON object: a figure's median
alone, or with --parent {"change": median, "parent": median, "ratio":
change / parent}; an input size alone, or {"change": n, "parent": n}.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ROUNDS = 21
MODULES = ("bundles", "cli", "cohomology", "convexity", "curves", "foundation", "oracles", "series", "suites", "wps")


def _package(src: Path, name: str) -> SimpleNamespace:
    """The modules of the `orbicurve` package under `src`, imported as package `name`."""
    init = src / "orbicurve" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def _replay_args(suites, name: str, suite, **kwargs) -> list[tuple]:
    """The argument tuples of every replay `suite(**kwargs)` makes through `suites.<name>`, in order."""
    recorded = []
    check = getattr(suites, name)
    setattr(suites, name, lambda *args: recorded.append(args))
    try:
        suite(**kwargs, workers=1)
    finally:
        setattr(suites, name, check)
    return recorded


def _loop(fn, loops: int, unit: float = 1e6):
    """A round: fn() `loops` times, returning the time of one call in microseconds (or 1/unit s)."""
    def run() -> float:
        t = time.perf_counter()
        for _ in range(loops):
            fn()
        return (time.perf_counter() - t) / loops * unit
    return run


def _fresh(make, fn, loops: int, unit: float = 1e6):
    """A round: fn(make()) `loops` times, each on a fresh make() that is not
    timed, returning the time of one fn call in microseconds (or 1/unit s)."""
    def run() -> float:
        total = 0.0
        for _ in range(loops):
            x = make()
            t = time.perf_counter()
            fn(x)
            total += time.perf_counter() - t
        return total / loops * unit
    return run


def _mean(fn, items: list):
    """A round: fn(item) over `items`, returning the mean time of one call in microseconds."""
    return _loop(lambda: [fn(item) for item in items], 1, 1e6 / len(items))


def _figures(m: SimpleNamespace) -> tuple[dict, dict]:
    """({figure: round}, {input size: count}) of one tree's modules."""
    import workloads

    series, suites, wps = m.series, m.suites, m.wps
    tables = workloads.seeded_tables(m, random.Random(SEED), 150, max_truncation=4, max_classes=2, max_a=2)
    model, n, table = max(tables, key=lambda t: len(t[2].entries))
    rows = wps.pairing_rows(model, "ct", series.compact_type_basis(model))
    x, y = m.foundation.PhasedScalar({F(1, 3): F(2, 5)}), m.foundation.PhasedScalar({F(3, 4): F(-7, 6)})

    log_can = _replay_args(
        suites, "_api_check_log_canonical", suites.suite_log_canonical, max_ab=4, max_l=4, max_len=4
    )
    certs = [m.convexity.log_canonical_certificate(m.curves.CurveChain(comps)) for comps, _ in log_can]
    concave = [
        args
        for args in _replay_args(
            suites, "_api_check_concavity_instance", suites.suite_weak_concavity, max_ab=4, max_l=4, max_d=1, max_len=3
        )
        if len(args[0]) == 3
    ]
    concavity_folds = (suites._CONVEX_SIDE, suites._DUAL_SIDE)
    idx, (pieces,) = workloads._ChainMaker(m, random.Random(SEED)).chain(100)
    comps = [m.curves.TwistedComponent(*suites.component_family(4, 4)[i]) for i in idx]
    chain_bundle = m.bundles.ChainBundle(
        m.curves.CurveChain(tuple(comps)),
        tuple(m.bundles.EqLineBundle(comp, *piece) for comp, piece in zip(comps, pieces)),
    )

    with tempfile.TemporaryDirectory() as workdir:
        queries = workloads.ApiQueries().setup(m, SEED, "full", workdir)
        table_docs = [json.loads(Path(q.argv[-1]).read_text()) for q in queries if q.kind == "series"]
    family = suites.component_family(4, 4)
    long_chains = [q.stdin for q in queries if q.kind == "cohomology" and len(json.loads(q.stdin)["chain"]) == 100]

    def query(text):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                m.cli.main(["--json", "cohomology"])
        finally:
            sys.stdin = stdin

    def state_models():
        return list(suites.wps_model_family(max_n=4, max_w=3, max_k=3))

    def fresh_tables():
        models = {t_m: wps.WPSModel(t_m.weights, t_m.bundle_degrees) for t_m, _, _ in tables}
        return [(models[t_m], t_n, t) for t_m, t_n, t in tables]

    def all_checks(fresh):
        for t_m, t_n, t in fresh:
            series.verify_qsd_operator_identity(t, t_m, t_n)

    def pairing_models(models):
        for pm in models:
            wps.verify_pairing_comparison(pm)
            wps.verify_delta_iso_dims(pm)

    def sector_walk(models):
        for pm in models:
            pm.sectors

    def log_canonical_count():
        check = "_api_check_log_canonical"
        return _replay_args(suites, check, suites.suite_log_canonical, max_ab=4, max_l=4, max_len=6)

    def bundle_sweep_count():
        for check, suite, max_d in (
            ("_api_check_convexity_instance", suites.suite_weak_convexity, 3),
            ("_api_check_concavity_instance", suites.suite_weak_concavity, 1),
        ):
            _replay_args(suites, check, suite, max_ab=4, max_l=4, max_d=max_d, max_len=3)

    def comp_tables():
        return [suites._CompTables(c, range(-8, 9), concavity_folds) for c in suites.component_family(4, 4)]

    elimination = m.oracles.h_chain_by_elimination
    figures = {
        "phased_mul_us": _loop(lambda: x * y, 20000),
        "phased_add_us": _loop(lambda: x + y, 20000),
        "build_L_us": _loop(lambda: series.build_L(table, rows, n), 20),
        "operator_check_us": _loop(lambda: series.verify_qsd_operator_identity(table, model, n), 5),
        "operator_checks_ms": _fresh(fresh_tables, all_checks, 1, 1e3),
        "pairing_comparison_us": _fresh(lambda: wps.WPSModel((1, 2, 3), (1, 2)), wps.verify_pairing_comparison, 50),
        "pairing_models_ms": _fresh(state_models, pairing_models, 1, 1e3),
        "sector_walk_ms": _fresh(state_models, sector_walk, 1, 1e3),
        "age_sum_ms": _loop(suites.suite_age_sum, 1, 1e3),
        "log_canonical_replay_us": _mean(lambda args: suites._api_check_log_canonical(*args), log_can),
        "certificate_us": _mean(lambda cert: m.convexity.log_canonical_certificate(cert.log_canonical.chain), certs),
        "elimination_us": _mean(lambda cert: (elimination(cert.log_canonical), elimination(cert.omega_x2)), certs),
        "concavity_replay_us": _mean(lambda args: suites._api_check_concavity_instance(*args), concave),
        "log_canonical_count_ms": _loop(log_canonical_count, 1, 1e3),
        "bundle_sweep_count_ms": _loop(bundle_sweep_count, 1, 1e3),
        "comp_tables_ms": _loop(comp_tables, 1, 1e3),
        "h_chain_us": _loop(lambda: m.cohomology.h_chain(chain_bundle), 20),
        "component_build_us": _loop(lambda: [m.curves.TwistedComponent(*args) for args in family], 40, 1e6 / len(family)),
        "parse_table_us": _mean(lambda doc: m.cli.parse_table(doc, doc["table"]["dim"]), table_docs),
        "long_chain_query_us": _mean(query, long_chains),
    }
    sizes = {
        "largest_table_entries": len(table.entries),
        "pairing_models": len(state_models()),
        "log_canonical_replays": len(log_can),
        "concavity_replays": len(concave),
        "components": len(family),
        "table_documents": len(table_docs),
        "long_chain_documents": len(long_chains),
    }
    return figures, sizes


def _rounded(value):
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return round(value, 3) if isinstance(value, float) else value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="DIR", help="the src/ directory of the tree to compare against")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    packages = [(ROOT / "src", "orbicurve")] + ([(Path(args.parent), "orbicurve_parent")] if args.parent else [])
    trees = [_figures(_package(src, name)) for src, name in packages]
    times: list[dict] = [{name: [] for name in figures} for figures, _ in trees]
    for r in range(ROUNDS):
        order = list(zip(trees, times))
        for name in times[0]:
            for (figures, _), tree_times in order if r % 2 == 0 else order[::-1]:
                tree_times[name].append(figures[name]())
    medians = [{name: statistics.median(t) for name, t in tree_times.items()} for tree_times in times]
    if args.parent:
        change, parent = medians
        sizes, parent_sizes = (sizes for _, sizes in trees)
        out = {name: {"change": t, "parent": parent[name], "ratio": t / parent[name]} for name, t in change.items()}
        out.update({name: {"change": n, "parent": parent_sizes[name]} for name, n in sizes.items()})
    else:
        out = {**medians[0], **trees[0][1]}
    print(json.dumps(_rounded(out)))


if __name__ == "__main__":
    main()
