#!/usr/bin/env python3
"""In-process timings of the PhasedScalar, operator-check and chain-replay layers.

    python3 scripts/layer_timings.py [--src DIR]

Imports `orbicurve` from DIR (default: this checkout's `src/`), builds the
state-space workload's 150 operator tables for seed 1 as perfbench does,
records the replay arguments of two chain suites (below), and prints one
JSON object of median times in microseconds:

- `phased_mul_us`, `phased_add_us`: one product and one sum of two
  one-term PhasedScalars with rational coefficients at conductors 3 and 4
- `build_L_us`: `series.build_L` on the largest of the tables
- `operator_check_us`: `series.verify_qsd_operator_identity` on that table
- `operator_checks_ms`: all 150 operator checks of one pass
- `pairing_comparison_us`: `wps.verify_pairing_comparison` on P(1,2,3)/O(1,2)
- `log_canonical_replay_us`: one `suites._api_check_log_canonical`, the mean
  over the 105 chains that `suite_log_canonical(4, 4, 4)` samples (the
  chain-certify workload); `certificate_us`: one
  `convexity.log_canonical_certificate` on those chains; `elimination_us`:
  the two `oracles.h_chain_by_elimination` calls of one such replay, on the
  certificate's two chain bundles
- `concavity_replay_us`: one `suites._api_check_concavity_instance`, the
  mean over the length-3 replays of `suite_weak_concavity(4, 4, 1, 3)` (the
  chain-sweep workload's concavity call)

Each figure is the median of 15 rounds; a round times a loop long enough to
last a few milliseconds.  Point --src at another checkout's `src/` to time
that tree with the same inputs.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ROUNDS = 15


def _median_us(fn, loops: int) -> float:
    rounds = []
    for _ in range(ROUNDS):
        t = time.perf_counter()
        for _ in range(loops):
            fn()
        rounds.append((time.perf_counter() - t) / loops * 1e6)
    return statistics.median(rounds)


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


def _mean_us(fn, items: list) -> float:
    """The median over rounds of the mean time of fn(item) over `items`."""
    return _median_us(lambda: [fn(item) for item in items], 1) / len(items)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from types import SimpleNamespace

    import workloads
    from orbicurve import convexity, curves, oracles, series, suites, wps
    from orbicurve.foundation import PhasedScalar
    from orbicurve.wps import WPSModel, pairing_rows

    mods = SimpleNamespace(series=series, suites=suites)
    tables = workloads.seeded_tables(mods, random.Random(SEED), 150, max_truncation=4, max_classes=2, max_a=2)
    model, n, table = max(tables, key=lambda t: len(t[2].entries))
    basis = series.compact_type_basis(model)
    rows = pairing_rows(model, "ct", basis)
    x, y = PhasedScalar({F(1, 3): F(2, 5)}), PhasedScalar({F(3, 4): F(-7, 6)})
    pairing_model = WPSModel((1, 2, 3), (1, 2))

    log_can = _replay_args(suites, "_api_check_log_canonical", suites.suite_log_canonical, max_ab=4, max_l=4, max_len=4)
    certs = [convexity.log_canonical_certificate(curves.CurveChain(comps)) for comps, _ in log_can]
    concave = [
        args
        for args in _replay_args(
            suites, "_api_check_concavity_instance", suites.suite_weak_concavity, max_ab=4, max_l=4, max_d=1, max_len=3
        )
        if len(args[0]) == 3
    ]

    def all_checks():
        for m, t_n, t in tables:
            series.verify_qsd_operator_identity(t, m, t_n)

    out = {
        "phased_mul_us": _median_us(lambda: x * y, 20000),
        "phased_add_us": _median_us(lambda: x + y, 20000),
        "build_L_us": _median_us(lambda: series.build_L(table, rows, n), 20),
        "operator_check_us": _median_us(
            lambda: series.verify_qsd_operator_identity(table, model, n), 5
        ),
        "operator_checks_ms": _median_us(all_checks, 1) / 1e3,
        "pairing_comparison_us": _median_us(lambda: wps.verify_pairing_comparison(pairing_model), 50),
        "log_canonical_replay_us": _mean_us(lambda args: suites._api_check_log_canonical(*args), log_can),
        "certificate_us": _mean_us(lambda cert: convexity.log_canonical_certificate(cert.log_canonical.chain), certs),
        "elimination_us": _mean_us(
            lambda cert: (
                oracles.h_chain_by_elimination(cert.log_canonical), oracles.h_chain_by_elimination(cert.omega_x2)
            ),
            certs,
        ),
        "concavity_replay_us": _mean_us(lambda args: suites._api_check_concavity_instance(*args), concave),
        "largest_table_entries": len(table.entries),
        "log_canonical_replays": len(log_can),
        "concavity_replays": len(concave),
    }
    print(json.dumps({k: round(v, 3) for k, v in out.items()}))


if __name__ == "__main__":
    main()
