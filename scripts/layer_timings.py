#!/usr/bin/env python3
"""In-process timings of the PhasedScalar and operator-check layers.

    python3 scripts/layer_timings.py [--src DIR]

Imports `orbicurve` from DIR (default: this checkout's `src/`), builds the
state-space workload's 150 operator tables for seed 1 as perfbench does,
and prints one JSON object of median times in microseconds:

- `phased_mul_us`, `phased_add_us`: one product and one sum of two
  one-term PhasedScalars with rational coefficients at conductors 3 and 4
- `build_L_us`: `series.build_L` on the largest of the tables
- `operator_check_us`: `series.verify_qsd_operator_identity` on that table
- `operator_checks_ms`: all 150 operator checks of one pass
- `pairing_comparison_us`: `wps.verify_pairing_comparison` on P(1,2,3)/O(1,2)

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from types import SimpleNamespace

    import workloads
    from orbicurve import series, suites, wps
    from orbicurve.foundation import PhasedScalar
    from orbicurve.wps import WPSModel, pairing_rows

    mods = SimpleNamespace(series=series, suites=suites)
    tables = workloads.seeded_tables(mods, random.Random(SEED), 150, max_truncation=4, max_classes=2, max_a=2)
    model, n, table = max(tables, key=lambda t: len(t[2].entries))
    basis = series.compact_type_basis(model)
    rows = pairing_rows(model, "ct", basis)
    x, y = PhasedScalar({F(1, 3): F(2, 5)}), PhasedScalar({F(3, 4): F(-7, 6)})
    pairing_model = WPSModel((1, 2, 3), (1, 2))

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
        "largest_table_entries": len(table.entries),
    }
    print(json.dumps({k: round(v, 3) for k, v in out.items()}))


if __name__ == "__main__":
    main()
