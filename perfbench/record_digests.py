#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current sources.

    python3 perfbench/record_digests.py [SEEDS]      # SEEDS like 0-31 (default)

For each seed it sets up api-queries and state-space and runs one pass: the
api-queries digest is the SHA-256 of every query's exit code and JSON
output, and the state-space figure is the number of coefficient checks.  A
run of the benchmark on a recorded seed compares its own figure with these.
Run it only when the program's output is meant to change, and say so.
"""
from __future__ import annotations

import json
import os
import sys

import run


def main(argv: list[str]) -> int:
    lo, _, hi = (argv[0] if argv else "0-31").partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, str(run.SRC))
    out = {}
    for name in ("api-queries", "state-space"):
        wl = run.workloads.WORKLOADS[name]
        out[name] = {"full": {}}
        for seed in seeds:
            harness = run.Harness(wl, seed, "full", 1, run.OUT / f"work-{os.getpid()}")
            try:
                harness.set_up()
                p = harness.run_pass()
            finally:
                harness.close()
            if p.failed:
                print(f"{name} seed {seed}: {p.errors}", file=sys.stderr)
                return 1
            out[name]["full"][str(seed)] = p.digest
            print(name, seed, p.digest)
    (run.HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
