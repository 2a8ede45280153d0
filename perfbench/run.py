#!/usr/bin/env python3
"""Run one benchmark workload against the `orbicurve` sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of chain-sweep, chain-certify, state-space, api-queries, or
`all` (each workload in its own process, one after the other).  The run
sets up SETUPS times (import of the package plus input generation from the
seed), runs one unmeasured warm-up pass, and then runs passes for about S
seconds, each on a fresh set-up; `setup_s` is the median set-up.  A pass is
the workload's frozen set of units, and every answer in it is checked.
With --trace 1 the first third of the time runs untraced and the rest with
the layer wrappers of tracing.py installed; the per-layer figures come from
the traced passes.  README.md in this directory defines every metric.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every answer was correct, 1 on any correctness miss, and 2 when the
package cannot be found.  A record of the run, with the environment, goes to
perfbench/out/, and with --trace 1 so do the spans of the first traced pass.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}
# Printed and recorded but left out of the result line and BENCHMARK.json: on
# the chain workloads a latency sample is a whole pass, so p99 is the slowest
# of a few dozen passes, which no bound can hold steady on a shared machine.
UNREPORTED = ("latency_p99_ms",)

SELF_NAMES = (
    "cli.validate_document",
    "cohomology.h_chain",
    "cohomology.h0_component",
    "linalg.mat_rank",
    "linalg.mat_inverse",
    "foundation.PhasedScalar.__mul__",
    "wps.verify_pairing_comparison",
    "wps.verify_delta_iso_dims",
    "series.build_L",
    "series.substitute_novikov",
    "series.verify_qsd_operator_identity",
    "convexity.log_canonical_certificate",
)
CALL_NAMES = (
    "cohomology.h0_component",
    "foundation.PhasedScalar.__mul__",
    "foundation.Phase.__mul__",
    "wps.sector_at",
    "convexity.log_canonical_certificate",
)


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for m in tracing.MODULES:
        units[f"{m}.calls"] = "count"
        units[f"{m}.self_s"] = "s"
    for name in SELF_NAMES:
        units[f"{name}.self_s"] = "s"
    for name in CALL_NAMES:
        units[f"{name}.calls"] = "count"
    units.update({
        "linalg.mat_rank.cells": "count",
        "suites.h0_cache.hit_ratio": "ratio",
        "suites.h1_cache.hit_ratio": "ratio",
        "suites.replays": "count",
        "suites.replay_ratio": "ratio",
        "suites.pool.workers": "count",
        "suites.pool.utilization": "ratio",
        "wps.pairing_checks": "count",
        "series.coefficient_checks": "count",
        "trace.worker_spans": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------


def import_package() -> SimpleNamespace:
    """Import `orbicurve` afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "orbicurve" or n.startswith("orbicurve.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"orbicurve.{m}") for m in tracing.MODULES}
    )
    found = Path(sys.modules["orbicurve"].__file__).resolve().parent
    if found != (SRC / "orbicurve").resolve():
        raise ImportError(f"orbicurve was imported from {found}, not from {SRC}")
    return mods


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


def environment(seed: int, workers: int, size: str, seconds: int) -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((SRC / "orbicurve").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    n = nproc()
    return {
        "python": platform.python_version(),
        "nproc": n,
        "workers": workers,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "note": f"{n} cores: no wall-clock scaling beyond {n} workers is measured",
    }


def recorded(workload: str, size: str, seed: int) -> str | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(size, {}).get(str(seed))


# ---------------------------------------------------------------------------


class Harness:
    """One workload's inputs, set up afresh on demand, and its passes.

    Every time measured here is stated at the nominal speed of the machine
    through `self.clock` (see workloads.SpeedReference).
    """

    def __init__(self, wl, seed: int, size: str, workers: int, workdir: Path):
        self.wl, self.seed, self.size, self.workers, self.workdir = wl, seed, size, workers, workdir
        self.clock = workloads.SpeedReference()
        self.setups: list[tuple[float, float]] = []  # (start, seconds)
        self.spans: list | None = None  # of the first traced pass

    def set_up(self) -> None:
        """Import the package afresh and build the inputs from the seed."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for f in self.workdir.iterdir():
            f.unlink()
        self.mods = self.inputs = None
        gc.unfreeze()
        gc.collect()  # free the previous import, so memory does not grow with set-ups
        self.clock.tick(force=True)
        t0 = time.perf_counter()
        self.mods = import_package()
        self.inputs = self.wl.setup(self.mods, self.seed, self.size, str(self.workdir))
        self.setups.append((t0, time.perf_counter() - t0))
        self.clock.tick(force=True)
        # The package, the inputs and the run's records stay alive all run; in
        # a one-shot CLI process they would not burden the collector.  Freezing
        # them keeps full collections at the cost they have there.
        gc.collect()
        gc.freeze()

    def run_pass(self, tracer=None):
        if tracer is not None:
            tracer.reset()
        c0, t0 = workloads.cpu_seconds(), time.perf_counter()
        p = self.wl.run_pass(self.mods, self.inputs, tracer, self.workers, self.clock)
        p.wall_s, p.cpu_s = time.perf_counter() - t0, workloads.cpu_seconds() - c0
        if tracer is not None:
            p.trace = tracer.snapshot()
            if self.spans is None:
                self.spans = tracer.spans
        return p

    def run_passes(self, budget: float, tracer=None, fresh: bool = False) -> list:
        """Passes until the next one would end after `budget` seconds (at least one).

        With `fresh`, each pass runs on a new set-up, so that the set-up
        times are spread over the run as the passes are.
        """
        passes = []
        started = time.perf_counter()
        while True:
            if fresh:
                self.set_up()
            passes.append(self.run_pass(tracer))
            typical = statistics.median(x.wall_s for x in passes)
            if time.perf_counter() - started + typical > budget:
                return passes

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.clock.factor(start, start + seconds)

    def unit_walls(self, p) -> list[float]:
        return [self.scaled(start, wall) for start, wall, _ in p.units]

    def pass_wall(self, p) -> float:
        return sum(self.unit_walls(p))

    def pass_cpu(self, p) -> float:
        return sum(cpu * self.clock.factor(start, start + wall) for start, wall, cpu in p.units)

    def close(self) -> None:
        if self.workdir.is_dir():
            for f in self.workdir.iterdir():
                f.unlink()
            self.workdir.rmdir()


def latency_samples(harness: Harness, passes: list) -> list[float]:
    """Seconds per unit, pooled over passes.

    The suite workloads run one or two long units a pass; there a sample is
    the whole pass.
    """
    if harness.wl.runs_suites:
        return [harness.pass_wall(p) for p in passes]
    return [x for p in passes for x in harness.unit_walls(p)]


def end_to_end(harness: Harness, passes: list) -> dict:
    """End-to-end figures of the measured passes, at nominal machine speed.

    `wall_s` and `cpu_s` are per-pass medians of the time spent in the
    pass's units.
    """
    lat = sorted(latency_samples(harness, passes))
    wall = statistics.median(harness.pass_wall(p) for p in passes)
    return {
        "setup_s": statistics.median(harness.scaled(t0, dt) for t0, dt in harness.setups),
        "wall_s": wall,
        "instances_per_s": statistics.median(p.attempted - p.failed for p in passes) / wall,
        "cpu_s": statistics.median(harness.pass_cpu(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
    }


def raw_figures(harness: Harness, passes: list) -> dict:
    """The same times as measured, before scaling to nominal speed."""
    return {
        "setup_s": statistics.median(dt for _, dt in harness.setups),
        "wall_s": statistics.median(sum(w for _, w, _ in p.units) for p in passes),
        "cpu_s": statistics.median(sum(c for _, _, c in p.units) for p in passes),
        "speed_factor": statistics.median(workloads.SpeedReference.NOMINAL_S / t for t in harness.clock.times),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(p, wl, workers: int) -> dict:
    """Per-layer figures of one traced pass."""
    calls, self_s = p.trace["calls"], p.trace["self_s"]
    out = {}
    for m in tracing.MODULES:
        out[f"{m}.calls"] = sum(v for k, v in calls.items() if k.split(".", 1)[0] == m)
        out[f"{m}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == m)
    for name in SELF_NAMES:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALL_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
    cache = Counter({k: v for k, v in {**p.counters, **p.stats}.items() if k.startswith(("h0.", "h1."))})
    cache.update(p.trace["worker_cache"])
    pooled = wl.runs_suites
    instances, sampled = p.stats.get("instances", 0), p.stats.get("sampled", 0)
    out.update({
        "linalg.mat_rank.cells": p.trace["cells"],
        "suites.h0_cache.hit_ratio": _ratio(cache["h0.hits"], cache["h0.hits"] + cache["h0.misses"]),
        "suites.h1_cache.hit_ratio": _ratio(cache["h1.hits"], cache["h1.hits"] + cache["h1.misses"]),
        "suites.replays": sampled,
        "suites.replay_ratio": _ratio(sampled, instances),
        "suites.pool.workers": workers if pooled else 0,
        "suites.pool.utilization": _ratio(p.cpu_s, p.wall_s * workers) if pooled else 0.0,
        "wps.pairing_checks": p.counters.get("pairing_checks", 0),
        "series.coefficient_checks": p.counters.get("coefficient_checks", 0),
        "trace.worker_spans": p.trace["worker_spans"],
    })
    return out


def check_passes(passes: list, wl_name: str, size: str, seed: int) -> list[str]:
    """Counters and digests must repeat pass to pass, and match the record."""
    problems = []
    first = passes[0]
    for n, p in enumerate(passes[1:], 1):
        if p.counters != first.counters:
            problems.append(f"pass {n} counters {p.counters} differ from pass 0 {first.counters}")
        if p.digest != first.digest:
            problems.append(f"pass {n} output digest differs from pass 0")
    want = recorded(wl_name, size, seed)
    if want is not None and first.digest != want:
        problems.append(f"output digest {first.digest} differs from the one recorded for seed {seed}")
    return problems


def run_workload(name: str, seed: int, seconds: int, traced: bool, size: str) -> int:
    wl = workloads.WORKLOADS[name]
    workers = wl.workers(nproc())
    harness = Harness(wl, seed, size, workers, OUT / f"work-{os.getpid()}")
    try:
        for _ in range(SETUPS):
            harness.set_up()
        # one checked pass that is not measured: the process warms up (allocator
        # arenas, first fork of the pool) before the timed section
        warm = [harness.run_pass()]
        plain = harness.run_passes(seconds / 3 if traced else seconds, fresh=True)
        traced_passes = []
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_passes = harness.run_passes(seconds - sum(p.wall_s for p in plain), tracer)
            finally:
                tracer.uninstall()
        passes = warm + plain + traced_passes
    finally:
        harness.close()

    problems = check_passes(passes, name, size, seed)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(problems)
    errors = problems + [e for p in passes for e in p.errors]
    env = environment(seed, workers, size, seconds)
    e2e = end_to_end(harness, plain)
    raw = raw_figures(harness, plain)
    units = dict(E2E_UNITS)
    metrics = {k: v for k, v in e2e.items() if k not in UNREPORTED}
    if traced:
        layers = [per_layer(p, wl, workers) for p in traced_passes]
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["trace.overhead_ratio"] = statistics.median(
            harness.pass_wall(p) for p in traced_passes
        ) / e2e["wall_s"]
        units = layer_units()
    samples = len(latency_samples(harness, plain))

    print(f"perfbench {name} seed={seed} trace={int(traced)} size={size} passes={len(passes)}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in e2e.items():
        print(f"  {key:<40} {value:.6g} {E2E_UNITS[key]}")
    print(f"  {'error_rate':<40} {failed / attempted if attempted else 0:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(f"  {'latency samples':<40} {samples} over {len(plain)} passes")
    print("raw (as measured, before scaling to nominal speed) " + json.dumps(raw, sort_keys=True))
    if traced:
        for key, value in metrics.items():
            print(f"  {key:<40} {value:.6g} {units[key]}")
    for e in errors[:10]:
        print("ERROR " + e.replace("\n", " | "))

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}{'-smoke' if size == 'smoke' else ''}"
    record = {
        "env": env,
        "end_to_end": e2e,
        "raw": raw,
        "error_rate": failed / attempted if attempted else 0.0,
        "latency_samples": samples,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:50],
        "passes": [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "nominal_wall_s": harness.pass_wall(p),
             "traced": p.trace is not None,
             "counters": p.counters, "stats": p.stats, "digest": p.digest}
            for p in passes
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            fh.write(json.dumps({"dropped_after": tracer.max_spans, "fields":
                                 ["id", "parent", "name", "start_ns", "end_ns", "unit"]}) + "\n")
            for span in harness.spans:
                fh.write(json.dumps(span) + "\n")

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; the last line sums them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        try:
            last = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds, for a quick check")
    args = parser.parse_args(argv)
    if not (SRC / "orbicurve" / "__init__.py").is_file():
        print(f"perfbench: no orbicurve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        "smoke" if args.smoke else "full")


if __name__ == "__main__":
    sys.exit(main())
