"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

# Figures that must repeat exactly from run to run of the same code.
EXACT_SUFFIXES = (".calls", ".cells", ".replays", ".pairing_checks", ".coefficient_checks", ".worker_spans")


def _smoke(name: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--smoke",
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    reported = {k: u for k, u in run.E2E_UNITS.items() if k not in run.UNREPORTED}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == reported
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_its_counts_repeat(name):
    code, plain = _smoke(name, 0)
    assert code == 0 and plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == set(run.E2E_UNITS) - set(run.UNREPORTED)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    runs = [_smoke(name, 1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == set(run.layer_units())
    first, second = (r["metrics"] for _, r in runs)
    exact = [k for k in first if k.endswith(EXACT_SUFFIXES)]
    if name == "chain-sweep":  # one process: the cache counts repeat too
        exact += ["suites.h0_cache.hit_ratio", "suites.h1_cache.hit_ratio"]
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}


def test_tracing_finds_the_layers_and_collects_pool_spans():
    _, result = _smoke("chain-certify", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["suites.pool.workers"] == min(2, run.nproc())
    assert m["convexity.log_canonical_certificate.calls"] > 0
    if m["suites.pool.workers"] > 1:
        assert m["trace.worker_spans"] > 0
    _, result = _smoke("state-space", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["foundation.PhasedScalar.__mul__.calls"] > 0 and m["wps.sector_at.calls"] > 0
    assert m["linalg.mat_rank.cells"] > 0 and m["trace.overhead_ratio"] > 0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    sys.path.insert(0, str(run.SRC))
    mods = run.import_package()
    original = mods.linalg.mat_rank
    assert mods.cohomology.mat_rank is original and mods.wps.mat_rank is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mods.cohomology.mat_rank is mods.wps.mat_rank is mods.linalg.mat_rank
        assert mods.linalg.mat_rank is not original
        assert mods.cli.COMMANDS["cohomology"] is mods.cli.cmd_cohomology
        comp = mods.curves.TwistedComponent(1, 1)
        chain = mods.curves.CurveChain((comp, comp))
        mods.cohomology.h_chain(mods.bundles.trivial_chain_bundle(chain))
        snap = tracer.snapshot()
        assert snap["calls"]["cohomology.h_chain"] == 1
        assert snap["calls"]["linalg.mat_rank"] == 1 and snap["cells"] == 1 * 2
        total = (tracer.spans[-1][4] - tracer.spans[-1][3]) / 1e9
        assert 0 < snap["self_s"]["cohomology.h_chain"] < total
    finally:
        tracer.uninstall()
    assert mods.cohomology.mat_rank is original and mods.linalg.mat_rank is original


def test_exits_nonzero_without_the_package():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chain-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)
