"""The benchmark's own tests, at tiny sizes.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *, seed=5, trace=0, extra=(), cwd=ROOT, seconds=1):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", "tiny", *extra,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, meta


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced tiny run of every workload, same seed."""
    return {
        (workload, trace): parse(run(workload, trace=trace))
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(runs, workload):
    for trace in (0, 1):
        result, meta = runs[workload, trace]
        assert result["correct"], meta["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        for field in ("nproc", "numpy", "python", "blas", "dtype", "workers", "executor", "why"):
            assert field in meta


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(runs, workload, trace, section):
    """Every workload prints every metric of its section, in its unit."""
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    metrics = runs[workload, trace][0]["metrics"]
    assert list(metrics) == list(declared)
    for name, value in metrics.items():
        assert value["unit"] == declared[name], name
        assert math.isfinite(value["value"]), name
        if section == "end_to_end":
            assert value["value"] > 0, name


@pytest.mark.parametrize(
    "workload, layers",
    [
        ("bgf-stream", ("bgf.", "analog.", "ising.", "datasets.")),
        ("gs-ais", ("gs.", "ais.", "parallel.", "ising.", "datasets.")),
        ("serve-open", ("serve.",)),
    ],
)
def test_traced_run_measures_its_own_layers(runs, workload, layers):
    """A 0 stands only for a layer the workload does not run."""
    metrics = runs[workload, 1][0]["metrics"]
    own = [name for name in metrics if name.startswith(layers)]
    assert own
    for name in own:
        assert metrics[name]["value"] != 0 or name == "parallel.shard_wait_ms", name


@pytest.mark.parametrize("workload", ["bgf-stream", "gs-ais"])
def test_tracing_changes_no_sampled_bit(runs, workload):
    """Exact counts and recon MSEs agree between the traced and untraced
    runs of one seed, and repeat in a second untraced run."""
    untraced = runs[workload, 0][1]["exact"]
    traced_result, traced_meta = runs[workload, 1]
    assert traced_meta["exact"] == untraced
    assert parse(run(workload))[1]["exact"] == untraced
    layer = traced_result["metrics"]
    for name, value in layer.items():
        if name in untraced:
            assert value["value"] == pytest.approx(untraced[name], rel=1e-12), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_wall_clock(runs, workload):
    metrics = {k: v["value"] for k, v in runs[workload, 1][0]["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.startswith("self_ms."))
    assert layers + metrics["unaccounted_ms"] == pytest.approx(metrics["wall_ms"], abs=1e-3)


def test_wrong_scorer_fails_serve_open():
    result, meta = parse(run("serve-open", extra=("--fault", "wrong-scorer")))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = run("bgf-stream", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
