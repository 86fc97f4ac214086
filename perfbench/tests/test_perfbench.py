"""The benchmark's own tests, at tiny sizes.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import job  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from grids import WORKLOADS, grid_for  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_every_named_metric(workload, trace):
    result = _bench(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    names = {metric["name"] for metric in SPEC[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * grid_for(workload).cells()
    units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name]
        assert isinstance(value["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


def _tiny_job(tmp_path: Path, workload: str, *extra) -> dict:
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, str(HERE / "job.py"), "--workload",
                    workload, "--seed", "3", "--scale", str(TINY),
                    "--work", str(tmp_path / "work"), "--out", str(out),
                    *extra], check=True, timeout=300)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", ["cell-cold", "multicore-mix"])
def test_gate_fails_on_a_perturbed_row(tmp_path, workload):
    grid = grid_for(workload, TINY)
    reference = oracle.run_oracle(workload, 3, TINY, tmp_path / "oracle")
    result = _tiny_job(tmp_path, workload)
    text = oracle.read_output(result["output"])
    assert oracle.failed_cells(grid, text, reference) == 0
    lines = text.split("\r\n" if grid.kind == "sweep" else "\n")
    row = 2   # a data row (sweeps) / the third core line (multicore)
    assert "0." in lines[row]
    lines[row] = lines[row].replace("0.", "0.9", 1)
    perturbed = ("\r\n" if grid.kind == "sweep" else "\n").join(lines)
    assert oracle.failed_cells(grid, perturbed, reference) == 1


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    probe = tracer.install(tmp_path)
    patched = list(probe.patched)
    wrapped = {(id(o), a): o.__dict__[a] for o, a in patched}
    probe.uninstall()
    originals = {(id(o), a): o.__dict__[a] for o, a in patched}
    assert all(wrapped[k] is not originals[k] for k in originals)
    assert job.main(["--workload", "cell-cold", "--seed", "3", "--scale",
                     str(TINY), "--work", str(tmp_path / "work"), "--out",
                     str(tmp_path / "result.json"), "--trace"]) == 0
    layers = json.loads((tmp_path / "result.json").read_text())["layers"]
    assert layers["kernel.make_engine.calls"] > 0
    for owner, attr in patched:
        assert owner.__dict__[attr] is originals[(id(owner), attr)]


def test_cpu_counts_pool_workers(tmp_path):
    result = _tiny_job(tmp_path, "geometry-sweep")
    assert result["cpu_workers_s"] > 0
    assert result["cpu_s"] > result["cpu_workers_s"]
