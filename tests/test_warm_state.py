"""Tests for warm-state reuse (``repro.sim.warmstate``).

The load-bearing property: warm-state reuse is a pure redundancy
elimination. Sweep rows must be byte-identical to rows built from one
direct, cache-free simulation per cell — serial or parallel, and
composed with per-cell checkpointing and journal resume.
The cache itself must treat anything unverifiable as a miss, never an
error.
"""

import json
import pickle

import pytest

from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, inorder_system, simulate
from repro.sim.experiment import TraceCache, run_app
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import (SweepSpec, _result_row, _system_for, grid_cells,
                             run_sweep)
from repro.sim.warmstate import WarmStateCache, warm_cache_for
from repro.workloads import generate_trace


@pytest.fixture
def trace():
    return generate_trace("gamess", 1200, seed=7)


def spec_small():
    return SweepSpec(apps=["gamess"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]},
                     seeds=[0],
                     baseline="base")


def rows_blob(rows):
    return json.dumps(rows, sort_keys=True, default=str)


# ---------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------

def test_state_store_fetch_round_trip(trace, tmp_path):
    cache = WarmStateCache(tmp_path)
    system = inorder_system(BASELINE_L1)
    assert cache.fetch(trace, system) is None  # cold
    cold = simulate(trace, system, warm_state=cache)
    assert cache.stores >= 1
    payload = cache.fetch(trace, system)
    assert payload is not None
    assert payload["position"] == len(trace)
    # A warm re-run restores the snapshot and reproduces the result.
    hits = cache.hits
    warm = simulate(trace, inorder_system(BASELINE_L1), warm_state=cache)
    assert cache.hits > hits
    assert warm.ipc == cold.ipc
    # A sibling cache over the same directory sees the published file.
    twin = WarmStateCache(tmp_path)
    assert twin.fetch(trace, system) is not None


def test_result_store_fetch_round_trip(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    result = simulate(trace, system)
    cache = WarmStateCache(tmp_path)
    assert cache.fetch_result(trace, system) is None
    cache.store_result(trace, system, result)
    assert cache.fetch_result(trace, system) is result
    twin = WarmStateCache(tmp_path)
    got = twin.fetch_result(trace, system)
    assert got is not None and got.ipc == result.ipc


def test_corrupt_published_files_are_misses(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    cache = WarmStateCache(tmp_path)
    result = simulate(trace, system, warm_state=cache)
    cache.store_result(trace, system, result)
    for path in tmp_path.iterdir():
        path.write_bytes(b"\x00 not a snapshot \x00")
    fresh = WarmStateCache(tmp_path)
    assert fresh.fetch(trace, system) is None
    assert fresh.fetch_result(trace, system) is None


def test_clear_drops_memory_not_files(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    cache = WarmStateCache(tmp_path)
    simulate(trace, system, warm_state=cache)
    cache.clear()
    assert cache.fetch(trace, system) is not None  # re-read from disk


def test_warm_cache_for_memoizes_per_directory(tmp_path):
    assert warm_cache_for(tmp_path) is warm_cache_for(tmp_path)
    assert warm_cache_for(tmp_path) is not warm_cache_for(tmp_path / "x")


def test_core_kinds_do_not_share_warm_entries(trace, tmp_path):
    """ooo and ooo-detailed share a generated system name but snapshot
    incompatible core state; the cache key must keep them apart.

    Regression: a `--cores ooo,ooo-detailed` sweep warmed the detailed
    cells from the plain-ooo snapshot and every detailed cell died in
    ``DetailedOooCore.load_state_dict`` (KeyError: 'index')."""
    from dataclasses import replace
    from repro.sim import ooo_system
    ooo = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    detailed = replace(ooo, core="ooo-detailed")
    assert ooo.name == detailed.name  # the collision this test pins
    cache = WarmStateCache(tmp_path)
    plain = simulate(trace, ooo, warm_state=cache)
    assert cache.fetch(trace, detailed) is None
    cold = simulate(trace, detailed)
    warm = simulate(trace, detailed, warm_state=cache)
    assert warm.cycles == cold.cycles
    assert warm.cycles != plain.cycles  # detailed model really ran


# ---------------------------------------------------------------------
# End-to-end identity: warm reuse must not change a single byte
# ---------------------------------------------------------------------

def cold_rows(spec, n_accesses):
    """The grid's rows from one direct ``run_app`` per cell and per
    normalization run, with no warm cache anywhere — the reference
    every warm-reusing sweep must match byte for byte."""
    traces = TraceCache()
    rows = []
    for _key, app, name, cfg, core, condition, seed in grid_cells(spec):
        def run(l1):
            return run_app(app, _system_for(core, l1), condition=condition,
                           n_accesses=n_accesses, seed=seed, cache=traces)
        base = run(spec.configs[spec.baseline])
        rows.append({**_result_row(app, name, core, condition, seed,
                                   run(cfg), base),
                     "status": "ok", "error": ""})
    return rows


def test_serial_rows_identical_warm_on_off():
    want = cold_rows(spec_small(), 600)
    got = run_sweep(spec_small(), n_accesses=600, traces=TraceCache())
    assert rows_blob(got) == rows_blob(want)


def test_parallel_rows_identical_warm_on_off(tmp_path):
    want = cold_rows(spec_small(), 600)
    got = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                    runner=ResilientRunner(jobs=2, checkpoint_dir=tmp_path))
    assert rows_blob(got) == rows_blob(want)


def test_warm_rows_identical_under_checkpoint_every(tmp_path):
    want = cold_rows(spec_small(), 600)
    runner = ResilientRunner(jobs=2, checkpoint_dir=tmp_path)
    got = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                    runner=runner, checkpoint_every=200)
    assert rows_blob(got) == rows_blob(want)


def test_warm_rows_identical_under_resume(tmp_path):
    spec = spec_small()
    want = cold_rows(spec, 600)
    journal = tmp_path / "journal.jsonl"
    first = ResilientRunner(jobs=2, journal=journal,
                            checkpoint_dir=tmp_path / "c1")
    run_sweep(spec, n_accesses=600, traces=TraceCache(), runner=first)
    # Drop the last journal record so the resume has real work to do.
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:-1]) + "\n")
    resumed = ResilientRunner(jobs=2, journal=journal,
                              resume_from=journal,
                              checkpoint_dir=tmp_path / "c2")
    got = run_sweep(spec, n_accesses=600, traces=TraceCache(),
                    runner=resumed)
    assert rows_blob(got) == rows_blob(want)
