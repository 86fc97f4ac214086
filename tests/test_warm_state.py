"""Tests for warm-state reuse (``repro.sim.warmstate``).

The load-bearing property: warm-state reuse is a pure redundancy
elimination. Sweep rows must be byte-identical to rows built from one
direct, cache-free simulation per cell — serial or parallel, and
composed with per-cell checkpointing and journal resume.
The cache itself must treat anything unverifiable as a miss, never an
error.
"""

import json
from pathlib import Path

import pytest

from repro.sim import BASELINE_L1, SIPT_GEOMETRIES, inorder_system, simulate
from repro.sim.experiment import TraceCache, run_app
from repro.sim.resilience import ResilientRunner
from repro.sim.sweep import (SweepSpec, _result_row, _system_for, grid_cells,
                             run_sweep)
from repro.sim.warmstate import WarmStateCache, drop_warm_cache, \
    warm_cache_for
from repro.store import ResultStore
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

def store_cache(root):
    """A cache whose tiers are memory, then a result store at ``root``."""
    return WarmStateCache(store=ResultStore(root))


def test_state_store_fetch_round_trip(trace, tmp_path):
    cache = store_cache(tmp_path)
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
    # A sibling cache over the same store sees the published entry.
    twin = store_cache(tmp_path)
    assert twin.fetch(trace, system) is not None


def test_result_store_fetch_round_trip(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    result = simulate(trace, system)
    cache = store_cache(tmp_path)
    assert cache.fetch_result(trace, system) is None
    cache.store_result(trace, system, result)
    assert cache.fetch_result(trace, system) is result
    twin = store_cache(tmp_path)
    got = twin.fetch_result(trace, system)
    assert got is not None and got.ipc == result.ipc


def test_corrupt_published_files_are_misses(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    cache = store_cache(tmp_path)
    result = simulate(trace, system, warm_state=cache)
    cache.store_result(trace, system, result)
    entries = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert entries
    for path in entries:
        path.write_bytes(b"\x00 not a snapshot \x00")
    fresh = store_cache(tmp_path)
    assert fresh.fetch(trace, system) is None
    assert fresh.fetch_result(trace, system) is None


def test_clear_drops_memory_not_files(trace, tmp_path):
    system = inorder_system(BASELINE_L1)
    cache = store_cache(tmp_path)
    result = simulate(trace, system, warm_state=cache)
    cache.store_result(trace, system, result)
    cache.clear()
    reads = cache.result_store.hits
    assert cache.fetch(trace, system) is not None  # refetched from store
    assert cache.fetch_result(trace, system) is not None
    assert cache.result_store.hits == reads + 2


def test_warm_cache_for_memoizes_per_directory(tmp_path):
    try:
        assert warm_cache_for(tmp_path) is warm_cache_for(tmp_path)
        assert warm_cache_for(tmp_path) is not warm_cache_for(tmp_path / "x")
        assert warm_cache_for(tmp_path).result_store.root == tmp_path
        # None is the memory-only entry: it never holds a store.
        assert warm_cache_for() is warm_cache_for(None)
        assert warm_cache_for().result_store is None
        # A ResultStore argument keys on its root and backs a new entry
        # with that very instance.
        store = ResultStore(tmp_path / "y")
        assert warm_cache_for(store).result_store is store
        assert warm_cache_for(tmp_path / "y") is warm_cache_for(store)
    finally:
        for root in (tmp_path, tmp_path / "x", tmp_path / "y"):
            drop_warm_cache(root)


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
    cache = store_cache(tmp_path)
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


def test_parallel_storeless_sweep_leaves_no_warm_root(tmp_path,
                                                      monkeypatch):
    """A --jobs 2 sweep without a store warms its workers through a
    sweep-scoped store root; the root and its registry entry are gone
    afterwards, and the CSV matches the serial sweep's."""
    import tempfile
    from repro.sim import warmstate
    from repro.sim.sweep import to_csv
    roots = []
    mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        if kwargs.get("prefix") == "repro-warm-":
            roots.append(path)
        return path
    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    registry = set(warmstate._SHARED)
    rows = run_sweep(spec_small(), n_accesses=600, traces=TraceCache(),
                     runner=ResilientRunner(jobs=2))
    assert len(roots) == 1
    assert not any(Path(root).exists() for root in roots)
    assert set(warmstate._SHARED) <= registry | {None}
    serial = run_sweep(spec_small(), n_accesses=600, traces=TraceCache())
    a = to_csv(rows, tmp_path / "j2.csv")
    b = to_csv(serial, tmp_path / "j1.csv")
    assert a.read_bytes() == b.read_bytes()
