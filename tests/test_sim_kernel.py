"""Differential tests for the array-compiled replay kernel.

``repro.sim.kernel`` must be *byte-identical* to the pure-python
replay loop — the python path is its differential oracle. These tests
enforce that on a grid of configurations (geometries, variants, cores
including ``ooo-detailed``, way prediction, memory conditions),
through every chunked-replay shape (interval sampling, checkpointing,
crash/resume), and via hypothesis fuzzes that drive randomized short
traces through all three replay implementations
(``_CoreContext.step``, ``_replay_range``, the kernel) at once —
single-core and randomized multicore trace sets over the shared
LLC/DRAM miss path.

Also covers the kernel's observability satellites: per-reason decline
counters, the ``REPRO_KERNEL_DEBUG`` build-error re-raise, the
LRU-bounded column memo, the O(n) chunked-replay cursor in
``_replay_range``, and the ``ConfigError`` boundary for malformed
integer environment overrides.
"""

import dataclasses
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import SiptVariant
from repro.envutil import env_int
from repro.errors import ConfigError, SimulationError
from repro.sim import (
    BASELINE_L1,
    SIPT_GEOMETRIES,
    TraceCache,
    inorder_system,
    ooo_system,
    run_app,
    simulate,
)
from repro.sim import kernel as kernel_mod
from repro.sim.driver import (
    _CoreContext,
    _replay_range,
    simulate_multicore,
)
from repro.sim.faults import (
    WorkerCrash,
    arm_data_specs,
    arm_fault,
    clear_armed,
    parse_fault,
    poison_predictor,
)
from repro.sim.kernel import decline_counts, make_engine
from repro.workloads.substrate import KernelMemo
from repro.workloads.trace import MemoryCondition

CACHE = TraceCache()
N = 2500


@pytest.fixture(autouse=True)
def _clean_armed_channel():
    clear_armed()
    yield
    clear_armed()


def fingerprint(result):
    """A byte-stable rendering of an entire SimResult."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=str)


def _grid():
    cfg = SIPT_GEOMETRIES["32K_2w"]
    return [
        ("combined", ooo_system(cfg)),
        ("naive", ooo_system(replace(cfg, variant=SiptVariant.NAIVE))),
        ("bypass", ooo_system(replace(cfg, variant=SiptVariant.BYPASS))),
        ("waypred", ooo_system(replace(cfg, way_prediction=True))),
        ("inorder", inorder_system(cfg)),
        ("ooo-detailed", replace(ooo_system(cfg), core="ooo-detailed")),
        ("vipt-baseline", ooo_system(BASELINE_L1)),
        ("64K_4w", ooo_system(SIPT_GEOMETRIES["64K_4w"])),
    ]


# ---------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name,system", _grid(),
                         ids=[name for name, _ in _grid()])
def test_kernel_is_byte_identical_across_grid(name, system):
    trace = CACHE.get("perlbench", N)
    python = simulate(trace, system)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=[c.value for c in MemoryCondition])
def test_kernel_identical_across_memory_conditions(condition):
    trace = CACHE.get("mcf", N, condition=condition)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


def _never_called(ctx, start, end):
    raise AssertionError("the kernel handed a range to the oracle")


def _engine_matches_python(system, trace):
    """Build, replay the whole trace, compare with the python engine."""
    before = decline_counts()
    ctx = _CoreContext(system, trace)
    engine = make_engine(ctx, _never_called)
    assert engine is not None
    engine.replay(ctx, 0, ctx._len)
    ctx.completed_once = True
    assert decline_counts() == before
    assert fingerprint(ctx.result()) == fingerprint(simulate(trace, system))


def test_kernel_engages_and_stays_synced():
    """The fast path must actually run (no silent decline)."""
    _engine_matches_python(ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                           CACHE.get("perlbench", N))


def test_kernel_accepts_ooo_detailed_core():
    """ooo-detailed rides the kernel: core model live, pass compiled."""
    system = replace(ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                     core="ooo-detailed")
    _engine_matches_python(system, CACHE.get("perlbench", N))


def test_kernel_declines_are_counted_by_reason():
    """An out-of-envelope config declines observably and still matches."""
    cfg = replace(SIPT_GEOMETRIES["32K_2w"], page_bound_idb=True)
    system = ooo_system(cfg)
    trace = CACHE.get("perlbench", N)
    ctx = _CoreContext(system, trace)
    before = decline_counts().get("idb-page-bound", 0)
    assert make_engine(ctx, _replay_range) is None
    assert decline_counts()["idb-page-bound"] == before + 1
    python = simulate(trace, system)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)
    assert decline_counts()["idb-page-bound"] == before + 2


def test_kernel_debug_reraises_build_errors(monkeypatch):
    """REPRO_KERNEL_DEBUG=1 surfaces a swallowed build exception."""
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    trace = CACHE.get("perlbench", N)

    def boom(kind, way_pred):
        raise RuntimeError("forced build failure")

    monkeypatch.setattr(kernel_mod, "_compile_loop", boom)
    before = decline_counts().get("build-error:RuntimeError", 0)
    assert make_engine(_CoreContext(system, trace),
                       _replay_range) is None
    assert decline_counts()["build-error:RuntimeError"] == before + 1
    monkeypatch.setenv("REPRO_KERNEL_DEBUG", "1")
    with pytest.raises(RuntimeError, match="forced build failure"):
        make_engine(_CoreContext(system, trace), _replay_range)


def test_kernel_memo_is_lru_bounded(monkeypatch):
    """The column memo evicts LRU at capacity instead of growing."""
    memo = KernelMemo(max_entries=2)
    memo["a"] = 1
    memo["b"] = 2
    assert memo.get("a") == 1      # refreshes "a": "b" is now LRU
    memo["c"] = 3
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") == 1 and memo.get("c") == 3
    monkeypatch.setenv("REPRO_KERNEL_MEMO", "5")
    assert KernelMemo().max_entries == 5
    monkeypatch.setenv("REPRO_KERNEL_MEMO", "0")
    with pytest.raises(ConfigError, match="memo capacity"):
        KernelMemo()


def test_kernel_interval_series_identical():
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system, interval=700)
    kernel = simulate(trace, system, interval=700, engine="kernel")
    assert kernel.intervals == python.intervals
    assert fingerprint(kernel) == fingerprint(python)


def test_kernel_checkpointed_replay_identical(tmp_path):
    trace = CACHE.get("mcf", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system)
    kernel = simulate(trace, system, checkpoint_every=500,
                      checkpoint_path=tmp_path / "cell.json",
                      engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


def test_kernel_crash_resume_identical(tmp_path):
    """Kill a kernel run mid-trace; a kernel resume matches python."""
    trace = CACHE.get("povray", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    plain = simulate(trace, system)
    ck = tmp_path / "cell.json"
    arm_fault("sim_crash", 1300)
    with pytest.raises(WorkerCrash):
        simulate(trace, system, checkpoint_every=500,
                 checkpoint_path=ck, engine="kernel")
    resumed = simulate(trace, system, checkpoint_every=500,
                       checkpoint_path=ck, resume_checkpoint=ck,
                       engine="kernel")
    assert fingerprint(resumed) == fingerprint(plain)


_RESTORE_SYSTEMS = {
    "combined": ooo_system(SIPT_GEOMETRIES["32K_2w"]),
    "naive": ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                variant=SiptVariant.NAIVE)),
    "bypass": ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                 variant=SiptVariant.BYPASS)),
    # One speculative bit: COMBINED takes the reversed prediction.
    "reversed-1bit": ooo_system(SIPT_GEOMETRIES["32K_4w"]),
}


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=[c.value for c in MemoryCondition])
@pytest.mark.parametrize("variant", sorted(_RESTORE_SYSTEMS))
def test_kernel_fresh_engine_continues_restored_state(variant, condition):
    """A fresh engine over a restored context needs no verification.

    The first k accesses run on one engine, and the state it folds
    back must equal the oracle's at k. That state goes through JSON
    (as a checkpoint would) into a new context whose engine was built
    cold, exactly as the driver builds it before a resume, and the
    rest of the trace must leave the machine (TLB LRU stacks,
    predictor weights and history) and the result equal to an
    uninterrupted oracle run. libquantum's normal condition fills the
    2 MiB TLB; under fragmented memory k falls inside its one
    speculation-outcome transition, so the history at k is mixed.
    """
    system = _RESTORE_SYSTEMS[variant]
    trace = CACHE.get("libquantum", N, condition=condition)
    k = 1050
    oracle = _CoreContext(system, trace)
    _replay_range(oracle, 0, k)
    first = _CoreContext(system, trace)
    make_engine(first, _never_called).replay(first, 0, k)
    state = first.state_dict()
    assert state == oracle.state_dict()
    resumed = _CoreContext(system, trace)
    fresh = make_engine(resumed, _never_called)
    assert fresh is not None
    resumed.load_state_dict(json.loads(json.dumps(state)))
    fresh.replay(resumed, k, resumed._len)
    _replay_range(oracle, k, oracle._len)
    assert resumed.state_dict() == oracle.state_dict()
    resumed.completed_once = oracle.completed_once = True
    assert fingerprint(resumed.result()) == fingerprint(oracle.result())


def test_kernel_poisoned_predictor_fails_like_python():
    """A NaN-poisoned perceptron must not survive the fast path."""
    trace = CACHE.get("perlbench", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    arm_data_specs([parse_fault("poison_predictor@0")])
    with pytest.raises(SimulationError):
        simulate(trace, system)
    arm_data_specs([parse_fault("poison_predictor@0")])
    with pytest.raises(SimulationError):
        simulate(trace, system, engine="kernel")
    # Partial poison (three NaN rows): the build declines on predictor
    # state and the oracle raises its own error at the same entry.
    arm_data_specs([parse_fault("poison_predictor@0x3")])
    with pytest.raises(SimulationError) as python:
        simulate(trace, system)
    before = decline_counts().get("predictor-state", 0)
    arm_data_specs([parse_fault("poison_predictor@0x3")])
    with pytest.raises(SimulationError) as kernel:
        simulate(trace, system, engine="kernel")
    assert str(kernel.value) == str(python.value)
    assert decline_counts()["predictor-state"] == before + 1
    # Poison arriving after the build (a restored checkpoint can carry
    # NaN rows) meets the compiled pass's mirror of the oracle's guard.
    ctx = _CoreContext(system, trace)
    engine = make_engine(ctx, _never_called)
    poison_predictor(ctx.l1.perceptron, n_entries=3)
    with pytest.raises(SimulationError) as late:
        engine.replay(ctx, 0, ctx._len)
    assert str(late.value) == str(python.value)


def test_unknown_engine_is_a_config_error():
    trace = CACHE.get("perlbench", N)
    system = ooo_system(BASELINE_L1)
    with pytest.raises(ConfigError, match="unknown engine"):
        simulate(trace, system, engine="numpy")
    with pytest.raises(ConfigError, match="unknown engine"):
        run_app("perlbench", system, n_accesses=N, cache=CACHE,
                engine="numpy")


# ---------------------------------------------------------------------
# Satellite: O(n) chunked-replay cursor
# ---------------------------------------------------------------------

def test_chunked_replay_cursor_matches_full_replay():
    """Many tiny chunks equal one fused range, and reuse one iterator."""
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    full = _CoreContext(system, trace)
    _replay_range(full, 0, full._len)
    chunked = _CoreContext(system, trace)
    for start in range(0, chunked._len, 97):
        end = min(start + 97, chunked._len)
        _replay_range(chunked, start, end)
        # The parked cursor is what makes the whole pass O(n): every
        # chunk after the first resumes the previous chunk's iterator.
        if end < chunked._len:
            assert chunked._cursor is not None
            assert chunked._cursor[0] == end
    assert fingerprint(chunked.result()) == fingerprint(full.result())


def test_cold_cursor_mid_trace_start_matches():
    """A resume-shaped call (cold start at i>0) islices, not slices."""
    trace = CACHE.get("calculix", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    reference = _CoreContext(system, trace)
    _replay_range(reference, 0, 1000)
    _replay_range(reference, 1000, reference._len)
    split = _CoreContext(system, trace)
    _replay_range(split, 0, 1000)
    split._cursor = None   # simulate a fresh post-restore context
    _replay_range(split, 1000, split._len)
    assert fingerprint(split.result()) == fingerprint(reference.result())


# ---------------------------------------------------------------------
# Satellite: integer env overrides raise ConfigError, not ValueError
# ---------------------------------------------------------------------

def test_int_env_var_names_variable_and_value(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "lots")
    with pytest.raises(ConfigError, match="REPRO_TRACE_CACHE.*'lots'"):
        TraceCache()


def test_int_env_var_valid_and_default(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "7")
    assert TraceCache().max_traces == 7
    monkeypatch.delenv("REPRO_TRACE_CACHE")
    assert env_int("REPRO_TRACE_CACHE", 64) == 64
    monkeypatch.setenv("REPRO_ACCESSES", "12_000?!")
    with pytest.raises(ConfigError, match="REPRO_ACCESSES"):
        env_int("REPRO_ACCESSES", 50000)


# ---------------------------------------------------------------------
# Differential fuzz: step() vs _replay_range vs kernel
# ---------------------------------------------------------------------

_FUZZ_SYSTEMS = {
    "combined": ooo_system(SIPT_GEOMETRIES["32K_2w"]),
    "naive": ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                variant=SiptVariant.NAIVE)),
    "bypass-small": ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                       capacity=8 * 1024,
                                       variant=SiptVariant.BYPASS)),
    "waypred": ooo_system(replace(SIPT_GEOMETRIES["32K_4w"],
                                  way_prediction=True)),
    "inorder-small": inorder_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                            capacity=8 * 1024)),
    # Small L1 *and* small L2/LLC: misses cascade write-backs through
    # every level and churn the DRAM row buffers inside the compiled
    # miss path.
    "combined-deep": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=128 * 1024),
        l2_capacity=32 * 1024),
    "detailed-small": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=256 * 1024),
        core="ooo-detailed", l2_capacity=32 * 1024),
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["mcf", "calculix", "libquantum", "povray"]),
       st.sampled_from(sorted(_FUZZ_SYSTEMS)),
       st.sampled_from(list(MemoryCondition)),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=150, max_value=900))
def test_fuzz_three_replay_paths_agree(app, system_name, condition,
                                       seed, n):
    """step(), the fused loop, and the kernel are one implementation.

    The small-capacity systems force misses, dirty writebacks, and
    (with naive/bypass variants) slow accesses inside the
    port-conflict window; the memory conditions cover huge-page and
    fragmented translation paths.
    """
    system = _FUZZ_SYSTEMS[system_name]
    trace = CACHE.get(app, n, condition=condition, seed=seed)
    stepped = _CoreContext(system, trace)
    for _ in range(n):
        stepped.step()
    fused = _CoreContext(system, trace)
    _replay_range(fused, 0, n)
    fused.completed_once = True
    kernel = simulate(trace, system, engine="kernel")
    want = fingerprint(stepped.result())
    assert fingerprint(fused.result()) == want
    assert fingerprint(kernel) == want


# ---------------------------------------------------------------------
# Differential fuzz: multicore over the shared LLC/DRAM miss path
# ---------------------------------------------------------------------

_MC_FUZZ_SYSTEMS = {
    "ooo": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=256 * 1024),
        l2_capacity=32 * 1024),
    "ooo-detailed": replace(
        ooo_system(replace(SIPT_GEOMETRIES["32K_2w"],
                           capacity=8 * 1024),
                   llc_capacity=256 * 1024),
        core="ooo-detailed", l2_capacity=32 * 1024),
    "inorder": inorder_system(replace(SIPT_GEOMETRIES["32K_2w"],
                                      capacity=8 * 1024),
                              llc_capacity=128 * 1024),
}


@pytest.mark.parametrize("kind", sorted(_MC_FUZZ_SYSTEMS))
def test_multicore_kernel_accepted_and_identical(kind):
    """Per-core results byte-identical; the compiled pass engages.

    Unequal trace lengths force one core to graduate and recycle live
    while the other is still on its compiled pass, covering the
    fold/demote path.
    """
    system = _MC_FUZZ_SYSTEMS[kind]
    traces = [CACHE.get("mcf", 1500, seed=1),
              CACHE.get("calculix", 900, seed=2)]
    python = [fingerprint(r)
              for r in simulate_multicore(traces, system)]
    before = sum(n for k, n in decline_counts().items()
                 if k.startswith("multicore:"))
    kernel = [fingerprint(r)
              for r in simulate_multicore(traces, system,
                                          engine="kernel")]
    after = sum(n for k, n in decline_counts().items()
                if k.startswith("multicore:"))
    assert kernel == python
    assert after == before, "multicore kernel declined unexpectedly"


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(_MC_FUZZ_SYSTEMS)),
       st.sampled_from([2, 4]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=120, max_value=500))
def test_fuzz_multicore_kernel_matches_python(kind, n_cores, seed, n):
    """Shared-state interleaving is byte-identical across engines.

    The small per-level capacities drive write-back cascades and DRAM
    row-buffer traffic through the shared containers; staggered
    lengths mix compiled-pass and recycled-live cores in one
    round-robin.
    """
    system = _MC_FUZZ_SYSTEMS[kind]
    apps = ["mcf", "calculix", "povray", "libquantum"]
    traces = [CACHE.get(apps[i], n + 73 * i, seed=seed + i)
              for i in range(n_cores)]
    python = [fingerprint(r)
              for r in simulate_multicore(traces, system)]
    kernel = [fingerprint(r)
              for r in simulate_multicore(traces, system,
                                          engine="kernel")]
    assert kernel == python
