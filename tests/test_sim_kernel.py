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
from pathlib import Path

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
from repro.sim import native
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
from repro.sim.kernel import decline_counts, make_engine, run_multicore_kernel
from repro.workloads import generate_trace
from repro.workloads.substrate import KernelMemo, columns_for
from repro.workloads.trace import MemoryCondition

CACHE = TraceCache()
N = 2500


@pytest.fixture(autouse=True)
def _clean_armed_channel():
    clear_armed()
    yield
    clear_armed()


def _force_python_pass(monkeypatch):
    """Make the native loader refuse, so the kernel runs the python pass."""
    def unavailable():
        raise native.NativeUnavailable("disabled")
    monkeypatch.setattr(native, "load", unavailable)


def _require_native():
    """Skip unless the native pass builds on this box."""
    try:
        native.load()
    except native.NativeUnavailable as exc:
        pytest.skip(f"native pass unavailable: {exc}")


def _oracle_declines():
    """Declines that leave a run to the oracle (``native:`` ones run
    the python pass, which is still the kernel)."""
    return {k: n for k, n in decline_counts().items()
            if not k.startswith("native:")}


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
    python = simulate(trace, system, engine="python")
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=[c.value for c in MemoryCondition])
def test_kernel_identical_across_memory_conditions(condition):
    trace = CACHE.get("mcf", N, condition=condition)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system, engine="python")
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


def _never_called(ctx, start, end):
    raise AssertionError("the kernel handed a range to the oracle")


def _engine_matches_python(system, trace):
    """Build, replay the whole trace, compare with the python engine."""
    before = _oracle_declines()
    ctx = _CoreContext(system, trace)
    engine = make_engine(ctx, _never_called)
    assert engine is not None
    engine.replay(ctx, 0, ctx._len)
    ctx.completed_once = True
    assert _oracle_declines() == before
    assert fingerprint(ctx.result()) == fingerprint(
        simulate(trace, system, engine="python"))


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
    python = simulate(trace, system, engine="python")
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)
    assert decline_counts()["idb-page-bound"] == before + 2


def test_kernel_debug_reraises_build_errors(monkeypatch):
    """REPRO_KERNEL_DEBUG=1 surfaces a swallowed build exception."""
    _force_python_pass(monkeypatch)
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
    python = simulate(trace, system, interval=700, engine="python")
    kernel = simulate(trace, system, interval=700, engine="kernel")
    assert kernel.intervals == python.intervals
    assert fingerprint(kernel) == fingerprint(python)


def test_kernel_checkpointed_replay_identical(tmp_path):
    trace = CACHE.get("mcf", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    python = simulate(trace, system, engine="python")
    kernel = simulate(trace, system, checkpoint_every=500,
                      checkpoint_path=tmp_path / "cell.json",
                      engine="kernel")
    assert fingerprint(kernel) == fingerprint(python)


def test_kernel_crash_resume_identical(tmp_path):
    """Kill a kernel run mid-trace; a kernel resume matches python."""
    trace = CACHE.get("povray", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    plain = simulate(trace, system, engine="python")
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
        simulate(trace, system, engine="python")
    arm_data_specs([parse_fault("poison_predictor@0")])
    with pytest.raises(SimulationError):
        simulate(trace, system, engine="kernel")
    # Partial poison (three NaN rows): the build declines on predictor
    # state and the oracle raises its own error at the same entry.
    arm_data_specs([parse_fault("poison_predictor@0x3")])
    with pytest.raises(SimulationError) as python:
        simulate(trace, system, engine="python")
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
              for r in simulate_multicore(traces, system,
                                          engine="python")]
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
              for r in simulate_multicore(traces, system,
                                          engine="python")]
    kernel = [fingerprint(r)
              for r in simulate_multicore(traces, system,
                                          engine="kernel")]
    assert kernel == python


# ---------------------------------------------------------------------
# The native pass: engagement, build cache, exactness traps
# ---------------------------------------------------------------------

def test_native_pass_engages():
    """Within the envelope the C pass runs: no ``native:`` decline."""
    _require_native()
    before = decline_counts()
    trace = CACHE.get("mcf", N)
    for system in (ooo_system(SIPT_GEOMETRIES["32K_2w"]),
                   inorder_system(SIPT_GEOMETRIES["64K_4w"])):
        assert fingerprint(simulate(trace, system, engine="kernel")) == \
            fingerprint(simulate(trace, system, engine="python"))
    assert decline_counts() == before


def test_native_pass_leaves_replay_lists_unbuilt():
    """The python replay lists are built on first read, and a native
    run never reads them."""
    _require_native()
    trace = generate_trace("povray", 1200, seed=11)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    native_run = simulate(trace, system, engine="kernel")
    assert columns_for(trace)._lists is None
    ctx = _CoreContext(system, trace)
    assert "_va" not in vars(ctx)
    assert ctx._va == trace.va.tolist()
    assert ctx._dep is columns_for(trace).lists()[4]
    with pytest.raises(AttributeError):
        ctx._not_a_column
    assert fingerprint(simulate(trace, system, engine="python")) == \
        fingerprint(native_run)


def _private_cache(monkeypatch, tmp_path):
    """Point the library cache at fresh directories, as a new box has."""
    dirs = (tmp_path / "pycache", tmp_path / "xdg")
    monkeypatch.setattr(native, "_cache_dirs", lambda: dirs)
    monkeypatch.setattr(native, "_LIBS", {})
    return dirs


def test_missing_compiler_declines_byte_identically(monkeypatch, tmp_path):
    _private_cache(monkeypatch, tmp_path)
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    trace = CACHE.get("perlbench", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    before = decline_counts().get("native:no-compiler", 0)
    kernel = simulate(trace, system, engine="kernel")
    assert fingerprint(kernel) == fingerprint(
        simulate(trace, system, engine="python"))
    assert decline_counts()["native:no-compiler"] == before + 1
    monkeypatch.setenv("REPRO_KERNEL_DEBUG", "1")
    with pytest.raises(native.NativeUnavailable, match="no-compiler"):
        make_engine(_CoreContext(system, trace))


def _counting_compile(monkeypatch):
    calls = []
    compile_ = native._compile

    def counted(compiler, path):
        calls.append(path)
        compile_(compiler, path)
    monkeypatch.setattr(native, "_compile", counted)
    return calls


def test_second_load_reuses_cached_library(monkeypatch, tmp_path):
    _require_native()
    dirs = _private_cache(monkeypatch, tmp_path)
    calls = _counting_compile(monkeypatch)
    native.load()
    assert len(calls) == 1 and calls[0].parent == dirs[0]
    monkeypatch.setattr(native, "_LIBS", {})   # as a new process would
    native.load()
    assert len(calls) == 1


def test_unwritable_cache_falls_back_then_declines(monkeypatch, tmp_path):
    """The package cache first, ``$XDG_CACHE_HOME`` next, else decline."""
    _require_native()
    blocker = tmp_path / "file"
    blocker.write_text("")   # a directory cannot be made under a file
    dirs = (blocker / "pycache", tmp_path / "xdg")
    monkeypatch.setattr(native, "_cache_dirs", lambda: dirs)
    monkeypatch.setattr(native, "_LIBS", {})
    calls = _counting_compile(monkeypatch)
    native.load()
    assert [p.parent for p in calls] == [dirs[1]]

    monkeypatch.setattr(native, "_cache_dirs",
                        lambda: (blocker / "a", blocker / "b"))
    monkeypatch.setattr(native, "_LIBS", {})
    with pytest.raises(native.NativeUnavailable, match="no-cache-dir"):
        native.load()


def test_truncated_library_is_rebuilt_or_declined(monkeypatch, tmp_path):
    """A damaged cache entry is never loaded: rebuilt, else declined.

    Each damaged copy sits in a directory this process never loaded a
    library from, as it would for a new process (a library is only
    ever replaced, never truncated in place, while mapped).
    """
    _require_native()
    _private_cache(monkeypatch, tmp_path / "good")
    calls = _counting_compile(monkeypatch)
    native.load()
    built = calls[0]
    data = built.read_bytes()
    sidecar = Path(f"{built}.sha256").read_text()

    def damaged(name: str, keep: int):
        dirs = _private_cache(monkeypatch, tmp_path / name)
        dirs[0].mkdir(parents=True)
        path = dirs[0] / built.name
        path.write_bytes(data[:keep])
        Path(f"{path}.sha256").write_text(sidecar)
        return path

    path = damaged("half", len(data) // 2)
    native.load()
    assert calls[-1] == path and path.read_bytes() == data

    damaged("third", len(data) // 3)

    def broken(compiler, path):
        raise native.NativeUnavailable("build-failed", "forced")
    monkeypatch.setattr(native, "_compile", broken)
    trace = CACHE.get("perlbench", N)
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    before = decline_counts().get("native:build-failed", 0)
    assert fingerprint(simulate(trace, system, engine="kernel")) == \
        fingerprint(simulate(trace, system, engine="python"))
    assert decline_counts()["native:build-failed"] == before + 1


def test_walker_address_wraps_like_unbounded_ints():
    """Leaf-level ``prefix * 0x9E3779B1`` exceeds 2**64 at these VAs.

    The C walker computes it in uint64 wraparound; only the low 28
    bits survive the oracle's modulus, so every walker load must hit
    the same page-table address (LLC/DRAM state and stats equal).
    """
    _require_native()
    trace = CACHE.get("mcf", N)
    top = int(trace.va.max())
    assert top >= 1 << 44
    assert (top >> 12) * 0x9E3779B1 >= 1 << 64
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    oracle = _CoreContext(system, trace)
    _replay_range(oracle, 0, oracle._len)
    ctx = _CoreContext(system, trace)
    make_engine(ctx, _never_called).replay(ctx, 0, ctx._len)
    assert ctx.l1.tlb.walker.stats.walks > 0
    assert ctx.state_dict() == oracle.state_dict()


def test_native_multicore_wraps_unequal_traces():
    """Recycled passes wrap inside the C round-robin exactly as
    ``ctx.step()`` does: same end positions, state and results."""
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.timing.dram import DramModel
    _require_native()
    system = _MC_FUZZ_SYSTEMS["ooo"]
    traces = [CACHE.get("mcf", 1500, seed=1),
              CACHE.get("calculix", 400, seed=2)]

    def contexts():
        llc = SetAssociativeCache(system.llc_capacity * len(traces),
                                  system.l1.line_size, system.llc_ways,
                                  name="LLC")
        dram = DramModel()
        return [_CoreContext(system, t, llc, dram) for t in traces]

    oracle = contexts()
    while not all(ctx.completed_once for ctx in oracle):
        for ctx in oracle:
            ctx.step()
    before = decline_counts()
    kernel = contexts()
    assert run_multicore_kernel(kernel)
    assert decline_counts() == before
    assert [ctx.position for ctx in kernel] == \
        [ctx.position for ctx in oracle]
    assert kernel[1].position != 0   # the short traces wrapped mid-pass
    for got, want in zip(kernel, oracle):
        assert got.state_dict() == want.state_dict()
        assert fingerprint(got.result()) == fingerprint(want.result())


def test_long_history_declines_to_python_pass():
    """A global history past 63 bits does not fit the C pass's mask."""
    system = ooo_system(SIPT_GEOMETRIES["32K_2w"])
    trace = CACHE.get("calculix", N)

    def widened():
        ctx = _CoreContext(system, trace)
        perc = ctx.l1.perceptron
        perc._history[:] = [1] * 64
        for row in perc._weights:
            row[:] = [0] * 65
        return ctx

    oracle = widened()
    _replay_range(oracle, 0, oracle._len)
    ctx = widened()
    before = decline_counts().get("native:history-too-long", 0)
    make_engine(ctx, _never_called).replay(ctx, 0, ctx._len)
    assert decline_counts()["native:history-too-long"] == before + 1
    assert ctx.state_dict() == oracle.state_dict()


def test_native_source_ships_as_package_data():
    pyproject = (Path(__file__).resolve().parents[1]
                 / "pyproject.toml").read_text()
    assert '"repro.sim" = ["*.c"]' in pyproject
    assert native._SOURCE.is_file()


# ---------------------------------------------------------------------
# The same equivalence checks on the python pass
# ---------------------------------------------------------------------

class TestPythonPass:
    """Every oracle-equivalence check again, on the python pass.

    The tests above run the native pass wherever it builds; here the
    loader refuses (``native:disabled``), so the kernel runs the
    exec-compiled python pass that the detailed core and compiler-less
    boxes use.
    """

    @pytest.fixture(autouse=True)
    def _python_pass(self, monkeypatch):
        _force_python_pass(monkeypatch)

    test_kernel_is_byte_identical_across_grid = staticmethod(
        test_kernel_is_byte_identical_across_grid)
    test_kernel_identical_across_memory_conditions = staticmethod(
        test_kernel_identical_across_memory_conditions)
    test_kernel_engages_and_stays_synced = staticmethod(
        test_kernel_engages_and_stays_synced)
    test_kernel_interval_series_identical = staticmethod(
        test_kernel_interval_series_identical)
    test_kernel_checkpointed_replay_identical = staticmethod(
        test_kernel_checkpointed_replay_identical)
    test_kernel_crash_resume_identical = staticmethod(
        test_kernel_crash_resume_identical)
    test_kernel_fresh_engine_continues_restored_state = staticmethod(
        test_kernel_fresh_engine_continues_restored_state)
    test_kernel_poisoned_predictor_fails_like_python = staticmethod(
        test_kernel_poisoned_predictor_fails_like_python)
    test_chunked_replay_cursor_matches_full_replay = staticmethod(
        test_chunked_replay_cursor_matches_full_replay)
    test_cold_cursor_mid_trace_start_matches = staticmethod(
        test_cold_cursor_mid_trace_start_matches)
    test_multicore_kernel_accepted_and_identical = staticmethod(
        test_multicore_kernel_accepted_and_identical)
    test_fuzz_three_replay_paths_agree = staticmethod(
        test_fuzz_three_replay_paths_agree)
    test_fuzz_multicore_kernel_matches_python = staticmethod(
        test_fuzz_multicore_kernel_matches_python)
