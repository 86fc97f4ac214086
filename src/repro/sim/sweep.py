"""Parameter-sweep utility: run a grid of experiments, export CSV.

The benchmark files each regenerate one figure; this module is the
general tool behind ad-hoc studies: sweep (app x L1 config x condition)
grids, collect the standard metrics, and write them as CSV for external
plotting.

Grids execute through :class:`~repro.sim.resilience.ResilientRunner`:
a failing cell degrades into a ``status="error"`` row instead of
discarding the completed part of the grid, transient faults retry with
backoff, and (with a journal) an interrupted sweep resumes from the
cells it already finished. Under ``jobs > 1`` the runner drives a
:class:`~repro.sim.executors.SupervisedPoolExecutor`, so even a worker
process dying mid-sweep (SIGKILL, OOM) costs at most the cell that was
executing — bystanders are rescheduled and a repeatedly lethal cell is
quarantined as ``status="crashed"``.

Example::

    from repro.sim.sweep import SweepSpec, run_sweep, to_csv
    spec = SweepSpec(apps=["perlbench", "mcf"],
                     configs={"base": BASELINE_L1,
                              "sipt": SIPT_GEOMETRIES["32K_2w"]})
    rows = run_sweep(spec, n_accesses=20_000)
    to_csv(rows, "sweep.csv")
"""

from __future__ import annotations

import csv
import io
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

from ..errors import ConfigError, ReproError
from ..ioutil import atomic_write_text
from ..store.resultstore import ResultStore
from ..workloads.substrate import TraceHandle, TraceStore, attach
from ..workloads.trace import MemoryCondition
from . import faults as _faults
from .checkpoint import checkpoint_path_for
from .config import L1Config, SystemConfig, inorder_system, ooo_system
from .executors import STATUS_OK
from .experiment import TraceCache, run_app
from .resilience import ResilientRunner
from .warmstate import StoreRoot, WarmStateCache, drop_warm_cache, \
    warm_cache_for

#: The columns every sweep row carries, in CSV order. ``status`` is
#: "ok" for a completed cell; "error"/"timeout"/"crashed"/"resumable"
#: for a degraded one (metric columns then stay blank and ``error``
#: holds the typed error).
FIELDS = ["app", "config", "core", "condition", "seed", "ipc",
          "speedup", "l1_miss_rate", "fast_fraction",
          "extra_access_fraction", "energy_j", "energy_ratio",
          "status", "error"]

#: Core timing models a sweep may request.
VALID_CORES = frozenset(SystemConfig.CORE_KINDS)


def _duplicates(values) -> list:
    seen, dupes = set(), []
    for value in values:
        if value in seen and value not in dupes:
            dupes.append(value)
        seen.add(value)
    return dupes


@dataclass
class SweepSpec:
    """Declarative description of a sweep grid.

    Every combination of ``apps x configs x cores x conditions x
    seeds`` becomes one grid cell, executed by :func:`run_sweep` into
    one CSV row (:data:`FIELDS` columns). Validation happens at
    construction: empty/duplicate axes, unknown core kinds, and a
    ``baseline`` that is not one of ``configs`` all raise
    :class:`~repro.errors.ConfigError` before any simulation runs.

    Attributes
    ----------
    apps:
        Benchmark names (see ``repro list``); each must be unique.
    configs:
        ``{name: L1Config}`` — the name becomes the ``config`` CSV
        column.
    cores:
        Core timing models (``"ooo"``, ``"ooo-detailed"``,
        ``"inorder"``).
    conditions:
        :class:`~repro.workloads.trace.MemoryCondition` values (normal,
        fragmented, THP off, ...).
    seeds:
        Trace-generation seeds; one full grid runs per seed.
    baseline:
        Config name to normalize ``speedup``/``energy_ratio`` against
        (matched per app/core/condition/seed); ``None`` leaves the
        ratio columns blank.
    """

    apps: List[str]
    configs: Dict[str, L1Config]
    cores: List[str] = field(default_factory=lambda: ["ooo"])
    conditions: List[MemoryCondition] = field(
        default_factory=lambda: [MemoryCondition.NORMAL])
    seeds: List[int] = field(default_factory=lambda: [0])
    #: Config name to normalize speedup/energy against (per app, core,
    #: condition, seed); None disables the ratio columns.
    baseline: Optional[str] = None

    def __post_init__(self):
        if not self.apps or not self.configs:
            raise ConfigError("apps and configs must be non-empty")
        dupes = _duplicates(self.apps)
        if dupes:
            raise ConfigError(
                f"duplicate apps in sweep: {dupes}; each app already "
                "runs once per grid cell — deduplicate the list")
        dupes = _duplicates(self.seeds)
        if dupes:
            raise ConfigError(
                f"duplicate seeds in sweep: {dupes}; repeated seeds "
                "replay identical traces — deduplicate the list")
        unknown = [c for c in self.cores if c not in VALID_CORES]
        if unknown:
            raise ConfigError(
                f"unknown cores {unknown}; choose from "
                f"{sorted(VALID_CORES)}")
        if self.baseline is not None and self.baseline not in self.configs:
            raise ConfigError(f"baseline {self.baseline!r} not in configs")


def _system_for(core: str, l1: L1Config) -> SystemConfig:
    if core == "inorder":
        return inorder_system(l1)
    system = ooo_system(l1)
    if core == "ooo-detailed":
        from dataclasses import replace
        system = replace(system, core="ooo-detailed")
    return system


def cell_key(app: str, config: str, core: str,
             condition: MemoryCondition, seed: int) -> Dict[str, object]:
    """The journal identity of one sweep cell."""
    return {"app": app, "config": config, "core": core,
            "condition": condition.value, "seed": seed}


def grid_cells(spec: SweepSpec):
    """Iterate the grid's cells in CSV row order.

    Yields ``(key, app, name, cfg, core, condition, seed)`` per cell —
    the one nesting order (cores, conditions, seeds, configs, apps)
    every consumer shares: the cell task builder, the store lookups,
    and the jobs front end. Sharing the iterator is what keeps a
    store-composed CSV byte-identical to an executed one.
    """
    for core in spec.cores:
        for condition in spec.conditions:
            for seed in spec.seeds:
                for name, cfg in spec.configs.items():
                    for app in spec.apps:
                        yield (cell_key(app, name, core, condition, seed),
                               app, name, cfg, core, condition, seed)


def _result_row(app: str, name: str, core: str,
                condition: MemoryCondition, seed: int,
                result, base) -> dict:
    """One finished cell's CSV row (no status fields).

    The single source of truth for how a ``SimResult`` (plus its
    optional normalization baseline) becomes row values — executed
    cells and store hits both call this, so a row's bytes cannot
    depend on *where* the result came from.
    """
    return {
        "app": app,
        "config": name,
        "core": core,
        "condition": condition.value,
        "seed": seed,
        "ipc": result.ipc,
        "speedup": result.speedup_over(base) if base else "",
        "l1_miss_rate": result.l1_stats.miss_rate,
        "fast_fraction": result.fast_fraction,
        "extra_access_fraction": result.extra_access_fraction,
        "energy_j": result.energy.total,
        "energy_ratio": result.energy_over(base) if base else "",
    }


def _provenance(key: Dict[str, object], trace) -> dict:
    """A store entry's human-readable provenance: cell key + length."""
    return {**key, "n_accesses": len(trace)}


def _publish(store: Optional[ResultStore], trace, system: SystemConfig,
             key: Dict[str, object], result) -> None:
    """Publish one simulated result to the persistent store, if any."""
    if store is not None:
        store.store_result(store.digest(trace, system), result,
                           meta=_provenance(key, trace))


@dataclass(frozen=True)
class _Plan:
    """What every cell of one sweep shares.

    Pickled into each pool task, so parallel sweeps leave ``traces``
    unset (cells attach a substrate handle instead); serial sweeps read
    traces from the caller's cache. Every cell warms through
    ``warm_cache_for(warm_root)``: the persistent ``store`` when there
    is one, else memory only (serial) or a sweep-scoped temporary
    store root the pool workers share (parallel).
    """

    n_accesses: Optional[int]
    baseline: Optional[str]
    baseline_cfg: Optional[L1Config]
    checkpoint_every: Optional[int]
    engine: str
    store: Optional[ResultStore]
    warm_root: StoreRoot
    traces: Optional[TraceCache]


def _baseline_result(plan: _Plan, warm: WarmStateCache, trace, app: str,
                     core: str, condition: MemoryCondition, seed: int):
    """The normalization baseline of one (app, core, condition, seed).

    Served from the warm cache's result memo — keyed on the trace's
    content fingerprint, so it never crosses traces — when the group's
    baseline cell already ran; otherwise simulated once and memoized
    for the siblings. Armed faults bypass the memo both ways: a faulted
    run is supposed to diverge.
    """
    system = _system_for(core, plan.baseline_cfg)
    reuse = not _faults.any_armed()
    result = warm.fetch_result(trace, system) if reuse else None
    if result is None:
        result = run_app(app, system, condition=condition,
                         n_accesses=plan.n_accesses, seed=seed,
                         trace=trace, warm_state=warm, engine=plan.engine)
        if reuse:
            warm.store_result(trace, system, result, meta=_provenance(
                cell_key(app, plan.baseline, core, condition, seed),
                trace))
    return result


def _sweep_cell(plan: _Plan, app: str, name: str, cfg: L1Config,
                core: str, condition: MemoryCondition, seed: int,
                checkpoint_path: Optional[Path],
                handle: Optional[TraceHandle]) -> dict:
    """One sweep cell — the single path serial and pool sweeps share.

    The trace is a zero-copy attach of the parent's published segment
    when the cell has a substrate ``handle`` (pool workers), else it
    loads lazily from ``plan.traces``. A baseline-config cell runs with
    warm-state reuse and seeds the result memo its siblings'
    normalization runs read (:func:`_baseline_result`) — which, with a
    store, is also its one publication there; every other simulated
    result is published to ``plan.store``. ``checkpoint_path`` doubles
    as the resume source (a missing file just means a fresh start).
    Everything is deterministic, so the row is the same whichever
    process runs the cell.
    """
    try:
        trace = (attach(handle) if handle is not None
                 else plan.traces.get(app, plan.n_accesses, condition,
                                      seed))
        warm = warm_cache_for(plan.warm_root)
        faulted = _faults.any_armed()
        system = _system_for(core, cfg)
        is_baseline = name == plan.baseline
        result = run_app(app, system, condition=condition,
                         n_accesses=plan.n_accesses, seed=seed,
                         checkpoint_every=plan.checkpoint_every,
                         checkpoint_path=checkpoint_path,
                         resume_checkpoint=checkpoint_path,
                         trace=trace,
                         warm_state=warm if is_baseline else None,
                         engine=plan.engine)
        if not faulted:
            key = cell_key(app, name, core, condition, seed)
            if is_baseline:
                warm.store_result(trace, system, result,
                                  meta=_provenance(key, trace))
            else:
                _publish(plan.store, trace, system, key, result)
        if is_baseline:
            base = result
        elif plan.baseline is not None:
            base = _baseline_result(plan, warm, trace, app, core,
                                    condition, seed)
        else:
            base = None
    except ReproError as exc:
        raise exc.with_context(app=app, config=name, seed=seed)
    return _result_row(app, name, core, condition, seed, result, base)


def _stored_rows(spec: SweepSpec, n_accesses: Optional[int],
                 traces: TraceCache, store: ResultStore,
                 skip: Callable[[dict], bool] = lambda key: False
                 ) -> Iterator[Tuple[int, dict, Optional[dict]]]:
    """Look every grid cell up in the store, in :func:`grid_cells` order.

    Yields ``(index, key, row)``; ``row`` is ``None`` on a miss and the
    cell is not looked up at all when ``skip(key)``. A hit needs the
    cell's own result **and**, when the spec normalizes, the stored
    baseline result of its (app, core, condition, seed) group — the
    ratio columns are then computed exactly like an executed cell
    computes them, from the same two deterministic results, so the row
    bytes match a cold run. Anything missing or unreadable is a miss.
    Each group's baseline entry is read once, whether the baseline
    cell or a sibling asks first.
    """
    base_cfg = (spec.configs[spec.baseline]
                if spec.baseline is not None else None)
    base_memo: Dict[tuple, Optional[object]] = {}
    for i, (key, app, name, cfg, core, condition, seed) in \
            enumerate(grid_cells(spec)):
        if skip(key):
            continue
        trace = traces.get(app, n_accesses, condition, seed)
        base = None
        if base_cfg is not None:
            group = (app, core, condition.value, seed)
            if group not in base_memo:
                base_memo[group] = store.fetch_result(
                    store.digest(trace, _system_for(core, base_cfg)))
            base = base_memo[group]
            if base is None:
                yield i, key, None
                continue
        result = (base if name == spec.baseline
                  else store.fetch_result(
                      store.digest(trace, _system_for(core, cfg))))
        if result is None:
            yield i, key, None
            continue
        yield i, key, _result_row(app, name, core, condition, seed,
                                  result, base)


def _store_prepass(spec: SweepSpec, n_accesses: Optional[int],
                   traces: TraceCache, store: ResultStore,
                   runner: ResilientRunner) -> Dict[int, dict]:
    """Dedupe the grid against the store before any cell executes.

    Returns ``{cell index: finished row}`` for every cell the store can
    satisfy (see :func:`_stored_rows`). A **resume journal wins**: a
    cell the runner's journal already marks ok is skipped here, so its
    journaled row replays verbatim. Hits are accounted and journaled
    through :meth:`ResilientRunner.record_hit`, so resumes, stats, and
    the degraded-exit logic see them as completed cells.
    """
    return {i: runner.record_hit(key, row)
            for i, key, row in _stored_rows(spec, n_accesses, traces,
                                            store,
                                            skip=runner.completed_ok)
            if row is not None}


def run_sweep(spec: SweepSpec, n_accesses: Optional[int] = None,
              traces: Optional[TraceCache] = None,
              runner: Optional[ResilientRunner] = None,
              checkpoint_every: Optional[int] = None,
              engine: str = "kernel",
              store: Optional[Union[ResultStore, str, Path]] = None
              ) -> List[dict]:
    """Run the grid; returns one dict per combination, FIELDS keys.

    Cells execute through ``runner`` (a default, journal-less
    :class:`ResilientRunner` if omitted): a failing cell contributes an
    error row instead of aborting the grid. Pass a runner with a
    ``journal`` to checkpoint, and one with ``resume_from`` to skip the
    cells a previous run completed. Baseline runs are computed lazily
    per (app, core, condition, seed) group, so fully-resumed groups
    skip them entirely.

    With ``checkpoint_every`` (requires a runner constructed with
    ``checkpoint_dir``), each cell additionally snapshots its
    *simulation state* every that many accesses into a per-cell file
    under the runner's checkpoint directory, and resumes from that file
    when it exists — so a killed campaign loses at most one checkpoint
    period of work per cell, not whole cells. Journal resume (cells)
    and checkpoint resume (accesses within a cell) compose: the journal
    skips finished cells, the checkpoint fast-forwards the interrupted
    one. Baseline runs are cheap shared work and stay uncheckpointed.

    Every grid runs through one pipeline: each cell is a
    :func:`_sweep_cell` task, and all of them go to one
    :meth:`ResilientRunner.run_cells` call in grid (CSV row) order —
    which is also the order fault-spec ordinals count in. A runner with
    ``jobs > 1`` executes them in a supervised process pool (see
    :class:`~repro.sim.executors.SupervisedPoolExecutor`): worker death
    is contained to the executing cell, bystanders are rescheduled, and
    the CSV is byte-for-byte the serial one. What differs by mode is
    only where a cell finds its inputs (see ``docs/architecture.md``):

    * traces — a serial cell loads its trace lazily from ``traces``;
      a parallel sweep renders each pending cell's trace *once* in the
      parent and publishes it as a shared-memory segment
      (:class:`~repro.workloads.substrate.TraceStore`) that workers
      attach zero-copy. Segments are unlinked in a ``finally`` —
      worker crashes and ``KeyboardInterrupt`` included.
    * warm state — baseline-config cells snapshot their completed run
      and result through :class:`WarmStateCache`; every other cell's
      normalization run fetches that result instead of re-simulating.
      Every cell uses :func:`warm_cache_for` on one root: the
      ``store`` when given; otherwise the process-wide memory-only
      cache (serial), or a temporary store root the pool workers share
      (parallel), removed on exit. Baseline cells are dispatched first
      so their results are there when siblings look.

    With a ``store`` (a :class:`~repro.store.ResultStore` or a store
    root path; CLI: ``sweep --store``), the grid is deduped against
    the persistent content-addressed store before anything executes:
    cells whose digest is already stored stream straight from disk
    (journaled as ok via :meth:`ResilientRunner.record_hit`, counted
    in ``stats.store_hits``), only the misses simulate, and every
    completed cell is published back under its digest. The CSV is
    byte-identical to a cold run — hits and executed cells build rows
    through the same :func:`_result_row`. A resume journal takes
    precedence over the store, and the store is silently disabled for
    fault-injection campaigns (their results intentionally diverge and
    must never enter — or be served from — the store).

    ``engine`` selects the replay implementation for every cell and
    baseline run: the byte-identical ``"kernel"`` (default; see
    ``repro.sim.kernel``) or the ``"python"`` oracle; because the
    kernel is oracle-equivalent, the CSV is identical either way.
    Engine is deliberately *excluded* from the store digest for the
    same reason.
    """
    traces = traces or TraceCache()
    runner = runner or ResilientRunner()
    if checkpoint_every is not None and runner.checkpoint_dir is None:
        raise ConfigError(
            "checkpoint_every needs a runner constructed with "
            "checkpoint_dir= (the per-cell snapshot directory)")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    # Only *simulation* faults disarm the store — their injected
    # divergence must never be published under a clean cell's digest.
    # Filesystem faults (repro.faultfs, armed separately at the
    # ioutil choke point) deliberately leave the store attached:
    # exercising its degradation paths is their entire purpose.
    if store is not None and (runner.faults is not None
                              or _faults.any_armed()):
        store = None
    hits: Dict[int, dict] = {}
    if store is not None:
        hits = _store_prepass(spec, n_accesses, traces, store, runner)
    parallel = runner.jobs > 1
    trace_store = TraceStore() if parallel else None
    warm_root: StoreRoot = store
    if store is None and parallel:
        warm_root = tempfile.mkdtemp(prefix="repro-warm-")
    try:
        handles: Dict[tuple, TraceHandle] = {}
        if trace_store is not None:
            pending = set()
            for i, (key, app, _name, _cfg, _core, condition, seed) \
                    in enumerate(grid_cells(spec)):
                if i not in hits and not runner.completed_ok(key):
                    pending.add((app, condition, seed))
            for app, condition, seed in sorted(
                    pending, key=lambda c: (c[0], c[1].value, c[2])):
                trace = traces.get(app, n_accesses, condition, seed)
                handles[(app, condition.value, seed)] = trace_store.publish(
                    trace, key=(app, len(trace), condition.value, seed))
        plan = _Plan(n_accesses=n_accesses, baseline=spec.baseline,
                     baseline_cfg=(spec.configs[spec.baseline]
                                   if spec.baseline is not None else None),
                     checkpoint_every=checkpoint_every, engine=engine,
                     store=store, warm_root=warm_root,
                     traces=None if parallel else traces)
        cells: List[Tuple[dict, partial]] = []
        first: List[int] = []
        for i, (key, app, name, cfg, core, condition, seed) in \
                enumerate(grid_cells(spec)):
            if i in hits:
                continue
            if name == spec.baseline:
                first.append(len(cells))
            ckpt = (checkpoint_path_for(runner.checkpoint_dir, key)
                    if checkpoint_every else None)
            cells.append((key, partial(
                _sweep_cell, plan, app, name, cfg, core, condition, seed,
                ckpt, handles.get((app, condition.value, seed)))))
        # Store hits never execute; their finished rows merge back in
        # by grid index.
        executed = iter(runner.run_cells(cells, first=first))
        blank = {name: "" for name in FIELDS}
        return [{**blank, **(hits[i] if i in hits else next(executed))}
                for i in range(len(hits) + len(cells))]
    finally:
        if trace_store is not None:
            trace_store.close()
        if warm_root is not None:
            drop_warm_cache(warm_root)
            if store is None:
                shutil.rmtree(warm_root, ignore_errors=True)


def rows_from_store(spec: SweepSpec, n_accesses: Optional[int],
                    store: ResultStore,
                    traces: Optional[TraceCache] = None
                    ) -> Tuple[List[dict], List[dict]]:
    """Compose the grid's finished CSV rows purely from the store.

    The read-only counterpart of a sweep: no cell executes. Returns
    ``(rows, missing)`` — ``rows`` in :func:`grid_cells` order with the
    same bytes a cold :func:`run_sweep` would produce (same
    :func:`_result_row`, ``status="ok"``), and ``missing`` the cell
    keys the store cannot satisfy yet (result absent, or the group's
    baseline absent when the spec normalizes). ``rows`` is complete
    only when ``missing`` is empty — the ``repro jobs result`` gate.
    """
    blank = {name: "" for name in FIELDS}
    rows: List[dict] = []
    missing: List[dict] = []
    for _i, key, row in _stored_rows(spec, n_accesses,
                                     traces or TraceCache(), store):
        if row is None:
            missing.append(key)
            rows.append(blank)
        else:
            rows.append({**blank, **row, "status": STATUS_OK, "error": ""})
    return rows, missing


def to_csv(rows: Iterable[dict], path: Union[str, Path]) -> Path:
    """Write sweep rows to ``path`` as CSV; returns the path.

    The write is atomic (temp file + ``os.replace``): a run killed
    mid-export leaves the previous CSV intact, never a half-written one.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return atomic_write_text(Path(path), buffer.getvalue())
