"""Warm-state reuse: share one (trace, system) run's end state.

A sweep with a ``baseline`` config needs every (app, core, condition,
seed) group's baseline run twice: once as the baseline-config grid
cell, and again as the normalization run behind every other cell's
``speedup``/``energy_ratio`` columns (``_baseline_result`` in
:mod:`repro.sim.sweep`) — under ``--jobs N`` in every pool worker
that runs a sibling. The simulations are deterministic, so every one
of those repeats computes bit-for-bit the same component state.

:class:`WarmStateCache` eliminates the repeats. The first completed
run of a (trace, system) pair snapshots its full component state
through the components' ``state_dict()`` machinery, rendered into the
digest-protected "repro-ckpt-1" text format; sibling cells restore
that snapshot into a freshly built context and harvest the result
without replaying a single access. Restore correctness is exactly the
checkpoint/resume guarantee already proven byte-identical by
``tests/test_checkpoint_resume.py`` — a warm snapshot is a resume
from ``position == len(trace)``. On top of state snapshots the cache
memoizes finished :class:`~repro.sim.results.SimResult` objects
(:meth:`WarmStateCache.fetch_result` / :meth:`~WarmStateCache.
store_result`): a sweep's normalization runs only need the result,
which skips even the context rebuild.

Reuse rules (enforced by the driver, documented in
``docs/architecture.md``):

* keyed by :func:`~repro.store.resultstore.cell_digest` — the trace's
  content identity plus the full system config, core kind included —
  so a snapshot can never warm a different trace or config (``ooo``
  and ``ooo-detailed`` systems share a generated name but not a
  digest);
* disabled for runs with interval sampling, decision tracing, mid-sim
  checkpointing, or armed fault injection — those paths have
  side-channel outputs or intentional divergence a restored result
  would silently skip;
* a damaged entry is a *miss*, never an error: warm state is an
  optimization, and verification failures fall back to simulating.

The cache has two tiers, both keyed on that digest:

1. an in-process **memory tier**: an LRU-bounded dict of rendered
   snapshot text and results;
2. an optional **store tier** (:class:`~repro.store.ResultStore`):
   snapshots and results are also published under their digest, so
   other processes — pool workers of the same sweep, or any future
   sweep over the same store root — fetch instead of simulating. The
   store's atomic writes, corrupt-entry handling, and read-only
   degradation apply unchanged.

:func:`warm_cache_for` is the process-wide registry of caches, one per
store root; ``None`` is the memory-only cache serial sweeps without a
store share, so repeated ``run_sweep`` calls in one process reuse
each other's baselines. A ``--jobs N`` sweep without ``--store`` backs
its workers' caches with a sweep-scoped temporary store root (see
:func:`repro.sim.sweep.run_sweep`).
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import CheckpointError
from ..store.resultstore import ResultStore, cell_digest
from .checkpoint import render_checkpoint, trace_identity, \
    verify_checkpoint_text
from .results import SimResult

#: In-memory entries retained per cache (LRU). A snapshot text plus a
#: result is a few hundred KiB at suite lengths; 64 covers a large
#: multi-config sweep while bounding the process-wide memory-only
#: cache, which lives for the whole process, not one sweep.
DEFAULT_MEMORY_ENTRIES = 64


class WarmStateCache:
    """Memoizes completed-run state and results per (trace, system).

    An LRU memory tier over an optional ``store``
    (:class:`~repro.store.ResultStore`): lookups try memory, then the
    store; publications go to both.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 max_entries: int = DEFAULT_MEMORY_ENTRIES):
        self.result_store = store
        self.max_entries = max_entries
        self._states: "OrderedDict[str, str]" = OrderedDict()
        self._results: "OrderedDict[str, SimResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _remember(self, layer: "OrderedDict", digest: str, value) -> None:
        """Insert into an in-memory layer, evicting LRU past the cap."""
        layer[digest] = value
        layer.move_to_end(digest)
        while len(layer) > self.max_entries:
            layer.popitem(last=False)

    def fetch(self, trace, system) -> Optional[Dict[str, Any]]:
        """The verified snapshot payload for this run, or ``None``.

        Checks the memory tier, then the store. The text is verified
        exactly like a checkpoint file (schema, digest, trace identity,
        system name) plus the completeness marker
        ``position == len(trace)``; anything that fails verification
        is treated as a miss — the caller simulates, it never errors.
        """
        digest = cell_digest(trace, system)
        payload = None
        text = self._states.get(digest)
        if text is not None:
            try:
                payload = verify_checkpoint_text(
                    text, source=f"warm state {digest[:12]}", trace=trace,
                    system_name=system.name)
            except CheckpointError:
                payload = None
            if payload is not None:
                self._states.move_to_end(digest)
        if payload is None and self.result_store is not None:
            payload = self.result_store.fetch_state(
                digest, trace=trace, system_name=system.name)
        if payload is not None and payload.get("position") == len(trace):
            self.hits += 1
            return payload
        self.misses += 1
        return None

    def store(self, trace, system, state: Dict[str, Any]) -> None:
        """Publish a completed run's component state for siblings.

        ``position`` is stamped as ``len(trace)`` — the completeness
        marker :meth:`fetch` requires — and the snapshot carries the
        same trace/system binding a mid-run checkpoint would, so the
        verification path is shared end to end.
        """
        digest = cell_digest(trace, system)
        if digest in self._states:
            return
        text = render_checkpoint(
            state=state, position=len(trace), trace=trace,
            system_name=system.name,
            identity=trace_identity(trace))
        self._remember(self._states, digest, text)
        self.stores += 1
        if self.result_store is not None:
            self.result_store.store_state(digest, text)

    def fetch_result(self, trace, system) -> Optional[SimResult]:
        """The memoized finished result for this run, or ``None``.

        Same two tiers and same digest as :meth:`fetch`, but returning
        the :class:`SimResult` directly — no context rebuild. Anything
        unreadable or of the wrong type is a miss, never an error.
        """
        digest = cell_digest(trace, system)
        result = self._results.get(digest)
        if result is None and self.result_store is not None:
            result = self.result_store.fetch_result(digest)
        if result is None:
            self.misses += 1
            return None
        self._remember(self._results, digest, result)
        self.hits += 1
        return result

    def store_result(self, trace, system, result: SimResult,
                     meta: Optional[Dict[str, Any]] = None) -> None:
        """Publish a finished result for this run's siblings.

        ``meta`` is the store entry's human-readable provenance (see
        :meth:`ResultStore.store_result`); for a sweep's baseline runs
        this is their only publication.
        """
        digest = cell_digest(trace, system)
        if digest in self._results:
            return
        self._remember(self._results, digest, result)
        self.stores += 1
        if self.result_store is not None:
            self.result_store.store_result(digest, result, meta=meta)

    def clear(self) -> None:
        """Drop the memory tier (store entries are left alone)."""
        self._states.clear()
        self._results.clear()


#: The process-wide registry: one cache per store root, ``None`` for
#: the memory-only cache. Pool workers fill their own copy, so every
#: cell a worker runs shares one memory tier.
_SHARED: Dict[Optional[str], WarmStateCache] = {}

StoreRoot = Union[None, str, Path, ResultStore]


def _registry_key(store_root: StoreRoot) -> Optional[str]:
    if isinstance(store_root, ResultStore):
        store_root = store_root.root
    return None if store_root is None else str(store_root)


def warm_cache_for(store_root: StoreRoot = None) -> WarmStateCache:
    """The process-wide :class:`WarmStateCache` for ``store_root``.

    ``None`` is the memory-only cache. A root directory backs the cache
    with a :class:`~repro.store.ResultStore` there; a ``ResultStore``
    instance backs a new entry with *that* instance, so a sweep's warm
    tier counts its I/O failures on the store the caller reports on.
    """
    key = _registry_key(store_root)
    cache = _SHARED.get(key)
    if cache is None:
        store = store_root
        if key is not None and not isinstance(store, ResultStore):
            store = ResultStore(store_root)
        cache = _SHARED[key] = WarmStateCache(store=store)
    return cache


def drop_warm_cache(store_root: StoreRoot) -> None:
    """Forget the registry entry for ``store_root`` (if any)."""
    _SHARED.pop(_registry_key(store_root), None)
