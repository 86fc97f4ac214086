"""Warm-state reuse: share one (trace, system) run's end state.

A sweep with a ``baseline`` config needs every (app, core, condition,
seed) group's baseline run twice: once as the baseline-config grid
cell, and again as the normalization run behind every other cell's
``speedup``/``energy_ratio`` columns (``_baseline_result`` in
:mod:`repro.sim.sweep`) — under ``--jobs N`` in every pool worker
that runs a sibling. The simulations are deterministic, so every one
of those repeats computes bit-for-bit the same component state.

:class:`WarmStateCache` eliminates the repeats. The first completed
run of a (trace, system, length) triple snapshots its full component
state through PR 4's ``state_dict()`` machinery, rendered into the
digest-protected "repro-ckpt-1" text format; sibling cells restore
that snapshot into a freshly built context and harvest the result
without replaying a single access. Restore correctness is exactly the
checkpoint/resume guarantee already proven byte-identical by
``tests/test_checkpoint_resume.py`` — a warm snapshot is a resume
from ``position == len(trace)``.

Reuse rules (enforced by the driver, documented in
``docs/architecture.md``):

* keyed by (trace content fingerprint, system name, core kind, access
  count) — the same binding a checkpoint verifies, so a snapshot can
  never warm a different trace or config (the core kind is explicit
  because ``ooo`` and ``ooo-detailed`` systems share a generated name
  while their core components snapshot incompatible state);
* disabled for runs with interval sampling, decision tracing, mid-sim
  checkpointing, or armed fault injection — those paths have
  side-channel outputs or intentional divergence a restored result
  would silently skip;
* a damaged cache entry is a *miss*, never an error: warm state is an
  optimization, and verification failures fall back to simulating.

The cache is tiered (PR 8 folded it into the content-addressed store
architecture — see ``docs/sweep-service.md``):

1. an in-process **ephemeral tier**: an LRU-bounded dict of rendered
   snapshot text and unpickled results. Serial sweeps share one
   process-wide instance (:func:`ephemeral_warm_cache`), so repeated
   ``run_sweep`` calls in the same process reuse each other's
   baselines — previously each call built a private cache and the
   layer was never consulted across invocations;
2. an optional shared **directory tier** so ``--jobs`` workers
   (separate processes) exchange snapshots through the filesystem —
   the per-sweep tmpdir layer, unchanged;
3. an optional persistent **store tier**
   (:class:`~repro.store.ResultStore`): snapshots and results are also
   published under their content digest, so *future* sweeps — any
   process, any user of the store root — fetch instead of simulating.

Writes are atomic (temp + ``os.replace``), and concurrent writers
racing on one key are benign — determinism means they write identical
bytes.

On top of state snapshots the cache memoizes finished
:class:`~repro.sim.results.SimResult` objects
(:meth:`WarmStateCache.fetch_result` / :meth:`~WarmStateCache.
store_result`): restoring a state snapshot still pays for building a
fresh simulation context, but a sweep's *normalization* runs
(``_baseline_result``) only need the result, which pickles and loads
in well under a millisecond. Result files live in the same private
per-sweep directory as the snapshots — it is created by the sweep,
never user-supplied, so unpickling from it stays within the process's
own trust domain.
"""

from __future__ import annotations

import pickle
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import CheckpointError
from ..ioutil import atomic_write_bytes, atomic_write_text, read_bytes, \
    read_text
from ..stateutil import canonical_json
from ..workloads.substrate import columns_for
from .checkpoint import render_checkpoint, trace_identity, \
    verify_checkpoint_text
from .results import SimResult

#: In-memory entries retained per cache (LRU). A snapshot text plus an
#: unpickled result is a few hundred KiB at suite lengths; 64 covers a
#: large multi-config sweep while bounding the process-wide ephemeral
#: cache, which now lives for the whole process, not one sweep.
DEFAULT_MEMORY_ENTRIES = 64


class WarmStateCache:
    """Memoizes completed-run component state per (trace, system).

    With ``directory=None`` the cache is process-local (the serial
    sweep path). With a directory, snapshots are also published as
    files so sibling pool workers share them; the in-memory layer then
    acts as a read cache over the directory. With a ``store``
    (:class:`~repro.store.ResultStore`), snapshots and results are
    additionally published under their content digest, making them
    visible to every future sweep over the same store root — the
    persistent tier of the three-tier layout in the module docs.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None,
                 store=None, max_entries: int = DEFAULT_MEMORY_ENTRIES):
        self.directory = Path(directory) if directory else None
        self.result_store = store
        self.max_entries = max_entries
        self._memory: "OrderedDict[Tuple[str, str, str, int], str]" = \
            OrderedDict()
        self._results: "OrderedDict[Tuple[str, str, str, int], SimResult]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Directory-tier publishes that failed with an I/O error.
        #: Counted silently: warm state is purely an optimization, so
        #: a failed publish costs recomputation, never correctness —
        #: but the tally keeps a read-only tmpdir observable in tests
        #: instead of an invisible ``pragma: no cover`` branch.
        self.publish_failures = 0

    def _remember(self, layer: "OrderedDict", key, value) -> None:
        """Insert into an in-memory layer, evicting LRU past the cap."""
        layer[key] = value
        layer.move_to_end(key)
        while len(layer) > self.max_entries:
            layer.popitem(last=False)

    def _key(self, trace, system) -> Tuple[str, str, str, int]:
        return (columns_for(trace).fingerprint, system.name, system.core,
                len(trace))

    def _path(self, key: Tuple[str, str, str, int]) -> Path:
        canon = canonical_json(list(key))
        tag = f"{zlib.crc32(canon.encode('utf-8')) & 0xFFFFFFFF:08x}"
        return self.directory / f"warm-{key[0]}-{tag}.json"

    def fetch(self, trace, system) -> Optional[Dict[str, Any]]:
        """The verified snapshot payload for this run, or ``None``.

        Checks the in-memory layer, then the shared directory, then
        the persistent store tier. The text is verified exactly like a
        checkpoint file (schema, digest, trace identity, system name)
        plus the completeness marker ``position == len(trace)``;
        anything that fails verification is treated as a miss — the
        caller simulates, it never errors.
        """
        key = self._key(trace, system)
        text = self._memory.get(key)
        if text is None and self.directory is not None:
            path = self._path(key)
            try:
                text = read_text(path)
            except OSError:
                text = None
        if text:
            try:
                payload = verify_checkpoint_text(
                    text, source=f"warm state {key}", trace=trace,
                    system_name=system.name)
            except CheckpointError:
                payload = None
            if (payload is not None
                    and payload.get("position") == len(trace)):
                self._remember(self._memory, key, text)
                self.hits += 1
                return payload
        if self.result_store is not None:
            digest = self.result_store.digest(trace, system)
            payload = self.result_store.fetch_state(digest, trace=trace,
                                             system_name=system.name)
            if (payload is not None
                    and payload.get("position") == len(trace)):
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
        key = self._key(trace, system)
        if key in self._memory:
            return
        text = render_checkpoint(
            state=state, position=len(trace), trace=trace,
            system_name=system.name,
            identity=trace_identity(trace))
        self._remember(self._memory, key, text)
        self.stores += 1
        if self.directory is not None:
            try:
                atomic_write_text(self._path(key), text, fsync=False)
            except OSError:
                self.publish_failures += 1
        if self.result_store is not None:
            self.result_store.store_state(
                self.result_store.digest(trace, system), text)

    def _result_path(self, key: Tuple[str, str, str, int]) -> Path:
        return self._path(key).with_suffix(".result.pkl")

    def fetch_result(self, trace, system) -> Optional[SimResult]:
        """The memoized finished result for this run, or ``None``.

        Same two-level lookup and same (fingerprint, system, length)
        binding as :meth:`fetch`, but returning the pickled
        :class:`SimResult` directly — no context rebuild. Anything
        unreadable or of the wrong type is a miss, never an error.
        """
        key = self._key(trace, system)
        result = self._results.get(key)
        if result is None and self.directory is not None:
            try:
                result = pickle.loads(read_bytes(self._result_path(key)))
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError):
                result = None
            if not isinstance(result, SimResult):
                result = None
        if result is None and self.result_store is not None:
            result = self.result_store.fetch_result(
                self.result_store.digest(trace, system))
        if result is None:
            self.misses += 1
            return None
        self._remember(self._results, key, result)
        self.hits += 1
        return result

    def store_result(self, trace, system, result: SimResult) -> None:
        """Publish a finished result for this run's siblings.

        File writes are atomic (temp + ``os.replace`` via
        :func:`repro.ioutil.atomic_write_bytes` — whose temp files
        carry the ``.tmp`` suffix the store's litter sweep and doctor
        recognize, unlike the suffix-less ``mkstemp`` this method used
        to inline) so a reader can never observe a torn pickle; racing
        writers produce identical bytes by determinism.
        """
        key = self._key(trace, system)
        if key in self._results:
            return
        self._remember(self._results, key, result)
        self.stores += 1
        if self.directory is not None:
            try:
                atomic_write_bytes(self._result_path(key),
                                   pickle.dumps(result), fsync=False)
            except OSError:
                self.publish_failures += 1
        if self.result_store is not None:
            self.result_store.store_result(
                self.result_store.digest(trace, system), result)

    def clear(self) -> None:
        """Drop the in-memory layer (shared files are left alone)."""
        self._memory.clear()
        self._results.clear()


#: Per-process memo of directory-backed caches, so every cell a pool
#: worker runs shares one in-memory layer (and therefore fetches a
#: given snapshot text from disk at most once per process).
_SHARED: Dict[Tuple[str, Optional[str]], WarmStateCache] = {}


def warm_cache_for(directory: Union[str, Path],
                   store_root: Optional[Union[str, Path]] = None
                   ) -> WarmStateCache:
    """The process-wide :class:`WarmStateCache` over ``directory``.

    With ``store_root``, the cache is additionally backed by the
    persistent :class:`~repro.store.ResultStore` at that root — the
    path pool workers take when the sweep runs with ``--store``, so
    their completed baselines persist beyond the campaign.
    """
    key = (str(directory), str(store_root) if store_root else None)
    cache = _SHARED.get(key)
    if cache is None:
        store = None
        if store_root is not None:
            from ..store import ResultStore
            store = ResultStore(store_root)
        cache = _SHARED[key] = WarmStateCache(directory, store=store)
    return cache


#: The process-wide ephemeral cache serial sweeps share. Module-level
#: so repeated ``run_sweep`` calls in one process warm each other.
_EPHEMERAL: Optional[WarmStateCache] = None


def ephemeral_warm_cache() -> WarmStateCache:
    """The process-wide in-memory :class:`WarmStateCache`.

    The serial sweep path used to build a *private* ``WarmStateCache``
    per ``run_sweep`` call, so its in-memory layer was never consulted
    across invocations in the same process — every new sweep
    re-simulated baselines the previous one had already published.
    Routing every serial sweep through this shared instance (the
    store architecture's ephemeral tier) fixes that: the layer is
    LRU-bounded (:data:`DEFAULT_MEMORY_ENTRIES`), and reuse stays safe
    because entries are keyed by (trace content fingerprint, system
    name, length) and verified like checkpoints on every fetch.
    """
    global _EPHEMERAL
    if _EPHEMERAL is None:
        _EPHEMERAL = WarmStateCache()
    return _EPHEMERAL
