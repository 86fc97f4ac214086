"""Span tracing for the benchmark's traced run, from outside the program.

:func:`install` replaces each layer's public entry points with timing
wrappers *where the callers look them up* (``generate_trace`` is bound
into ``repro.sim.experiment``; ``make_engine`` is looked up on
``repro.sim.kernel`` at call time; methods are looked up on their
class). It must run before the sweep's process pool forks, so the
``--jobs`` workers inherit the wrappers. Spans stay in memory; a worker
appends its own to ``spans-<pid>.jsonl`` after every cell it runs
(pool workers are terminated, not exited, so nothing later is
guaranteed to run there) and the parent merges every file at the end.

A span is ``(id, parent, name, start, end, attrs)``; its self time is
its duration minus the durations of its direct children. Untraced runs
never import this module, so they run the original functions.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span and counter recorder for one process tree."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._pid = os.getpid()
        self._next_id = 0
        self._stack: List[int] = []
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._undo: List[Callable[[], None]] = []
        #: ``(owner, attr)`` of every name currently wrapped.
        self.patched: List[tuple] = []

    # -- recording ---------------------------------------------------

    def _forked(self) -> None:
        """Drop state inherited from the parent in a forked worker."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._stack = []
            self.spans = []
            self.counts = Counter()

    def count(self, name: str, n: int = 1) -> None:
        self._forked()
        self.counts[name] += n

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (e.g. the access count of a replay range).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._forked()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                extra = attrs(args, kwargs, result) if attrs else None
                tracer.spans.append([span_id, parent, name, start, end,
                                     extra])
        return wrapper

    def flush(self) -> None:
        """Append this process's spans and counts to its own file."""
        self._forked()
        if not self.spans and not self.counts:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({"pid": self._pid, "spans": self.spans,
                                 "counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = Counter()

    # -- patching ----------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember how to restore it."""
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))
        self.patched.append((owner, attr))

    def patch_span(self, owner, attr: str, name: str,
                   attrs: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, property):
            self.patch(owner, attr, property(
                self.wrap(name, original.fget, attrs)))
        else:
            self.patch(owner, attr, self.wrap(name, original, attrs))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            self._undo.pop()()
        self.patched = []


def install(out_dir: Path) -> Tracer:
    """Wrap every layer's entry points; returns the live tracer."""
    from repro.sim import driver, executors, experiment, kernel, sweep
    from repro.sim.resilience import ResilientRunner
    from repro.sim.warmstate import WarmStateCache
    from repro.store.resultstore import ResultStore
    from repro.workloads import substrate

    tracer = Tracer(out_dir)
    span = tracer.patch_span

    # workloads
    span(experiment, "generate_trace", "workloads.generate_trace")

    # substrate: derived columns, shared-memory publish/attach, memo
    for attr in ("vpn", "ppn", "index_delta", "fingerprint", "lists"):
        span(substrate.TraceColumns, attr, "substrate.columns")
    span(substrate.TraceStore, "publish", "substrate.publish")
    span(sweep, "attach", "substrate.attach")
    memo_get = substrate.KernelMemo.__dict__["get"]

    def counted_get(self, key, default=None):
        value = memo_get(self, key, default)
        if isinstance(key, tuple) and key and key[0] in ("tlb", "spec",
                                                         "lat"):
            tracer.count(f"kernel_memo.{key[0]}.gets")
            if value is not None:
                tracer.count(f"kernel_memo.{key[0]}.hits")
        return value
    tracer.patch(substrate.KernelMemo, "get", counted_get)

    # kernel: stream build (with the oracle it receives), replay,
    # multicore engine
    make_engine = kernel.__dict__["make_engine"]
    fallback_accesses = lambda a, k, r: {"accesses": a[2] - a[1]}  # noqa: E731

    def traced_make_engine(ctx, oracle):
        engine = make_engine(ctx, tracer.wrap(
            "kernel.oracle_fallback", oracle, fallback_accesses))
        if engine is None:
            tracer.count("kernel.make_engine.declined")
            tracer.count("kernel.declined_accesses", len(ctx.trace))
        return engine
    functools.update_wrapper(traced_make_engine, make_engine)
    tracer.patch(kernel, "make_engine",
                 tracer.wrap("kernel.make_engine", traced_make_engine))
    span(kernel.KernelEngine, "replay", "kernel.replay",
         lambda a, k, r: {"accesses": a[3] - a[2]})
    run_mc = kernel.__dict__["run_multicore_kernel"]

    def traced_run_mc(contexts):
        done = run_mc(contexts)
        if not done:
            tracer.count("kernel.declined_accesses",
                         sum(len(ctx.trace) for ctx in contexts))
        return done
    functools.update_wrapper(traced_run_mc, run_mc)
    tracer.patch(kernel, "run_multicore_kernel",
                 tracer.wrap("kernel.run_multicore_kernel", traced_run_mc))

    # driver
    span(experiment, "simulate", "driver.simulate")
    span(driver, "simulate_multicore", "driver.simulate_multicore")

    # warm state
    hit = lambda a, k, r: {"hit": r is not None}  # noqa: E731
    span(WarmStateCache, "fetch", "warmstate.fetch", hit)
    span(WarmStateCache, "fetch_result", "warmstate.fetch", hit)
    span(WarmStateCache, "store", "warmstate.store")
    span(WarmStateCache, "store_result", "warmstate.store")

    # persistent result store
    span(ResultStore, "digest", "store.digest")
    span(ResultStore, "fetch_result", "store.fetch_result", hit)
    span(ResultStore, "store_result", "store.store_result")
    span(ResultStore, "fetch_state", "store.state")
    span(ResultStore, "store_state", "store.state")

    # executors / resilience
    span(ResilientRunner, "run_cells", "executors.run_cells")
    worker_cell = tracer.wrap("executors.worker_cell",
                              executors.__dict__["_worker_cell"])

    @functools.wraps(executors.__dict__["_worker_cell"])
    def flushing_worker_cell(*args, **kwargs):
        try:
            return worker_cell(*args, **kwargs)
        finally:
            tracer.flush()
    tracer.patch(executors, "_worker_cell", flushing_worker_cell)

    # sweep front end
    span(sweep, "run_sweep", "sweep.run_sweep")
    span(sweep, "to_csv", "sweep.to_csv")
    return tracer


def load_spans(out_dir: Path):
    """Every flushed span and counter under ``out_dir``, merged.

    Span ids are per process, so each is keyed by ``(pid, id)``.
    """
    spans, counts = [], Counter()
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            pid = record["pid"]
            for span_id, parent, name, start, end, extra in \
                    record["spans"]:
                spans.append({"id": (pid, span_id),
                              "parent": (None if parent is None
                                         else (pid, parent)),
                              "name": name, "dur": end - start,
                              "attrs": extra or {}})
            counts.update(record["counts"])
    return spans, counts


def self_times(spans) -> Dict[str, float]:
    """Total self time per span name (duration minus direct children)."""
    child_time: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["dur"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["dur"] - child_time[span["id"]]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, jobs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced job, by name."""
    self_s = self_times(spans)
    calls: Counter = Counter(span["name"] for span in spans)

    def attr_sum(name: str, key: str) -> float:
        return sum(span["attrs"].get(key, 0) for span in spans
                   if span["name"] == name)

    def hits(name: str) -> int:
        return sum(1 for span in spans
                   if span["name"] == name and span["attrs"].get("hit"))

    fallback = attr_sum("kernel.oracle_fallback", "accesses")
    replayed = attr_sum("kernel.replay", "accesses")
    kernel_self = self_s["kernel.replay"]
    run_cells_wall = sum(span["dur"] for span in spans
                         if span["name"] == "executors.run_cells")
    worker_busy = sum(span["dur"] for span in spans
                      if span["name"] == "executors.worker_cell")
    metrics = {
        "workloads.generate_trace.calls": calls["workloads.generate_trace"],
        "workloads.generate_trace.self_s": self_s["workloads.generate_trace"],
        "substrate.columns.self_s": self_s["substrate.columns"],
        "substrate.publish.self_s": self_s["substrate.publish"],
        "substrate.publish.calls": calls["substrate.publish"],
        "substrate.attach.calls": calls["substrate.attach"],
        "kernel.make_engine.calls": calls["kernel.make_engine"],
        "kernel.make_engine.self_s": self_s["kernel.make_engine"],
        "kernel.make_engine.declined": counts["kernel.make_engine.declined"],
        "kernel.replay.self_s": kernel_self,
        "kernel.replay.accesses": replayed,
        "kernel.replay.accesses_per_s": _ratio(replayed - fallback,
                                               kernel_self),
        "kernel.run_multicore_kernel.self_s":
            self_s["kernel.run_multicore_kernel"],
        "kernel.oracle_fallback.accesses":
            fallback + counts["kernel.declined_accesses"],
        "driver.simulate.calls": calls["driver.simulate"],
        "driver.simulate.self_s": self_s["driver.simulate"],
        "driver.simulate_multicore.self_s":
            self_s["driver.simulate_multicore"],
        "warmstate.fetch.calls": calls["warmstate.fetch"],
        "warmstate.hit_ratio": _ratio(hits("warmstate.fetch"),
                                      calls["warmstate.fetch"]),
        "warmstate.self_s": (self_s["warmstate.fetch"]
                             + self_s["warmstate.store"]),
        "store.digest.calls": calls["store.digest"],
        "store.digest.self_s": self_s["store.digest"],
        "store.fetch_result.self_s": self_s["store.fetch_result"],
        "store.hit_ratio": _ratio(hits("store.fetch_result"),
                                  calls["store.fetch_result"]),
        "store.store_result.self_s": self_s["store.store_result"],
        "store.state.self_s": self_s["store.state"],
        "executors.run_cells.self_s": self_s["executors.run_cells"],
        "executors.worker_busy_ratio": _ratio(worker_busy,
                                              jobs * run_cells_wall),
        "sweep.run_sweep.self_s": self_s["sweep.run_sweep"],
        "sweep.to_csv.self_s": self_s["sweep.to_csv"],
    }
    for part in ("tlb", "spec", "lat"):
        gets = counts[f"kernel_memo.{part}.gets"]
        metrics[f"substrate.kernel_memo.{part}.gets"] = gets
        metrics[f"substrate.kernel_memo.{part}.hit_ratio"] = _ratio(
            counts[f"kernel_memo.{part}.hits"], gets)
    return metrics
