"""One cold job: a fresh process runs one workload through the public API.

Usage (the orchestrator, ``run.py``, is the normal caller)::

    python3 perfbench/job.py --workload cell-cold --seed 0 \
        --work DIR --out result.json [--oracle] [--trace] [--scale 1.0] \
        [--store DIR]

By default the job runs the workload as users do (``engine="kernel"``,
the workload's ``--jobs``, and its store: ``--store`` when given, else a
fresh one under ``DIR``; set-up of store-warm fills its store this way).
``--oracle`` runs the python reference engine with ``jobs=1`` and no
store. The job writes its output (the sweep CSV, or one line per
multicore core result) to ``DIR/output.*`` and its measurements to
``--out``. ``ready`` in that file is the ``CLOCK_MONOTONIC`` reading at
which set-up ended, so the parent can time set-up from before it
started this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from grids import Grid, grid_for, mix_seed  # noqa: E402

def _child_pids():
    """Pids whose parent is this process (scans ``/proc``)."""
    me, pids = os.getpid(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # exited while scanning
        # The command name is parenthesised and may hold spaces.
        if int(text[text.rindex(")") + 2:].split()[1]) == me:
            pids.add(int(stat.parent.name))
    return pids


def _wait(pid: int, deadline: float) -> None:
    """Reap ``pid``; SIGKILL it once ``deadline`` passes."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return  # already reaped (e.g. by the pool's own thread)
        if done:
            return
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            return
        time.sleep(0.002)


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every child so ``RUSAGE_CHILDREN`` counts the workers.

    ``run_sweep`` returns once its pool is told to terminate, before the
    workers are reaped, so their CPU time is missing from
    ``RUSAGE_CHILDREN`` until something waits for them. Workers are
    reaped first; the multiprocessing resource tracker (which the
    workers keep alive through an inherited pipe) is stopped after.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    deadline = time.monotonic() + timeout_s
    for pid in sorted(_child_pids() - {tracker_pid}):
        _wait(pid, deadline)
    if tracker_pid is not None:
        tracker._stop()
    for pid in sorted(_child_pids()):
        _wait(pid, deadline)


def _l1(geometry: str):
    from repro.sim.config import BASELINE_L1, SIPT_GEOMETRIES
    return BASELINE_L1 if geometry == "baseline" else SIPT_GEOMETRIES[geometry]


def _system(core: str, geometry: str):
    from repro.sim.config import inorder_system, ooo_system
    return (inorder_system if core == "inorder" else ooo_system)(_l1(geometry))


class SweepJob:
    """``run_sweep`` + ``to_csv`` over one sweep grid."""

    def __init__(self, grid: Grid, seed: int, engine: str, jobs: int,
                 store_dir, out: Path):
        from repro.sim.resilience import ResilientRunner
        from repro.sim.sweep import SweepSpec
        from repro.store.resultstore import ResultStore
        configs = {g: _l1(g) for g in grid.geometries}
        self.spec = SweepSpec(apps=list(grid.apps), configs=configs,
                              cores=list(grid.cores), seeds=[seed],
                              baseline="baseline")
        self.runner = ResilientRunner(jobs=jobs)
        self.store = ResultStore(store_dir) if store_dir else None
        self.grid, self.engine, self.out = grid, engine, out

    def run(self) -> None:
        from repro.sim import sweep
        rows = sweep.run_sweep(self.spec, n_accesses=self.grid.accesses,
                               runner=self.runner, engine=self.engine,
                               store=self.store)
        sweep.to_csv(rows, self.out)
        self.rows = rows

    def facts(self) -> dict:
        stats = self.runner.stats
        ok = [r for r in self.rows if r["status"] == "ok"]
        return {"store_hits": stats.store_hits, "retries": stats.retries,
                "worker_restarts": stats.worker_restarts,
                "model": _model([r["ipc"] for r in ok],
                                [r["l1_miss_rate"] for r in ok],
                                [r["fast_fraction"] for r in ok])}


class MulticoreJob:
    """``simulate_multicore`` over Table III mixes and geometries."""

    def __init__(self, grid: Grid, seed: int, engine: str, out: Path):
        from repro.sim.experiment import TraceCache
        from repro.workloads.mixes import MIXES
        self.members = {mix: MIXES[mix] for mix in grid.apps}
        self.systems = {(core, g): _system(core, g)
                        for core in grid.cores for g in grid.geometries}
        self.traces = TraceCache()
        self.grid, self.seed, self.engine, self.out = grid, seed, engine, out

    def run(self) -> None:
        from dataclasses import asdict
        from repro.ioutil import atomic_write_text
        from repro.sim import driver
        lines, self.results = [], []
        for mix, members in self.members.items():
            traces = [self.traces.get(app, self.grid.accesses,
                                      seed=mix_seed(self.seed, core))
                      for core, app in enumerate(members)]
            for (core_kind, geometry), system in self.systems.items():
                results = driver.simulate_multicore(traces, system,
                                                    engine=self.engine)
                for core, result in enumerate(results):
                    fields = json.dumps(asdict(result), sort_keys=True,
                                        default=str)
                    lines.append(f"{mix}\t{core_kind}\t{geometry}\t"
                                 f"{core}\t{fields}")
                self.results.extend(results)
        atomic_write_text(self.out, "\n".join(lines) + "\n")

    def facts(self) -> dict:
        results = self.results
        return {"store_hits": 0, "retries": 0, "worker_restarts": 0,
                "model": _model([r.ipc for r in results],
                                [r.l1_stats.miss_rate for r in results],
                                [r.fast_fraction for r in results])}


def _model(ipc, miss_rate, fast) -> dict:
    """Simulated-model invariants: a speed-only change must not move them."""
    def mean(values):
        return sum(values) / len(values) if values else 0.0
    return {"model.ipc_geomean": (math.exp(mean([math.log(v) for v in ipc]))
                                  if ipc else 0.0),
            "model.l1_miss_rate_mean": mean(miss_rate),
            "model.fast_fraction_mean": mean(fast)}


def _dir_bytes(path) -> int:
    if not path:
        return 0
    return sum(p.stat().st_size for p in Path(path).rglob("*")
               if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--store", type=Path)
    args = parser.parse_args(argv)

    grid = grid_for(args.workload, args.scale)
    args.work.mkdir(parents=True, exist_ok=True)
    oracle = args.oracle
    engine = "python" if oracle else "kernel"
    jobs = 1 if oracle else grid.jobs
    store_dir = None
    if not oracle and grid.store != "none":
        store_dir = args.store or args.work / "store"
    if grid.kind == "sweep":
        job = SweepJob(grid, args.seed, engine, jobs, store_dir,
                       args.work / "output.csv")
    else:
        job = MulticoreJob(grid, args.seed, engine,
                           args.work / "output.txt")
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import tracer as tracing
        trace_dir = args.work / "spans"
        trace_dir.mkdir(exist_ok=True)
        tracer = tracing.install(trace_dir)
        store_before = _dir_bytes(store_dir)
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    job.run()
    wall = time.perf_counter() - start
    reap_children()
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_parent = (me.ru_utime - cpu0.ru_utime) + (me.ru_stime - cpu0.ru_stime)
    cpu_workers = kids.ru_utime + kids.ru_stime
    result = {"ready": ready, "wall_s": wall,
              "cpu_s": cpu_parent + cpu_workers,
              "cpu_workers_s": cpu_workers,
              "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
              "output": str(job.out),
              **job.facts()}
    if tracer is not None:
        tracer.flush()
        tracer.uninstall()
        spans, counts = tracing.load_spans(trace_dir)
        layers = tracing.layer_metrics(spans, counts, jobs)
        layers["store.bytes_written"] = _dir_bytes(store_dir) - store_before
        layers["executors.retries"] = result["retries"]
        layers["executors.worker_restarts"] = result["worker_restarts"]
        result["layers"] = layers
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
