"""Cold, layered end-to-end benchmark of the SIPT simulator.

Usage::

    python3 perfbench/run.py --workload cell-cold --seed 0 --seconds 25 \
        --trace 0

Runs from the root of a source checkout. For ``--seconds`` seconds it
starts one fresh process per repetition (``job.py``); each runs the
workload once, cold, through the public API, and every output is
checked against the python oracle (``oracle.py``). The last line of
stdout is one JSON object: ``correct``, ``attempted``/``failed`` cells,
and ``metrics`` — the end-to-end metrics (medians over repetitions)
with ``--trace 0``, the per-layer metrics of traced repetitions with
``--trace 1``. See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from grids import DEFAULT_SEED, WORKLOADS, grid_for  # noqa: E402
import oracle  # noqa: E402

#: Wall-clock cap on one job process; past it the job counts as failed.
JOB_TIMEOUT_S = 120.0
#: Never start another repetition past this many seconds of the run,
#: so one run stays well inside the 180 s every run must end within.
RUN_BUDGET_S = 150.0
MIN_REPS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def _job(args, work: Path, trace: bool = False, store: Path = None):
    """Start one job process and wait; ``(result, spawn time)``.

    ``result`` is ``None`` when the job failed or timed out. The job
    runs in its own session so a timeout kills its pool workers too.
    """
    work.mkdir(parents=True)
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "job.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(args.scale),
           "--work", str(work), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if store is not None:
        cmd += ["--store", str(store)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    if code != 0 or not out.exists():
        return None, spawned
    return json.loads(out.read_text()), spawned


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every access count (tests only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    grid = grid_for(args.workload, args.scale)
    bench_dir = ROOT / ".bench_work"
    run_dir = bench_dir / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir)
    os.environ["REPRO_STORE_DIR"] = str(run_dir / "default-store")
    os.environ["XDG_CACHE_HOME"] = str(run_dir / "cache")
    try:
        return _run(args, grid, run_dir, bench_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, grid, run_dir: Path, bench_dir: Path) -> int:
    # "Build": byte-compile the sources so the first repetition does
    # not pay for it and every job imports alike.
    import compileall
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    reference = oracle.reference_for(args.workload, args.seed, args.scale,
                                     bench_dir / "oracle")

    fill_s = 0.0
    store = None
    if grid.store == "warm":
        store = run_dir / "warm-store"
        result, spawned = _job(args, run_dir / "fill", store=store)
        if result is None:
            print("error: store fill failed", file=sys.stderr)
            return 1
        fill_s = time.monotonic() - spawned

    samples, layer_samples, traced_walls = [], [], []
    attempted = failed = 0
    started = time.monotonic()
    rep = 0
    rep_s = []
    while True:
        elapsed = time.monotonic() - started
        # Stop before a repetition that would end past --seconds (by the
        # median repetition so far), once MIN_REPS are in.
        if rep >= MIN_REPS and (elapsed + _median(rep_s) > args.seconds
                                or elapsed >= RUN_BUDGET_S):
            break
        # With --trace 1, repetitions alternate untraced and traced so
        # the overhead compares runs made under the same conditions.
        traced = bool(args.trace) and rep % 2 == 1
        result, spawned = _job(args, run_dir / f"rep-{rep}", trace=traced,
                               store=store)
        rep_s.append(time.monotonic() - spawned)
        rep += 1
        attempted += grid.cells()
        bad = _failed_cells(grid, result, reference)
        failed += bad
        shutil.rmtree(run_dir / f"rep-{rep - 1}", ignore_errors=True)
        if result is None:
            continue
        if traced:
            layer_samples.append({**result["layers"], **result["model"]})
            traced_walls.append(result["wall_s"])
            continue
        samples.append({
            "setup_s": fill_s + (result["ready"] - spawned),
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (grid.cells() - bad) / grid.cells(),
        })

    if args.trace:
        metrics = {}
        if layer_samples:
            for name in layer_samples[0]:
                metrics[name] = {"value": _median([s[name] for s in
                                                   layer_samples]),
                                 "unit": _unit(name)}
        wall = _median([s["wall_s"] for s in samples])
        traced_wall = _median(traced_walls)
        metrics["failed_ratio"] = {"value": failed / attempted,
                                   "unit": "ratio"}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall,
                                       "unit": "s"}
        for part, name in (("workloads", "workloads.generate_trace.self_s"),
                           ("make_engine", "kernel.make_engine.self_s"),
                           ("replay", "kernel.replay.self_s"),
                           ("driver", "driver.simulate.self_s")):
            share = (metrics[name]["value"] / traced_wall
                     if name in metrics and traced_wall else 0.0)
            metrics[f"trace.wall_share.{part}"] = {"value": share,
                                                   "unit": "ratio"}
    else:
        metrics = {name: {"value": _median([s[name] for s in samples]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0 and bool(samples),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _failed_cells(grid, result, reference) -> int:
    """Cells of one job that failed; all of them if the job did."""
    if result is None:
        return grid.cells()
    if grid.store == "warm" and result["store_hits"] != grid.cells():
        # Not every cell came from the store: the job measured a
        # different workload.
        return grid.cells()
    try:
        return oracle.failed_cells(grid, oracle.read_output(result["output"]),
                                   reference)
    except (OSError, ValueError):   # missing or malformed output
        return grid.cells()


def _unit(name: str) -> str:
    if name.endswith("accesses_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    if name == "model.ipc_geomean":
        return "IPC"
    if name.startswith("model."):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
