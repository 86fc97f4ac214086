"""Oracle correctness gate: compare a job's output with the python engine.

The reference for every workload is the python oracle engine run with
``jobs=1`` and no store (``job.py --oracle``). Its output is
reduced to digests:

* sweeps: the sha256 of the whole CSV, and one per data row;
* multicore: one per core result (every ``SimResult`` field), grouped
  into cells by (mix, core model, geometry).

Digests for the default and held-out seeds are committed in
``digests.json``; any other seed's reference is computed on demand and
kept under the checkout's ``.bench_work/oracle``. A cell fails when its
row (or any of its core lines) differs from the reference.

Regenerate the committed digests (after changing a grid) with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from grids import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Grid, grid_for

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "digests.json"


def read_output(path) -> str:
    """An output file's text, CSV line endings (``\\r\\n``) kept."""
    with open(path, newline="") as fh:
        return fh.read()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _units(grid: Grid, text: str) -> List[Tuple[str, str]]:
    """``(cell, line)`` pairs of an output, in output order."""
    if grid.kind == "sweep":
        lines = text.split("\r\n")[1:]
        return [(str(i), line) for i, line in enumerate(lines) if line]
    units = []
    for line in text.splitlines():
        mix, core_kind, geometry, _core, _fields = line.split("\t", 4)
        units.append((f"{mix}/{core_kind}/{geometry}", line))
    return units


def digest_output(grid: Grid, text: str) -> dict:
    """The reference record for one output text."""
    return {"output_sha256": _sha(text),
            "units": [[cell, _sha(line)] for cell, line in
                      _units(grid, text)]}


def failed_cells(grid: Grid, text: str, reference: dict) -> int:
    """Cells of ``text`` that differ from ``reference``.

    The reference holds only ``ok`` rows (:func:`run_oracle` checks),
    so an error row always differs from it and counts here.
    """
    if _sha(text) == reference["output_sha256"]:
        return 0
    expected: Dict[str, List[str]] = {}
    for cell, sha in reference["units"]:
        expected.setdefault(cell, []).append(sha)
    got: Dict[str, List[str]] = {}
    for cell, line in _units(grid, text):
        got.setdefault(cell, []).append(_sha(line))
    bad = {cell for cell in expected if got.get(cell) != expected[cell]}
    # Every row matches but the bytes differ (header, extra rows): no
    # cell can be trusted.
    return len(bad) or grid.cells()


def _key(grid: Grid, seed: int) -> str:
    return f"{grid.oracle_key()}/seed={seed}"


def load_committed() -> dict:
    return json.loads(COMMITTED.read_text()) if COMMITTED.exists() else {}


def run_oracle(workload: str, seed: int, scale: float, work: Path) -> dict:
    """Run the python oracle in its own process; returns its record."""
    grid = grid_for(workload, scale)
    work.mkdir(parents=True, exist_ok=True)
    out = work / "oracle-result.json"
    subprocess.run([sys.executable, str(HERE / "job.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--scale", str(scale), "--oracle",
                    "--work", str(work), "--out", str(out)],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    result = json.loads(out.read_text())
    text = read_output(result["output"])
    if grid.kind == "sweep":
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        if any(row["status"] != "ok" for row in rows):
            raise RuntimeError(f"oracle run of {workload} has error rows")
    return digest_output(grid, text)


def reference_for(workload: str, seed: int, scale: float,
                  cache_dir: Path) -> dict:
    """The committed or cached reference; computes and caches if absent."""
    grid = grid_for(workload, scale)
    key = _key(grid, seed)
    committed = load_committed()
    if key in committed:
        return committed[key]
    cache = cache_dir / (key.replace("/", "-") + ".json")
    if cache.exists():
        return json.loads(cache.read_text())
    with tempfile.TemporaryDirectory(dir=cache_dir.parent) as tmp:
        record = run_oracle(workload, seed, scale, Path(tmp))
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(record))
    return record


def main() -> int:
    """Recompute ``digests.json`` for the default and held-out seeds."""
    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    records = {}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in WORKLOADS:
            grid = grid_for(workload)
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                key = _key(grid, seed)
                if key not in records:
                    print(f"oracle {workload} seed {seed}", file=sys.stderr)
                    records[key] = run_oracle(
                        workload, seed, 1.0, Path(tmp) / f"{workload}-{seed}")
    COMMITTED.write_text(json.dumps(records, indent=1, sort_keys=True)
                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
