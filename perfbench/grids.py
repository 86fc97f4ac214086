"""The benchmark's four workloads, as data.

Each workload is one cold job a user of the simulator waits on. The
access counts are scaled down from the sizes first measured for the
campaign (100k / 50k / 20k per core) so that one job takes about two
seconds on a 2-CPU host and a fixed-length run holds several cold
repetitions; ``scale`` shrinks them further for the benchmark's own
tests. Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

#: The default workload seed, and the held-out seed whose oracle
#: digests are committed but which was not used while tuning.
DEFAULT_SEED = 0
HELD_OUT_SEED = 101

SWEEP_GEOMETRIES = ["baseline", "32K_2w", "32K_4w", "64K_4w", "128K_4w"]
GEOMETRY_APPS = ["perlbench", "libquantum", "mcf"]


@dataclass(frozen=True)
class Grid:
    """One workload's inputs, minus the seed.

    ``kind`` is ``"sweep"`` (``run_sweep`` + ``to_csv``) or
    ``"multicore"`` (``simulate_multicore`` over Table III mixes, in
    which case ``apps`` holds mix names). ``store`` is ``"none"``,
    ``"fresh"`` (an empty store per job) or ``"warm"`` (a store that
    set-up filled by running the same grid in another process).
    """

    kind: str
    apps: Tuple[str, ...]
    geometries: Tuple[str, ...]
    cores: Tuple[str, ...]
    accesses: int
    jobs: int
    store: str

    def oracle_key(self) -> str:
        """Identity of the oracle output: everything but execution.

        ``jobs`` and ``store`` are left out because the CSV is
        byte-identical across them, so geometry-sweep and store-warm
        share one reference.
        """
        ident = {k: v for k, v in asdict(self).items()
                 if k not in ("jobs", "store")}
        canon = json.dumps(ident, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def cells(self) -> int:
        """Cells one job runs: sweep rows, or multicore simulations."""
        per_app = len(self.geometries) * len(self.cores)
        return len(self.apps) * per_app


_BASE: Dict[str, Grid] = {
    "cell-cold": Grid("sweep",
                      ("perlbench", "calculix", "libquantum", "mcf"),
                      ("baseline", "32K_2w"), ("ooo",),
                      accesses=30_000, jobs=1, store="none"),
    "geometry-sweep": Grid("sweep", tuple(GEOMETRY_APPS),
                           tuple(SWEEP_GEOMETRIES), ("ooo", "inorder"),
                           accesses=20_000, jobs=2, store="fresh"),
    "store-warm": Grid("sweep", tuple(GEOMETRY_APPS),
                       tuple(SWEEP_GEOMETRIES), ("ooo", "inorder"),
                       accesses=20_000, jobs=2, store="warm"),
    "multicore-mix": Grid("multicore", ("mix1", "mix3"),
                          ("baseline", "32K_2w"), ("ooo",),
                          accesses=10_000, jobs=1, store="none"),
}

WORKLOADS: List[str] = list(_BASE)


def grid_for(workload: str, scale: float = 1.0) -> Grid:
    """The workload's grid with access counts multiplied by ``scale``."""
    base = _BASE[workload]
    accesses = max(200, int(base.accesses * scale))
    return Grid(base.kind, base.apps, base.geometries, base.cores,
                accesses, base.jobs, base.store)


def mix_seed(seed: int, core: int) -> int:
    """Trace seed of core ``core`` in a mix (seed 0 matches fig15)."""
    return seed + core
