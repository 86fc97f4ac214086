"""SPEC-like application profiles (substitute for the paper's benchmarks).

The paper runs SPEC CPU 2006 / INT 2017 plus graph500 and DBx1000-ycsb.
We cannot run those binaries, so each benchmark is replaced by a profile
describing the behaviours that drive the paper's results:

* **allocation style** — how the app requests memory, which (through the
  buddy allocator and THP) determines how predictable the index bits are:

  - ``thp_big``   few large, THP-eligible mmaps; most accesses land on
                  transparently mapped huge pages (libquantum, GemsFDTD).
  - ``chunked``   medium chunks, not THP-eligible, but faulted in bursts
                  so frames are contiguous and the VA->PA delta is mostly
                  zero (most integer codes).
  - ``offset``    like chunked, but allocation interleaves with other
                  activity (modelled as odd-sized "noise" allocations), so
                  chunks sit at a *non-zero but constant* delta: naive
                  speculation fails, the IDB succeeds (cactusADM,
                  calculix, gromacs, gcc, xz_17).
  - ``scattered`` many small allocations heavily interleaved with noise;
                  frames are nearly random per page (graph500, ycsb,
                  xalancbmk_17, omnetpp).

* **pattern mix** — weighted access-pattern components with their own
  working sets, giving each app its cache-capacity sensitivity.
* **pipeline character** — memory ops per instruction, write fraction,
  dependence distance, and MLP, giving each app its latency sensitivity.

Calibration targets are the paper's Fig. 2/3 (IPC sensitivity), Fig. 5
(speculation success by bit count), and the seven low-speculation apps it
names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigError, TraceError

MiB = 1024 * 1024
KiB = 1024


@dataclass(frozen=True)
class PatternSpec:
    """One weighted component of an app's access mix."""

    weight: float
    kind: str                 # key into repro.workloads.patterns.PATTERNS
    working_set: int = 0      # bytes; 0 means the whole footprint
    stride: int = 0           # for strided/sequential
    alpha: float = 0.0        # Zipf skew; 0 means the pattern default
    dep_dist_mean: float = 6.0  # mean instr distance to first consumer


@dataclass(frozen=True)
class AppProfile:
    """Everything needed to synthesize one benchmark's trace."""

    name: str
    footprint: int                       # bytes of data the app touches
    alloc_style: str                     # thp_big | chunked | offset | scattered
    patterns: Tuple[PatternSpec, ...]
    mem_per_inst: float = 0.30           # memory ops per instruction
    write_frac: float = 0.30
    mlp: float = 3.0                     # OOO memory-level parallelism
    chunk_bytes: int = 512 * KiB         # allocation request size
    #: Pages of foreign ("noise") allocation injected before the app's
    #: first chunk. An odd count displaces every subsequent physical
    #: frame by a constant odd amount: naive speculation then fails while
    #: the VA->PA delta stays constant — the IDB's favourite case.
    initial_noise_pages: int = 0
    #: Pages of noise injected between chunks (when the event fires).
    noise_pages: int = 0
    #: Probability a noise event fires before each chunk.
    noise_prob: float = 0.0
    #: Probability an access re-touches the cache line of its pattern
    #: component's last fresh access (the same static load iterating,
    #: struct-field runs, stack reuse). This temporal locality is what makes MRU way prediction
    #: accurate on real programs (Section VII-A).
    repeat_frac: float = 0.75
    pcs_per_pattern: int = 12            # static loads per component

    def __post_init__(self):
        total = sum(p.weight for p in self.patterns)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(
                f"{self.name}: pattern weights sum to {total}, not 1",
                app=self.name)
        if self.alloc_style not in ("thp_big", "chunked", "offset",
                                    "scattered"):
            raise ConfigError(f"{self.name}: bad alloc_style "
                              f"{self.alloc_style!r}", app=self.name)


def _p(weight, kind, ws=0, stride=0, dep=6.0, alpha=0.0):
    return PatternSpec(weight=weight, kind=kind, working_set=ws,
                       stride=stride, alpha=alpha, dep_dist_mean=dep)


def _profiles() -> Dict[str, AppProfile]:
    """The 26 evaluated apps plus the 7 extra mix members (Tab. III)."""
    table = [
        # Components are (hot, mid, cold): the hot set drives L1 hits,
        # the mid set differentiates 32/64/128 KiB capacities, the cold
        # tail adds compulsory/DRAM traffic. Noise settings place each
        # app on its Fig. 5 speculation-success band.
        AppProfile("sjeng", 16 * MiB, "chunked",
                   (_p(0.84, "zipf", ws=24 * KiB, alpha=0.8, dep=4.0),
                    _p(0.13, "random", ws=32 * KiB, dep=4.0),
                    _p(0.03, "random", ws=2 * MiB, dep=5.0)),
                   0.28, 0.25, 2.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.05),
        AppProfile("deepsjeng_17", 32 * MiB, "offset",
                   (_p(0.80, "zipf", ws=28 * KiB, alpha=0.8, dep=4.0),
                    _p(0.16, "random", ws=80 * KiB, dep=4.0),
                    _p(0.04, "random", ws=2 * MiB, dep=5.0)),
                   0.28, 0.25, 2.0,
                   initial_noise_pages=3, noise_pages=8, noise_prob=0.2),
        AppProfile("mcf", 48 * MiB, "thp_big",
                   (_p(0.45, "zipf", ws=512 * KiB, alpha=0.9, dep=2.0),
                    _p(0.40, "chase", ws=24 * MiB, dep=1.0),
                    _p(0.15, "random", dep=4.0)),
                   0.35, 0.20, 3.0, repeat_frac=0.5),
        AppProfile("mcf_17", 64 * MiB, "thp_big",
                   (_p(0.45, "zipf", ws=512 * KiB, alpha=0.9, dep=2.0),
                    _p(0.40, "chase", ws=32 * MiB, dep=1.0),
                    _p(0.15, "random", dep=4.0)),
                   0.35, 0.20, 3.0, repeat_frac=0.5),
        AppProfile("h264ref", 8 * MiB, "chunked",
                   (_p(0.82, "zipf", ws=24 * KiB, alpha=0.7, dep=1.5),
                    _p(0.10, "sequential", stride=16, dep=3.0),
                    _p(0.08, "random", ws=32 * KiB, dep=3.0)),
                   0.38, 0.30, 4.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.03),
        AppProfile("x264_17", 16 * MiB, "chunked",
                   (_p(0.78, "zipf", ws=28 * KiB, alpha=0.7, dep=2.0),
                    _p(0.12, "sequential", stride=16, dep=3.0),
                    _p(0.10, "random", ws=32 * KiB, dep=3.0)),
                   0.36, 0.30, 4.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.03),
        AppProfile("gcc", 24 * MiB, "offset",
                   (_p(0.76, "zipf", ws=28 * KiB, alpha=0.8, dep=3.0),
                    _p(0.18, "random", ws=32 * KiB, dep=3.0),
                    _p(0.06, "random", ws=1 * MiB, dep=3.0)),
                   0.32, 0.35, 2.0, chunk_bytes=128 * KiB,
                   initial_noise_pages=2, noise_pages=2, noise_prob=0.4),
        AppProfile("gobmk", 8 * MiB, "chunked",
                   (_p(0.84, "zipf", ws=24 * KiB, alpha=0.8, dep=3.0),
                    _p(0.13, "random", ws=32 * KiB, dep=4.0),
                    _p(0.03, "random", ws=2 * MiB, dep=4.0)),
                   0.30, 0.25, 2.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.05),
        AppProfile("omnetpp", 48 * MiB, "scattered",
                   (_p(0.40, "zipf", ws=64 * KiB, alpha=0.8, dep=2.0),
                    _p(0.40, "chase", ws=512 * KiB, dep=1.0),
                    _p(0.20, "random", ws=2 * MiB, dep=2.0)),
                   0.33, 0.30, 1.5, chunk_bytes=64 * KiB, repeat_frac=0.5,
                   initial_noise_pages=1, noise_pages=1, noise_prob=0.4),
        AppProfile("hmmer", 4 * MiB, "chunked",
                   (_p(0.85, "zipf", ws=24 * KiB, alpha=0.7, dep=3.0),
                    _p(0.10, "strided", ws=64 * KiB, stride=128, dep=3.0),
                    _p(0.05, "sequential", stride=16, dep=4.0)),
                   0.40, 0.30, 4.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.03),
        AppProfile("perlbench", 16 * MiB, "chunked",
                   (_p(0.82, "zipf", ws=28 * KiB, alpha=0.8, dep=2.0),
                    _p(0.14, "random", ws=32 * KiB, dep=3.0),
                    _p(0.04, "random", ws=1 * MiB, dep=3.0)),
                   0.35, 0.35, 3.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.01),
        AppProfile("bzip2", 16 * MiB, "chunked",
                   (_p(0.72, "zipf", ws=48 * KiB, alpha=0.8, dep=3.0),
                    _p(0.12, "strided", ws=512 * KiB, stride=512, dep=3.0),
                    _p(0.16, "random", ws=64 * KiB, dep=3.0)),
                   0.32, 0.30, 3.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.08),
        AppProfile("libquantum", 16 * MiB, "thp_big",
                   (_p(1.0, "sequential", stride=16, dep=12.0),),
                   0.30, 0.25, 8.0),
        AppProfile("bwaves", 48 * MiB, "thp_big",
                   (_p(0.8, "sequential", stride=8, dep=12.0),
                    _p(0.2, "strided", stride=4096, dep=6.0)),
                   0.40, 0.30, 6.0),
        AppProfile("cactusADM", 32 * MiB, "offset",
                   (_p(0.75, "zipf", ws=12 * KiB, alpha=0.8, dep=1.5),
                    _p(0.13, "strided", ws=2 * MiB, stride=256, dep=3.0),
                    _p(0.12, "random", ws=32 * KiB, dep=2.0)),
                   0.42, 0.35, 3.0, chunk_bytes=1 * MiB,
                   initial_noise_pages=5, noise_pages=8, noise_prob=0.2),
        AppProfile("calculix", 16 * MiB, "offset",
                   (_p(0.85, "zipf", ws=24 * KiB, alpha=0.7, dep=1.5),
                    _p(0.08, "strided", ws=512 * KiB, stride=192, dep=3.0),
                    _p(0.07, "random", ws=24 * KiB, dep=2.0)),
                   0.38, 0.30, 3.0, chunk_bytes=256 * KiB,
                   initial_noise_pages=1, noise_pages=8, noise_prob=0.2),
        AppProfile("gamess", 2 * MiB, "chunked",
                   (_p(0.92, "zipf", ws=20 * KiB, alpha=0.7, dep=5.0),
                    _p(0.08, "sequential", stride=8, dep=5.0)),
                   0.34, 0.25, 3.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.02),
        AppProfile("GemsFDTD", 48 * MiB, "thp_big",
                   (_p(0.9, "sequential", stride=8, dep=12.0),
                    _p(0.1, "strided", stride=8192, dep=6.0)),
                   0.42, 0.35, 6.0),
        AppProfile("povray", 2 * MiB, "chunked",
                   (_p(0.88, "zipf", ws=20 * KiB, alpha=0.7, dep=2.0),
                    _p(0.08, "random", ws=24 * KiB, dep=3.0),
                    _p(0.04, "random", ws=256 * KiB, dep=3.0)),
                   0.33, 0.25, 3.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.05),
        AppProfile("gromacs", 4 * MiB, "offset",
                   (_p(0.85, "zipf", ws=24 * KiB, alpha=0.7, dep=1.5),
                    _p(0.08, "strided", ws=256 * KiB, stride=96, dep=3.0),
                    _p(0.07, "random", ws=24 * KiB, dep=2.0)),
                   0.36, 0.30, 3.0, chunk_bytes=128 * KiB,
                   initial_noise_pages=7, noise_pages=8, noise_prob=0.2),
        AppProfile("graph500", 64 * MiB, "offset",
                   (_p(0.50, "random", dep=2.0),
                    _p(0.30, "chase", ws=8 * MiB, dep=1.0),
                    _p(0.20, "zipf", ws=64 * KiB, alpha=0.8, dep=2.0)),
                   0.34, 0.15, 4.0, chunk_bytes=1 * MiB, repeat_frac=0.5,
                   initial_noise_pages=1, noise_pages=8, noise_prob=0.3),
        AppProfile("ycsb", 64 * MiB, "offset",
                   (_p(0.55, "zipf", ws=2 * MiB, alpha=1.0, dep=3.0),
                    _p(0.45, "random", dep=3.0)),
                   0.32, 0.40, 2.0, chunk_bytes=1 * MiB,
                   initial_noise_pages=3, noise_pages=8, noise_prob=0.3),
        AppProfile("xalancbmk_17", 32 * MiB, "scattered",
                   (_p(0.60, "zipf", ws=48 * KiB, alpha=0.8, dep=3.0),
                    _p(0.25, "random", ws=16 * KiB, dep=3.0),
                    _p(0.15, "random", ws=1 * MiB, dep=2.0)),
                   0.33, 0.30, 2.0, chunk_bytes=128 * KiB,
                   initial_noise_pages=1, noise_pages=2, noise_prob=0.3),
        AppProfile("leela_17", 8 * MiB, "chunked",
                   (_p(0.84, "zipf", ws=28 * KiB, alpha=0.8, dep=1.5),
                    _p(0.12, "random", ws=32 * KiB, dep=3.0),
                    _p(0.04, "random", ws=512 * KiB, dep=3.0)),
                   0.31, 0.25, 2.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.05),
        AppProfile("exchange2_17", 1 * MiB, "chunked",
                   (_p(1.0, "zipf", ws=8 * KiB, alpha=0.7, dep=6.0),),
                   0.30, 0.25, 4.0),
        AppProfile("xz_17", 64 * MiB, "offset",
                   (_p(0.55, "random", ws=96 * KiB, dep=3.0),
                    _p(0.25, "zipf", ws=512 * KiB, alpha=0.9, dep=3.0),
                    _p(0.20, "strided", ws=4 * MiB, stride=1024, dep=4.0)),
                   0.33, 0.35, 2.0, chunk_bytes=256 * KiB,
                   initial_noise_pages=2, noise_pages=2, noise_prob=0.5),
        # ---- extra apps appearing only in the Tab. III mixes ----
        AppProfile("astar", 16 * MiB, "chunked",
                   (_p(0.55, "chase", ws=512 * KiB, dep=1.0),
                    _p(0.35, "zipf", ws=32 * KiB, alpha=0.8, dep=3.0),
                    _p(0.10, "random", dep=3.0)),
                   0.33, 0.25, 1.5, repeat_frac=0.5,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.08),
        AppProfile("lbm", 48 * MiB, "thp_big",
                   (_p(1.0, "sequential", stride=8, dep=12.0),),
                   0.42, 0.45, 6.0),
        AppProfile("zeusmp", 32 * MiB, "thp_big",
                   (_p(0.8, "strided", stride=2048, dep=6.0),
                    _p(0.2, "sequential", stride=8, dep=12.0)),
                   0.40, 0.35, 6.0),
        AppProfile("leslie3d", 32 * MiB, "thp_big",
                   (_p(0.9, "sequential", stride=8, dep=12.0),
                    _p(0.1, "strided", stride=4096, dep=6.0)),
                   0.41, 0.35, 5.0),
        AppProfile("milc", 48 * MiB, "thp_big",
                   (_p(0.7, "sequential", stride=16, dep=6.0),
                    _p(0.3, "random", dep=3.0)),
                   0.38, 0.30, 4.0),
        AppProfile("tonto", 2 * MiB, "chunked",
                   (_p(0.92, "zipf", ws=20 * KiB, alpha=0.7, dep=5.0),
                    _p(0.08, "sequential", stride=8, dep=5.0)),
                   0.34, 0.25, 3.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.02),
        AppProfile("soplex", 32 * MiB, "chunked",
                   (_p(0.50, "random", ws=64 * KiB, dep=3.0),
                    _p(0.30, "strided", ws=1 * MiB, stride=512, dep=3.0),
                    _p(0.20, "random", ws=192 * KiB, dep=3.0)),
                   0.33, 0.30, 2.0,
                   initial_noise_pages=0, noise_pages=1, noise_prob=0.08),
    ]
    return {profile.name: profile for profile in table}


PROFILES: Dict[str, AppProfile] = _profiles()

#: The 26 applications of the single-core evaluation, in the paper's
#: figure order (Figs. 2, 3, 5-7, 9, 12-14, 16, 17).
EVALUATED_APPS: List[str] = [
    "sjeng", "deepsjeng_17", "mcf", "mcf_17", "h264ref", "x264_17",
    "gcc", "gobmk", "omnetpp", "hmmer", "perlbench", "bzip2",
    "libquantum", "bwaves", "cactusADM", "calculix", "gamess",
    "GemsFDTD", "povray", "gromacs", "graph500", "ycsb",
    "xalancbmk_17", "leela_17", "exchange2_17", "xz_17",
]

#: Apps the paper singles out as having minority fast accesses with one
#: speculative bit under naive SIPT (Section IV-A).
LOW_SPECULATION_APPS = [
    "deepsjeng_17", "cactusADM", "calculix", "graph500", "ycsb",
    "xalancbmk_17", "gromacs",
]


def get_profile(name: str) -> AppProfile:
    """Look up a profile by benchmark name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise TraceError(
            f"unknown benchmark {name!r}; known: {sorted(PROFILES)}",
            app=name,
        ) from None
