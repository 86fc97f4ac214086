"""Access-pattern generators used to synthesize SPEC-like traces.

Each pattern yields byte offsets into an application's data footprint,
in int64 numpy blocks of :data:`BLOCK` offsets (:func:`pattern_blocks`).
The trace builder draws each component's offsets a block at a time, maps
them onto the process's allocated regions and attaches PCs, write flags,
and dependence distances. The scalar iterators (:func:`make_pattern` and
the pattern functions themselves) flatten the same blocks to Python ints.

Patterns provided (the building blocks of the per-app profiles):

* ``sequential``    — streaming walk (libquantum-, bwaves-like).
* ``strided``       — fixed-stride walk (stencil codes).
* ``random_uniform``— uniform random over a working set (mcf-, gcc-like).
* ``zipf``          — hot/cold page mix with a Zipf popularity skew
  (integer codes with hot data structures).
* ``pointer_chase`` — a random cyclic permutation walked one element at a
  time (linked data structures; maximally dependent).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

import numpy as np

#: Offsets per block. ``random`` and ``zipf`` draw their RNG in blocks of
#: this size, so the block length is part of their output contract.
BLOCK = 1024


def _flatten(blocks: Iterator[np.ndarray]) -> Iterator[int]:
    for block in blocks:
        yield from block.tolist()


def _pattern(blocks: Callable[..., Iterator[np.ndarray]]
             ) -> Callable[..., Iterator[int]]:
    """Expose a block generator as a scalar iterator of Python ints.

    The block generator stays reachable as ``.blocks``; it is the only
    implementation of the pattern, and the scalar view is its flattening.
    """
    @functools.wraps(blocks)
    def scalar(*args, **kwargs) -> Iterator[int]:
        return _flatten(blocks(*args, **kwargs))
    scalar.blocks = blocks
    return scalar


@_pattern
def sequential(footprint: int, stride: int = 8,
               rng: np.random.Generator = None,
               start: int = 0, working_set: int = None
               ) -> Iterator[np.ndarray]:
    """Linear walk over the footprint (or working set), wrapping."""
    span = min(working_set or footprint, footprint)
    if span <= 0 or stride <= 0:
        raise ValueError("footprint and stride must be positive")
    offset = start % span
    steps = np.arange(BLOCK, dtype=np.int64) * stride
    while True:
        yield (offset + steps) % span
        offset = (offset + BLOCK * stride) % span


@_pattern
def strided(footprint: int, stride: int = 256,
            rng: np.random.Generator = None,
            working_set: int = None) -> Iterator[np.ndarray]:
    """Fixed-stride walk; strides past the end wrap with a phase shift.

    The phase shift on wrap makes successive sweeps touch different lines,
    as column-major stencil sweeps do.
    """
    span = min(working_set or footprint, footprint)
    if span <= 0 or stride <= 0:
        raise ValueError("footprint and stride must be positive")
    wrap = max(1, min(stride, span))
    offset = 0
    phase = 0
    while True:
        runs = []
        filled = 0
        while filled < BLOCK:
            # The rest of the current sweep, cut at the block boundary.
            n = min(BLOCK - filled, -(-(span - offset) // stride))
            runs.append(offset + stride * np.arange(n, dtype=np.int64))
            filled += n
            offset += stride * n
            if offset >= span:
                phase = (phase + 8) % wrap
                offset = phase
        yield np.concatenate(runs)


@_pattern
def random_uniform(footprint: int, working_set: int = None,
                   rng: np.random.Generator = None) -> Iterator[np.ndarray]:
    """Uniform random offsets within a (possibly smaller) working set."""
    rng = rng or np.random.default_rng(0)
    span = min(working_set or footprint, footprint)
    if span <= 0:
        raise ValueError("working set must be positive")
    while True:
        yield rng.integers(0, span, size=BLOCK) & ~0x7


@_pattern
def zipf(footprint: int, alpha: float = 1.2, hot_fraction: float = 0.1,
         rng: np.random.Generator = None, working_set: int = None,
         lines_per_page: int = 16, n_clusters: int = 4
         ) -> Iterator[np.ndarray]:
    """Zipf-skewed popularity over cache-line-sized hot units.

    ``working_set`` sets the total bytes of hot lines. Hot lines are
    packed ``lines_per_page`` to a page (bounding the TLB footprint, as
    real hot data structures do); the hot pages form ``n_clusters``
    contiguous runs placed at random positions in the footprint —
    programs keep their hot structures in a few compact regions, which
    is also what makes the index delta buffer effective. Each page's
    hot lines occupy random line slots, so the hot set still maps
    near-uniformly onto cache sets at any associativity.
    ``hot_fraction`` is retained for interface symmetry and validated.
    """
    rng = rng or np.random.default_rng(0)
    if not 0 < hot_fraction <= 1:
        raise ValueError("hot_fraction must be in (0, 1]")
    lines_per_page = max(1, min(lines_per_page, 64))
    total_pages = max(1, footprint // 4096)
    span = min(working_set or footprint, footprint)
    n_lines = max(1, span // 64)
    n_pages = min(total_pages, max(1, -(-n_lines // lines_per_page)))
    n_lines = min(n_lines, n_pages * lines_per_page)
    pages = _clustered_pages(total_pages, n_pages, n_clusters, rng)
    # Each hot line i lives at a random line slot of its cluster page.
    line_page = pages[np.arange(n_lines) // lines_per_page]
    line_slot = np.concatenate([
        rng.choice(64, size=min(lines_per_page, n_lines - p * lines_per_page),
                   replace=False)
        for p in range(n_pages)])[:n_lines]
    line_addr = line_page.astype(np.int64) * 4096 + line_slot * 64
    ranks = np.arange(1, n_lines + 1, dtype=np.float64)
    weights = ranks ** -alpha
    weights /= weights.sum()
    # Spread hot ranks across pages: rank r lives at a random hot line.
    line_addr = line_addr[rng.permutation(n_lines)]
    while True:
        picks = rng.choice(n_lines, size=BLOCK, p=weights)
        in_line = rng.integers(0, 64, size=BLOCK)
        yield line_addr[picks] + (in_line & ~0x7)


def _clustered_pages(total_pages: int, n_pages: int, n_clusters: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Pick ``n_pages`` page numbers as a few contiguous runs."""
    n_pages = min(n_pages, total_pages)
    if 2 * n_pages >= total_pages:
        # Dense working set: clustering is meaningless, take a shuffled
        # prefix of everything (also avoids hunting for the last free
        # pages with random run starts).
        return rng.permutation(total_pages)[:n_pages].astype(np.int64)
    n_clusters = max(1, min(n_clusters, n_pages))
    run_len = -(-n_pages // n_clusters)
    chosen = []
    used = set()
    attempts = 0
    while len(chosen) < n_pages and attempts < 64 * n_clusters:
        attempts += 1
        start = int(rng.integers(0, total_pages))
        run = [p for p in range(start, min(start + run_len, total_pages))
               if p not in used]
        chosen.extend(run[: n_pages - len(chosen)])
        used.update(run)
    if len(chosen) < n_pages:
        # Saturated: top up from whatever pages remain unused.
        rest = [p for p in range(total_pages) if p not in used]
        chosen.extend(rest[: n_pages - len(chosen)])
    return np.asarray(chosen[:n_pages], dtype=np.int64)


@_pattern
def pointer_chase(footprint: int, working_set: int = None,
                  element_size: int = 64,
                  rng: np.random.Generator = None) -> Iterator[np.ndarray]:
    """Walk a random cyclic permutation of cache-line-sized elements.

    Every access depends on the previous one — the classic linked-list
    traversal that defeats both prefetching and MLP.
    """
    rng = rng or np.random.default_rng(0)
    span = min(working_set or footprint, footprint)
    n_elems = max(2, span // element_size)
    # A random cycle: visit order is a permutation walked repeatedly.
    cycle = rng.permutation(n_elems)
    cycle *= element_size
    steps = np.arange(BLOCK, dtype=np.int64)
    position = 0
    while True:
        yield cycle[(position + steps) % n_elems]
        position = (position + BLOCK) % n_elems


PATTERNS = {
    "sequential": sequential,
    "strided": strided,
    "random": random_uniform,
    "zipf": zipf,
    "chase": pointer_chase,
}


def pattern_blocks(kind: str, footprint: int, rng: np.random.Generator,
                   **params) -> Iterator[np.ndarray]:
    """Instantiate a pattern by name as a stream of int64 offset blocks."""
    try:
        pattern = PATTERNS[kind]
    except KeyError:
        raise ValueError(
            f"unknown pattern {kind!r}; choose from {sorted(PATTERNS)}"
        ) from None
    return pattern.blocks(footprint, rng=rng, **params)


def make_pattern(kind: str, footprint: int, rng: np.random.Generator,
                 **params) -> Iterator[int]:
    """Instantiate a pattern by name as a scalar offset iterator."""
    return _flatten(pattern_blocks(kind, footprint, rng, **params))
