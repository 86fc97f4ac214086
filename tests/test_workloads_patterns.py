"""Tests for the access-pattern generators."""

import itertools

import numpy as np
import pytest

from repro.workloads import make_pattern
from repro.workloads.patterns import (
    BLOCK,
    pattern_blocks,
    pointer_chase,
    random_uniform,
    sequential,
    strided,
    zipf,
)


def take(gen, n):
    return list(itertools.islice(gen, n))


def test_sequential_walks_linearly_and_wraps():
    gen = sequential(64, stride=8)
    assert take(gen, 10) == [0, 8, 16, 24, 32, 40, 48, 56, 0, 8]


def test_sequential_rejects_bad_args():
    with pytest.raises(ValueError):
        next(sequential(0))
    with pytest.raises(ValueError):
        next(sequential(64, stride=0))


def test_strided_covers_multiple_lines():
    offs = take(strided(1 << 16, stride=256), 100)
    lines = {o // 64 for o in offs}
    assert len(lines) > 50


def test_strided_stays_in_bounds():
    offs = take(strided(10_000, stride=333), 1000)
    assert all(0 <= o < 10_000 for o in offs)


def test_random_uniform_respects_working_set():
    rng = np.random.default_rng(1)
    offs = take(random_uniform(1 << 20, working_set=4096, rng=rng), 2000)
    assert all(0 <= o < 4096 for o in offs)
    assert len({o for o in offs}) > 100  # actually random


def test_random_uniform_deterministic_per_seed():
    a = take(random_uniform(1 << 16, rng=np.random.default_rng(5)), 50)
    b = take(random_uniform(1 << 16, rng=np.random.default_rng(5)), 50)
    assert a == b


def test_zipf_is_skewed():
    rng = np.random.default_rng(2)
    offs = take(zipf(1 << 22, alpha=1.2, rng=rng), 5000)
    pages = [o // 4096 for o in offs]
    unique = len(set(pages))
    # Zipf concentrates: far fewer unique pages than accesses, and the
    # top page takes a disproportionate share.
    assert unique < len(pages) / 3
    top_share = max(pages.count(p) for p in set(pages)) / len(pages)
    assert top_share > 0.05


def test_zipf_validates_hot_fraction():
    with pytest.raises(ValueError):
        next(zipf(1 << 20, hot_fraction=0.0))


def test_pointer_chase_visits_all_elements_before_repeating():
    rng = np.random.default_rng(3)
    n_elems = 64
    gen = pointer_chase(n_elems * 64, element_size=64, rng=rng)
    first_cycle = take(gen, n_elems)
    assert len(set(first_cycle)) == n_elems  # a permutation
    second_cycle = take(gen, n_elems)
    assert first_cycle == second_cycle  # cyclic


def test_make_pattern_dispatch_and_unknown():
    gen = make_pattern("sequential", 1024, np.random.default_rng(0),
                       stride=16)
    assert next(gen) == 0
    with pytest.raises(ValueError):
        make_pattern("lru", 1024, np.random.default_rng(0))


def test_all_patterns_yield_in_bounds():
    rng = np.random.default_rng(7)
    footprint = 1 << 18
    for kind in ("sequential", "strided", "random", "zipf", "chase"):
        gen = make_pattern(kind, footprint, rng)
        assert all(0 <= o < footprint for o in take(gen, 500)), kind


# ---------------------------------------------------------------------------
# block streams: the scalar iterator is their flattening
# ---------------------------------------------------------------------------
#: (kind, footprint, params) per pattern, sized so every stream wraps or
#: cycles across a block boundary within 3000 offsets: strided sweeps of
#: 31 and 1311 offsets, chase cycles of 700 and 1500 elements.
BLOCK_CASES = [
    ("sequential", 1 << 14, {"stride": 24}),
    ("strided", 10_000, {"stride": 333}),
    ("strided", 1 << 20, {"stride": 200, "working_set": 1 << 18}),
    ("random", 1 << 20, {"working_set": 1 << 16}),
    ("zipf", 1 << 22, {"alpha": 1.2}),
    ("chase", 700 * 64, {}),
    ("chase", 1 << 20, {"working_set": 1500 * 64}),
]


def blocks_prefix(kind, footprint, params, n, seed=11):
    stream = pattern_blocks(kind, footprint, np.random.default_rng(seed),
                            **params)
    blocks = [next(stream) for _ in range(-(-n // BLOCK))]
    for block in blocks:
        assert block.dtype == np.int64 and len(block) == BLOCK
    return np.concatenate(blocks)[:n]


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("kind,footprint,params", BLOCK_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in BLOCK_CASES])
def test_scalar_iterator_is_the_flattened_blocks(kind, footprint, params, n):
    gen = make_pattern(kind, footprint, np.random.default_rng(11), **params)
    items = take(gen, n)
    assert all(type(item) is int for item in items)
    assert items == blocks_prefix(kind, footprint, params, n).tolist()


def test_strided_blocks_follow_the_phase_wrap():
    """Each sweep restarts 8 bytes further in, across block boundaries."""
    span, stride = 1 << 18, 200
    expected, offset, phase = [], 0, 0
    while len(expected) < 3000:
        expected.append(offset)
        offset += stride
        if offset >= span:
            phase = (phase + 8) % stride
            offset = phase
    got = blocks_prefix("strided", 1 << 20,
                        {"stride": stride, "working_set": span}, 3000)
    assert got.tolist() == expected
    assert got[1311] == 8 and got[2622] == 16  # wraps inside blocks 2, 3


def test_chase_blocks_repeat_the_cycle_across_blocks():
    n_elems = 700
    got = blocks_prefix("chase", n_elems * 64, {}, 3000)
    cycle = got[:n_elems]
    assert sorted(cycle.tolist()) == list(range(0, n_elems * 64, 64))
    for start in range(n_elems, 3000, n_elems):
        tail = got[start:start + n_elems]
        assert tail.tolist() == cycle[:len(tail)].tolist()
