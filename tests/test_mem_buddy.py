"""Unit and property tests for the buddy allocator."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    HUGE_PAGE_ORDER,
    MAX_ORDER,
    BuddyAllocator,
    OutOfMemoryError,
)


def test_initial_state_all_free():
    buddy = BuddyAllocator(4096)
    assert buddy.free_frames() == 4096
    assert buddy.allocated_frames() == 0
    buddy.check_invariants()


def test_allocate_returns_aligned_base():
    buddy = BuddyAllocator(4096)
    for order in range(MAX_ORDER + 1):
        base = buddy.allocate(order)
        assert base % (1 << order) == 0


def test_allocate_and_free_restore_all_frames():
    buddy = BuddyAllocator(4096)
    blocks = [(buddy.allocate(order), order) for order in (0, 3, 5, 0, 9)]
    assert buddy.allocated_frames() == sum(1 << o for _, o in blocks)
    for base, order in blocks:
        buddy.free(base, order)
    assert buddy.free_frames() == 4096
    assert buddy.largest_free_order() == MAX_ORDER
    buddy.check_invariants()


def test_coalescing_restores_max_order_block():
    buddy = BuddyAllocator(1024)
    frames = [buddy.allocate(0) for _ in range(1024)]
    assert buddy.free_frames() == 0
    for frame in frames:
        buddy.free(frame, 0)
    assert buddy.largest_free_order() == MAX_ORDER
    assert buddy.free_blocks_by_order()[MAX_ORDER] == 1


def test_out_of_memory_raises():
    buddy = BuddyAllocator(8)
    buddy.allocate(3)
    with pytest.raises(OutOfMemoryError):
        buddy.allocate(0)
    assert buddy.try_allocate(0) is None
    assert buddy.stats.failed_allocations == 2


def test_double_free_rejected():
    buddy = BuddyAllocator(16)
    base = buddy.allocate(2)
    buddy.free(base, 2)
    with pytest.raises(ValueError):
        buddy.free(base, 2)


def test_free_with_wrong_order_rejected():
    buddy = BuddyAllocator(16)
    base = buddy.allocate(2)
    with pytest.raises(ValueError):
        buddy.free(base, 1)


def test_lowest_address_first_allocation():
    buddy = BuddyAllocator(1024)
    first = buddy.allocate(0)
    second = buddy.allocate(0)
    assert first == 0
    assert second == 1


def test_sequential_order0_allocations_are_contiguous():
    # The property Section VI relies on: a burst of single-page requests
    # served from one large block yields physically contiguous frames.
    buddy = BuddyAllocator(2048)
    frames = [buddy.allocate(0) for _ in range(512)]
    assert frames == list(range(512))


def test_unusable_free_space_index_bounds():
    buddy = BuddyAllocator(4096)
    assert buddy.unusable_free_space_index(HUGE_PAGE_ORDER) == 0.0
    # Allocate everything as single pages, then free every other page:
    # free space exists but nothing of order >= 1 can be satisfied.
    frames = [buddy.allocate(0) for _ in range(4096)]
    for frame in frames[::2]:
        buddy.free(frame, 0)
    assert buddy.unusable_free_space_index(1) == 1.0
    assert buddy.unusable_free_space_index(HUGE_PAGE_ORDER) == 1.0


def test_non_power_of_two_memory_size():
    buddy = BuddyAllocator(1000)
    assert buddy.free_frames() == 1000
    buddy.check_invariants()
    frames = [buddy.allocate(0) for _ in range(1000)]
    assert sorted(frames) == list(range(1000))
    with pytest.raises(OutOfMemoryError):
        buddy.allocate(0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=40),
       st.randoms(use_true_random=False))
def test_property_alloc_free_never_corrupts(orders, rnd):
    """Random allocate/free interleavings preserve allocator invariants."""
    buddy = BuddyAllocator(1 << 12)
    live = []
    for order in orders:
        if live and rnd.random() < 0.4:
            base, o = live.pop(rnd.randrange(len(live)))
            buddy.free(base, o)
        block = buddy.try_allocate(order)
        if block is not None:
            live.append((block, order))
        buddy.check_invariants()
    for base, order in live:
        buddy.free(base, order)
    buddy.check_invariants()
    assert buddy.free_frames() == 1 << 12


# ---------------------------------------------------------------------
# allocate_frames: run-granular, equal to per-frame allocate(0)
# ---------------------------------------------------------------------

def buddy_state(buddy):
    """Everything observable about an allocator, for equality checks."""
    return (buddy.free_blocks_by_order(), dict(buddy._free_blocks),
            dict(buddy._allocated), buddy.free_frames(),
            dataclasses.astuple(buddy.stats))


def frames_one_by_one(buddy, count):
    """``count`` allocate(0) calls; the frames got and whether all came."""
    frames = []
    for _ in range(count):
        try:
            frames.append(buddy.allocate(0))
        except OutOfMemoryError:
            return frames, False
    return frames, True


def flatten_runs(runs):
    return [frame for base, n in runs for frame in range(base, base + n)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1 << 10, 1 << 11, 1000, 1536 + 7]),
       st.lists(st.integers(min_value=0, max_value=7), max_size=40),
       st.integers(min_value=0, max_value=2100),
       st.randoms(use_true_random=False))
def test_allocate_frames_equals_per_frame_allocation(total, orders, count,
                                                     rnd):
    """After a random allocate/free history, ``allocate_frames(n)``
    hands out the frames of n ``allocate(0)`` calls and leaves the
    allocator in the same state — also when memory runs out part way."""
    buddy = BuddyAllocator(total)
    live = []
    for order in orders:
        if live and rnd.random() < 0.4:
            base, o = live.pop(rnd.randrange(len(live)))
            buddy.free(base, o)
        block = buddy.try_allocate(order)
        if block is not None:
            live.append((block, order))
    reference = copy.deepcopy(buddy)
    want, complete = frames_one_by_one(reference, count)
    if complete:
        runs = buddy.allocate_frames(count)
    else:
        with pytest.raises(OutOfMemoryError) as exc:
            buddy.allocate_frames(count)
        runs = exc.value.runs
    assert flatten_runs(runs) == want
    # Runs are maximal: adjacent runs are never contiguous.
    for (base, n), (next_base, _) in zip(runs, runs[1:]):
        assert base + n != next_base
    assert buddy_state(buddy) == buddy_state(reference)
    buddy.check_invariants()
    # Both continue identically (lazy heap entries may differ).
    for order in (0, 3, 9, 0, 1):
        assert buddy.try_allocate(order) == reference.try_allocate(order)
    assert buddy_state(buddy) == buddy_state(reference)


def test_allocate_frames_splits_one_large_block():
    buddy = BuddyAllocator(1 << 10)
    assert buddy.allocate_frames(3) == [(0, 3)]
    # Left behind: frame 3 (order 0), 4..7 (2), 8..15 (3), ..., 512 (9).
    assert buddy.free_blocks_by_order() == [1, 0] + [1] * 8 + [0]
    # Per frame: 10 splits for frame 0, none for 1, one for 2.
    assert buddy.stats.splits == 11
    assert buddy.stats.allocations == 3
    assert buddy.allocate_frames(0) == []
