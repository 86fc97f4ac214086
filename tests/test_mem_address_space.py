"""Tests for process address spaces, demand paging, and THP."""

import dataclasses

import pytest

from repro.mem import (
    HUGE_PAGE_SIZE,
    PAGE_SIZE,
    PAGES_PER_HUGE_PAGE,
    PhysicalMemory,
    Process,
    TranslationFault,
    VmStats,
    page_number,
)


def make_process(mib=64, thp=True):
    memory = PhysicalMemory(mib * 1024 * 1024, thp_enabled=thp)
    return memory, Process(memory)


def test_mmap_reserves_but_does_not_map():
    _, proc = make_process()
    region = proc.mmap(16 * PAGE_SIZE)
    assert region.length == 16 * PAGE_SIZE
    assert not proc.page_table.is_mapped(region.start)
    with pytest.raises(TranslationFault):
        proc.translate(region.start)


def test_touch_faults_in_one_page_without_thp():
    _, proc = make_process(thp=False)
    region = proc.mmap(16 * PAGE_SIZE)
    pa = proc.touch(region.start + 5)
    assert pa % PAGE_SIZE == 5
    assert proc.stats.minor_faults == 1
    assert proc.stats.base_page_faults == 1
    assert proc.page_table.is_mapped(region.start)
    assert not proc.page_table.is_mapped(region.start + PAGE_SIZE)


def test_touch_is_idempotent():
    _, proc = make_process(thp=False)
    region = proc.mmap(PAGE_SIZE)
    first = proc.touch(region.start)
    second = proc.touch(region.start)
    assert first == second
    assert proc.stats.minor_faults == 1


def test_thp_promotes_aligned_chunk_to_huge_page():
    _, proc = make_process()
    region = proc.mmap(4 * HUGE_PAGE_SIZE)
    proc.touch(region.start)
    assert proc.stats.huge_page_faults == 1
    # The whole 2 MiB chunk is mapped by one fault.
    for i in range(PAGES_PER_HUGE_PAGE):
        va = region.start + i * PAGE_SIZE
        _, entry = proc.page_table.translate_entry(va)
        assert entry.huge


def test_thp_preserves_offset_within_huge_page():
    """PA bits [12, 21) equal VA bits [12, 21) inside a huge page."""
    _, proc = make_process()
    region = proc.mmap(HUGE_PAGE_SIZE)
    for offset in (0, PAGE_SIZE, 17 * PAGE_SIZE + 123, HUGE_PAGE_SIZE - 1):
        va = region.start + offset
        pa = proc.touch(va)
        assert va % HUGE_PAGE_SIZE == pa % HUGE_PAGE_SIZE


def test_thp_disabled_uses_base_pages():
    _, proc = make_process(thp=False)
    region = proc.mmap(HUGE_PAGE_SIZE)
    proc.touch(region.start)
    assert proc.stats.huge_page_faults == 0
    _, entry = proc.page_table.translate_entry(region.start)
    assert not entry.huge


def test_thp_not_used_for_small_region():
    _, proc = make_process()
    region = proc.mmap(PAGE_SIZE * 3)
    proc.touch(region.start)
    assert proc.stats.huge_page_faults == 0


def test_sequential_population_yields_contiguous_frames():
    """Demand-paging a fresh region draws consecutive frames from buddy."""
    _, proc = make_process(thp=False)
    region = proc.mmap(64 * PAGE_SIZE)
    proc.populate(region)
    pfns = []
    for i in range(64):
        _, entry = proc.page_table.translate_entry(region.start + i * PAGE_SIZE)
        pfns.append(entry.pfn)
    deltas = {pfns[i + 1] - pfns[i] for i in range(len(pfns) - 1)}
    assert deltas == {1}


def test_munmap_returns_frames():
    memory, proc = make_process()
    baseline_free = memory.buddy.free_frames()
    region = proc.mmap(4 * HUGE_PAGE_SIZE)
    proc.populate(region)
    assert memory.buddy.free_frames() < baseline_free
    proc.munmap(region)
    assert memory.buddy.free_frames() == baseline_free
    memory.buddy.check_invariants()


def test_munmap_mixed_huge_and_base_pages():
    memory, proc = make_process()
    baseline_free = memory.buddy.free_frames()
    region = proc.mmap(HUGE_PAGE_SIZE + 4 * PAGE_SIZE)
    proc.populate(region)
    assert proc.stats.huge_page_faults >= 1
    assert proc.stats.base_page_faults >= 1
    proc.munmap(region)
    assert memory.buddy.free_frames() == baseline_free
    memory.buddy.check_invariants()


def test_segfault_outside_regions():
    _, proc = make_process()
    with pytest.raises(MemoryError):
        proc.touch(0x1000)


def test_out_of_physical_memory():
    memory = PhysicalMemory(1024 * 1024, thp_enabled=False)  # 256 frames
    proc = Process(memory)
    region = proc.mmap(2 * 1024 * 1024)
    with pytest.raises(MemoryError):
        proc.populate(region)


def test_two_processes_do_not_share_frames():
    memory = PhysicalMemory(16 * 1024 * 1024, thp_enabled=False)
    p1, p2 = Process(memory, asid=1), Process(memory, asid=2)
    r1 = p1.mmap(8 * PAGE_SIZE)
    r2 = p2.mmap(8 * PAGE_SIZE)
    p1.populate(r1)
    p2.populate(r2)
    pfns1 = {e.pfn for _, e in p1.page_table.entries()}
    pfns2 = {e.pfn for _, e in p2.page_table.entries()}
    assert not pfns1 & pfns2


# ---------------------------------------------------------------------
# Run-granular populate equals per-page faulting
# ---------------------------------------------------------------------

def populate_per_page(proc, region):
    """The reference: fault every unmapped page in address order."""
    for va in range(region.start, region.end, PAGE_SIZE):
        if va // PAGE_SIZE not in proc.page_table:
            proc._handle_fault(va, region)


def world_state(memory, proc):
    buddy = memory.buddy
    vpns, pfns, flags = proc.page_table.arrays()
    return (vpns.tolist(), pfns.tolist(), flags.tolist(),
            dataclasses.astuple(proc.stats),
            buddy.free_blocks_by_order(), dict(buddy._free_blocks),
            dict(buddy._allocated), dataclasses.astuple(buddy.stats))


def assert_populate_matches(build, mib=64, thp=True, coloring_bits=0,
                            oom=False):
    """Run ``build(memory, proc, populate)`` with the run-granular and
    the per-page populate on twin worlds; their states must be equal."""
    states = []
    for populate in (Process.populate, populate_per_page):
        memory = PhysicalMemory(mib * 1024 * 1024, thp_enabled=thp)
        proc = Process(memory, asid=1, coloring_bits=coloring_bits)
        if oom:
            with pytest.raises(MemoryError):
                build(memory, proc, populate)
        else:
            build(memory, proc, populate)
        memory.buddy.check_invariants()
        states.append(world_state(memory, proc))
    assert states[0] == states[1]
    return states[0]


def test_populate_unaligned_head_and_tail_matches_per_page():
    def build(memory, proc, populate):
        memory.buddy.allocate(3)            # displace the frontier
        populate(proc, proc.mmap(5 * PAGE_SIZE, align=PAGE_SIZE))
        # Starts 5 pages into a chunk, spans two whole chunks, ends
        # 7 pages into a fourth.
        populate(proc, proc.mmap(3 * HUGE_PAGE_SIZE + 2 * PAGE_SIZE,
                                 align=PAGE_SIZE))
        populate(proc, proc.mmap(3 * PAGE_SIZE, thp_eligible=False,
                                 align=PAGE_SIZE))

    state = assert_populate_matches(build)
    stats = VmStats(*state[3])
    assert stats.huge_page_faults == 2
    assert stats.base_page_faults == 5 + (PAGES_PER_HUGE_PAGE - 5) + 7 + 3


def test_populate_partly_touched_region_matches_per_page():
    def build(memory, proc, populate):
        region = proc.mmap(3 * HUGE_PAGE_SIZE)
        for page in (7, PAGES_PER_HUGE_PAGE + 300, 2 * PAGES_PER_HUGE_PAGE):
            proc.touch(region.start + page * PAGE_SIZE)
        populate(proc, region)

    assert_populate_matches(build)
    assert_populate_matches(build, thp=False)


def test_populate_without_thp_matches_per_page():
    def build(memory, proc, populate):
        populate(proc, proc.mmap(2 * HUGE_PAGE_SIZE + 9 * PAGE_SIZE))

    state = assert_populate_matches(build, thp=False)
    assert VmStats(*state[3]).huge_page_faults == 0


def fragment_to_order_zero(memory, keep_every=2):
    """Leave only scattered single frames free: no order-9 block."""
    buddy = memory.buddy
    frames = [buddy.allocate(0) for _ in range(buddy.total_frames)]
    for frame in frames[::keep_every]:
        buddy.free(frame, 0)


def test_populate_failed_huge_allocation_matches_per_page():
    def build(memory, proc, populate):
        fragment_to_order_zero(memory)
        populate(proc, proc.mmap(2 * HUGE_PAGE_SIZE + 3 * PAGE_SIZE))

    state = assert_populate_matches(build, mib=16)
    assert VmStats(*state[3]).huge_page_faults == 0
    assert state[-1][-1] == 2   # buddy failed_allocations: two order-9 tries


@pytest.mark.parametrize("thp", [True, False])
def test_populate_out_of_memory_matches_per_page(thp):
    def build(memory, proc, populate):
        fragment_to_order_zero(memory, keep_every=3)
        populate(proc, proc.mmap(3 * HUGE_PAGE_SIZE))

    state = assert_populate_matches(build, mib=4, thp=thp, oom=True)
    stats = VmStats(*state[3])
    assert stats.minor_faults == stats.base_page_faults + 1


def test_populate_with_page_coloring_matches_per_page():
    def build(memory, proc, populate):
        memory.buddy.allocate(0)
        populate(proc, proc.mmap(HUGE_PAGE_SIZE + 40 * PAGE_SIZE))

    state = assert_populate_matches(build, coloring_bits=3)
    assert VmStats(*state[3]).colored_faults > 0


def test_shared_segment_takes_per_frame_frames():
    memory = PhysicalMemory(16 * 1024 * 1024)
    twin = PhysicalMemory(16 * 1024 * 1024)
    for mem in (memory, twin):
        mem.buddy.allocate(1)
    segment = memory.create_shared_segment(37 * PAGE_SIZE + 1)
    assert segment.frames == [twin.buddy.allocate(0) for _ in range(38)]
    assert (dataclasses.astuple(memory.buddy.stats)
            == dataclasses.astuple(twin.buddy.stats))
