"""Direct unit tests for the page table."""

import numpy as np
import pytest

from repro.mem import (
    PAGE_SIZE,
    PageTable,
    PageTableEntry,
    TranslationFault,
    page_number,
)


def test_map_and_translate():
    table = PageTable()
    table.map_page(vpn=0x100, pfn=0x55)
    assert table.translate(0x100 * PAGE_SIZE + 0x123) == \
        0x55 * PAGE_SIZE + 0x123


def test_double_map_rejected():
    table = PageTable()
    table.map_page(0x100, 0x55)
    with pytest.raises(ValueError):
        table.map_page(0x100, 0x66)


def test_translate_unmapped_faults():
    table = PageTable()
    with pytest.raises(TranslationFault) as exc:
        table.translate(0xABC123)
    assert exc.value.va == 0xABC123


def test_unmap_returns_entry_and_faults_after():
    table = PageTable()
    table.map_page(0x10, 0x20, huge=True)
    entry = table.unmap_page(0x10)
    assert entry.pfn == 0x20
    assert entry.huge
    with pytest.raises(TranslationFault):
        table.translate(0x10 * PAGE_SIZE)


def test_unmap_missing_faults():
    with pytest.raises(TranslationFault):
        PageTable().unmap_page(0x1)


def test_lookup_and_contains():
    table = PageTable()
    table.map_page(7, 9)
    assert 7 in table
    assert 8 not in table
    assert table.lookup(7).pfn == 9
    assert table.lookup(8) is None


def test_translate_entry_returns_flags():
    table = PageTable()
    table.map_page(3, 4, huge=True, writable=False)
    pa, entry = table.translate_entry(3 * PAGE_SIZE)
    assert pa == 4 * PAGE_SIZE
    assert entry.huge
    assert not entry.writable


def test_len_entries_mapped_bytes():
    table = PageTable(asid=5)
    assert table.asid == 5
    for vpn in range(10):
        table.map_page(vpn, 100 + vpn)
    assert len(table) == 10
    assert table.mapped_bytes() == 10 * PAGE_SIZE
    assert dict(table.entries())[3].pfn == 103


def test_is_mapped_uses_page_granularity():
    table = PageTable()
    table.map_page(1, 2)
    assert table.is_mapped(PAGE_SIZE)
    assert table.is_mapped(2 * PAGE_SIZE - 1)
    assert not table.is_mapped(2 * PAGE_SIZE)


def test_entry_is_immutable():
    entry = PageTableEntry(pfn=1)
    with pytest.raises(AttributeError):
        entry.pfn = 2


def test_map_run_equals_map_page_loop():
    runs = [(0x100, 0x900, 512, True, True), (0x400, 0x20, 7, False, True),
            (0x50, 0x3000, 1, False, False), (0x2000, 0, 0, False, True)]
    by_run, by_page = PageTable(), PageTable()
    for vpn, pfn, count, huge, writable in runs:
        by_run.map_run(vpn, pfn, count, huge=huge, writable=writable)
        for i in range(count):
            by_page.map_page(vpn + i, pfn + i, huge=huge, writable=writable)
    assert dict(by_run.entries()) == dict(by_page.entries())
    assert len(by_run) == len(by_page) == 520
    assert by_run.translate(0x403 * PAGE_SIZE + 9) == 0x23 * PAGE_SIZE + 9


def test_map_run_overlap_is_rejected_before_mapping():
    table = PageTable()
    table.map_page(0x105, 1)
    with pytest.raises(ValueError):
        table.map_run(0x100, 0x900, 8)
    assert len(table) == 1


def flatten_by_entries(table):
    """The pre-packing flattener: one entry object per page."""
    rows = sorted((vpn, e.pfn, (1 if e.huge else 0) | (2 if e.writable else 0))
                  for vpn, e in table.entries())
    vpns, pfns, flags = zip(*rows)
    return (np.asarray(vpns, dtype=np.int64), np.asarray(pfns, dtype=np.int64),
            np.asarray(flags, dtype=np.int8))


def test_arrays_match_entry_flattening():
    table = PageTable()
    table.map_run(0x300, 0x1200, 512, huge=True)
    table.map_page(0x10, 0x77, writable=False)
    table.map_run(0x20, 0x55, 5)
    table.unmap_page(0x22)
    want = flatten_by_entries(table)
    got = table.arrays()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    twin = PageTable.from_arrays(*got, asid=3)
    assert twin.asid == 3
    assert dict(twin.entries()) == dict(table.entries())


def test_lookup_memoizes_and_gather_reads_flags():
    table = PageTable()
    table.map_run(8, 100, 4, huge=True)
    table.map_page(20, 7)
    assert table.lookup(9) is table.lookup(9)
    assert table.lookup(9) == PageTableEntry(pfn=101, huge=True)
    pfns, huge = table.gather(np.array([20, 9, 9, 5, 11]))
    assert pfns.tolist() == [7, 101, 101, -1, 103]
    assert huge.tolist() == [False, True, True, False, True]
