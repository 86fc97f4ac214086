"""Per-process page tables mapping virtual pages to physical frames.

The table stores 4 KiB mappings plus a huge-page flag per entry, mirroring
what the paper extracts from Linux's ``pagemap`` and ``kpageflags``
interfaces (whether each access hit a transparently-mapped huge page).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .address import (
    PAGE_SHIFT,
    PAGE_SIZE,
    page_number,
    page_offset,
)

#: Low bits of a packed mapping (``pfn << 2 | flags``); the same values
#: as the flags column of :meth:`PageTable.arrays`.
HUGE = 1
WRITABLE = 2


class TranslationFault(Exception):
    """Raised when a virtual address has no mapping (a page fault)."""

    def __init__(self, va: int):
        super().__init__(f"no translation for VA {va:#x}")
        self.va = va


@dataclass(frozen=True)
class PageTableEntry:
    """One 4 KiB translation.

    ``huge`` marks entries that belong to a 2 MiB transparent huge page;
    the simulator still tracks them at 4 KiB granularity but the TLB and
    the Fig. 5 "hugepage" category use the flag.
    """

    pfn: int
    huge: bool = False
    writable: bool = True


def _flags(huge: bool, writable: bool) -> int:
    return (HUGE if huge else 0) | (WRITABLE if writable else 0)


class PageTable:
    """A flat VPN -> mapping table for one address space.

    A radix-tree page table would translate identically; a flat dict keeps
    the simulator fast while `walk_latency` models the lookup cost of the
    real 4-level walk on a TLB miss. Each mapping is one packed int,
    ``pfn << 2 | writable << 1 | huge``, so a whole run of pages maps in
    one ``dict.update`` (:meth:`map_run`) and the table flattens to
    arrays without building an object per page (:meth:`arrays`).
    :class:`PageTableEntry` objects are built only when :meth:`lookup`
    asks for one, once per page.
    """

    def __init__(self, asid: int = 0):
        self.asid = asid
        self._packed: Dict[int, int] = {}
        self._entries: Dict[int, PageTableEntry] = {}

    @classmethod
    def from_arrays(cls, vpns, pfns, flags, asid: int = 0) -> "PageTable":
        """Rebuild a table from :meth:`arrays` output."""
        table = cls(asid=asid)
        packed = (np.asarray(pfns, dtype=np.int64) << 2) | (
            np.asarray(flags, dtype=np.int64) & (HUGE | WRITABLE))
        table._packed = dict(zip(np.asarray(vpns).tolist(),
                                 packed.tolist()))
        return table

    def __len__(self) -> int:
        return len(self._packed)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._packed

    def map_page(self, vpn: int, pfn: int, huge: bool = False,
                 writable: bool = True) -> None:
        """Install a 4 KiB translation; remapping an existing VPN is an error."""
        if vpn in self._packed:
            raise ValueError(f"VPN {vpn:#x} already mapped")
        self._packed[vpn] = pfn << 2 | _flags(huge, writable)

    def map_run(self, vpn: int, pfn: int, count: int, huge: bool = False,
                writable: bool = True) -> None:
        """Map ``count`` pages ``vpn + i -> pfn + i`` in one update.

        The same mappings as ``count`` :meth:`map_page` calls. A run
        that overlaps a mapped VPN is rejected before anything is
        mapped.
        """
        pages = range(vpn, vpn + count)
        if self.maps_any(pages):
            raise ValueError(
                f"run of {count} pages at VPN {vpn:#x} overlaps a mapping")
        first = pfn << 2 | _flags(huge, writable)
        self._packed.update(zip(pages, range(first, first + (count << 2), 4)))

    def maps_any(self, vpns: Iterable[int]) -> bool:
        """True if any of ``vpns`` is mapped."""
        return not self._packed.keys().isdisjoint(vpns)

    def unmap_page(self, vpn: int) -> PageTableEntry:
        """Remove and return the translation for ``vpn``."""
        entry = self.lookup(vpn)
        if entry is None:
            raise TranslationFault(vpn << PAGE_SHIFT)
        del self._packed[vpn]
        del self._entries[vpn]
        return entry

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Return the entry for ``vpn`` or ``None`` if unmapped.

        Entries are built on first lookup and memoized, so every lookup
        of one page returns the same object.
        """
        entry = self._entries.get(vpn)
        if entry is None:
            packed = self._packed.get(vpn)
            if packed is None:
                return None
            entry = self._entries[vpn] = PageTableEntry(
                pfn=packed >> 2, huge=bool(packed & HUGE),
                writable=bool(packed & WRITABLE))
        return entry

    def translate(self, va: int) -> int:
        """Translate a virtual address to a physical address.

        Raises :class:`TranslationFault` if the page is unmapped.
        """
        packed = self._packed.get(page_number(va))
        if packed is None:
            raise TranslationFault(va)
        return (packed >> 2 << PAGE_SHIFT) | page_offset(va)

    def translate_entry(self, va: int) -> Tuple[int, PageTableEntry]:
        """Translate ``va`` and also return its page table entry."""
        entry = self.lookup(page_number(va))
        if entry is None:
            raise TranslationFault(va)
        return (entry.pfn << PAGE_SHIFT) | page_offset(va), entry

    def is_mapped(self, va: int) -> bool:
        """True if the page containing ``va`` has a translation."""
        return page_number(va) in self._packed

    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Iterate over (vpn, entry) pairs in arbitrary order."""
        lookup = self.lookup
        return ((vpn, lookup(vpn)) for vpn in list(self._packed))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table as vpn-sorted ``(vpns, pfns, flags)`` arrays.

        int64 vpns and pfns, int8 flags (1 = huge, 2 = writable): the
        interchange format of the ``.npz`` trace files and the shared
        trace substrate, rebuilt by :meth:`from_arrays`. Sorted by vpn,
        a canonical order independent of page-fault order. Built from
        the packed ints; no entry object is created.
        """
        n = len(self._packed)
        vpns = np.fromiter(self._packed.keys(), dtype=np.int64, count=n)
        packed = np.fromiter(self._packed.values(), dtype=np.int64,
                             count=n)
        if n > 1 and not bool(np.all(vpns[:-1] < vpns[1:])):
            order = np.argsort(vpns, kind="stable")
            vpns, packed = vpns[order], packed[order]
        return (vpns, packed >> 2,
                (packed & (HUGE | WRITABLE)).astype(np.int8))

    def gather(self, vpns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-element ``(pfn, huge)`` arrays for an array of vpns.

        The table is read once per distinct vpn. Unmapped vpns give
        pfn ``-1`` and ``huge`` False.
        """
        unique, inverse = np.unique(vpns, return_inverse=True)
        # -4 packs pfn -1 with no flags.
        packed = np.fromiter(map(self._packed.get, unique.tolist(),
                                 repeat(-4)),
                             dtype=np.int64, count=len(unique))
        packed = packed[inverse.reshape(-1)].reshape(np.shape(vpns))
        return packed >> 2, (packed & HUGE).astype(bool)

    def mapped_bytes(self) -> int:
        """Total bytes of mapped virtual memory."""
        return len(self._packed) * PAGE_SIZE
