"""TLB hierarchy matching the paper's Table II.

L1: a split D-TLB — 64 entries for 4 KiB pages plus 32 entries for 2 MiB
pages, 2-cycle latency (the latency VIPT/SIPT hides under the array
access). L2: a unified 1024-entry TLB at 7 cycles. A miss in both costs a
page-table walk, modelled as a fixed latency plus memory-hierarchy traffic
handled by the caller.

The TLB is looked up by *virtual* page number; entries cache the page
table entry so translation returns both PA and the huge flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..mem.address import HUGE_PAGE_SHIFT, PAGE_SHIFT
from ..mem.page_table import PageTable, PageTableEntry, TranslationFault
from .replacement import LruPolicy

_PAGE_OFF_MASK = (1 << PAGE_SHIFT) - 1


@dataclass
class TlbStats:
    """Hit/miss counters for the whole TLB hierarchy."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0

    @property
    def l1_hit_rate(self) -> float:
        """L1-TLB hits per access."""
        return self.l1_hits / self.accesses if self.accesses else 0.0

    @property
    def walk_rate(self) -> float:
        """Page walks triggered per access (both TLB levels missed)."""
        return self.walks / self.accesses if self.accesses else 0.0


class _TlbArray:
    """One set-associative TLB array keyed by (asid, vpn)."""

    def __init__(self, n_entries: int, n_ways: int, page_shift: int):
        if n_entries % n_ways:
            raise ValueError("entries must divide evenly into ways")
        self.page_shift = page_shift
        self.n_sets = n_entries // n_ways
        self.n_ways = n_ways
        empty = [None] * n_ways
        self._tags = [empty[:] for _ in range(self.n_sets)]
        self._entries = [empty[:] for _ in range(self.n_sets)]
        self._policy = LruPolicy(self.n_sets, n_ways)
        # key -> (set_index, way) accelerator over the way arrays: the
        # hot lookup becomes one dict probe instead of an O(ways) scan.
        self._where = {}

    def _set_of(self, key: Tuple[int, int]) -> int:
        return key[1] % self.n_sets

    def lookup(self, key: Tuple[int, int]) -> Optional[PageTableEntry]:
        loc = self._where.get(key)
        if loc is None:
            return None
        set_index, way = loc
        self._policy.touch(set_index, way)
        return self._entries[set_index][way]

    def fill(self, key: Tuple[int, int], entry: PageTableEntry) -> None:
        set_index = key[1] % self.n_sets
        tags = self._tags[set_index]
        try:
            # Single scan: index() both finds and tests for a free way.
            way = tags.index(None)
        except ValueError:
            way = self._policy.victim(set_index)
            del self._where[tags[way]]
        tags[way] = key
        self._entries[set_index][way] = entry
        self._where[key] = (set_index, way)
        self._policy.touch(set_index, way)

    def flush(self) -> None:
        for set_index in range(self.n_sets):
            for way in range(self.n_ways):
                self._tags[set_index][way] = None
                self._entries[set_index][way] = None
        self._where.clear()

    def state_dict(self) -> dict:
        """JSON-safe snapshot: (asid, vpn) tags, PTEs, LRU state."""
        return {
            "tags": [[list(key) if key is not None else None
                      for key in ways] for ways in self._tags],
            "entries": [[[e.pfn, e.huge, e.writable] if e is not None
                         else None for e in ways]
                        for ways in self._entries],
            "policy": self._policy.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a same-geometry snapshot into this array.

        ``_tags``/``_entries`` rows and the ``_where`` dict are mutated
        in place: :class:`TlbHierarchy` caches direct references to them
        for its hot lookup path, so their identities must survive.
        """
        for set_index in range(self.n_sets):
            tags = self._tags[set_index]
            entries = self._entries[set_index]
            for way in range(self.n_ways):
                key = state["tags"][set_index][way]
                tags[way] = tuple(key) if key is not None else None
                saved = state["entries"][set_index][way]
                entries[way] = (
                    PageTableEntry(pfn=saved[0], huge=saved[1],
                                   writable=saved[2])
                    if saved is not None else None)
        self._policy.load_state_dict(state["policy"])
        self._where.clear()
        for set_index, ways in enumerate(self._tags):
            for way, key in enumerate(ways):
                if key is not None:
                    self._where[key] = (set_index, way)


class TranslationResult:
    """Outcome of one translation through the TLB hierarchy.

    A plain ``__slots__`` class rather than a dataclass: one is
    allocated per memory access, and slot storage avoids the per-object
    ``__dict__`` on the hot path.
    """

    __slots__ = ("pa", "entry", "latency", "l1_hit", "walked")

    def __init__(self, pa: int, entry: PageTableEntry, latency: int,
                 l1_hit: bool, walked: bool):
        self.pa = pa
        self.entry = entry
        self.latency = latency
        self.l1_hit = l1_hit
        self.walked = walked

    def __repr__(self) -> str:
        return (f"TranslationResult(pa={self.pa:#x}, entry={self.entry!r}, "
                f"latency={self.latency}, l1_hit={self.l1_hit}, "
                f"walked={self.walked})")


class TlbHierarchy:
    """Split L1 D-TLB + unified L2 TLB + page walker, per Table II."""

    #: Dotted metrics namespace for ``repro.obs`` registration.
    metrics_namespace = "tlb"

    def __init__(self,
                 l1_4k_entries: int = 64, l1_4k_ways: int = 4,
                 l1_2m_entries: int = 32, l1_2m_ways: int = 4,
                 l2_entries: int = 1024, l2_ways: int = 8,
                 l1_latency: int = 2, l2_latency: int = 7,
                 walk_latency: int = 30):
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.walk_latency = walk_latency
        #: When set (see ``repro.cache.walker.PageWalker``), page walks
        #: issue real memory accesses instead of costing the fixed
        #: ``walk_latency``.
        self.walker = None
        self.stats = TlbStats()
        self._l1_4k = _TlbArray(l1_4k_entries, l1_4k_ways, PAGE_SHIFT)
        self._l1_2m = _TlbArray(l1_2m_entries, l1_2m_ways, HUGE_PAGE_SHIFT)
        self._l2 = _TlbArray(l2_entries, l2_ways, PAGE_SHIFT)
        # translate() runs once per memory access, so the L1 hit paths
        # reach straight into the arrays' lookup state (all three
        # _TlbArray internals are module-private): one dict probe plus
        # one LRU touch, with no intermediate method call. The bound
        # objects below are stable — _where/_entries are mutated in
        # place, never reassigned.
        self._l1_4k_where = self._l1_4k._where
        self._l1_4k_entries = self._l1_4k._entries
        self._l1_4k_touch = self._l1_4k._policy.touch
        self._l1_2m_where = self._l1_2m._where
        self._l1_2m_entries = self._l1_2m._entries
        self._l1_2m_touch = self._l1_2m._policy.touch
        self._l2_lookup = self._l2.lookup

    def translate(self, va: int, page_table: PageTable) -> TranslationResult:
        """Translate ``va``; fills TLBs on the way back up.

        Raises :class:`TranslationFault` for unmapped addresses — the
        driver is expected to have pre-touched all trace pages.
        """
        stats = self.stats
        stats.accesses += 1
        asid = page_table.asid
        vpn_4k = va >> PAGE_SHIFT
        vpn_2m = va >> HUGE_PAGE_SHIFT

        loc = self._l1_2m_where.get((asid, vpn_2m))
        if loc is not None:
            set_index, way = loc
            self._l1_2m_touch(set_index, way)
            entry = self._l1_2m_entries[set_index][way]
            # A 2M entry stores the translation of its first 4 KiB page;
            # reconstruct this page's pfn from the in-huge-page offset.
            pa = self._huge_pa(entry, va)
            stats.l1_hits += 1
            return TranslationResult(pa, entry, self.l1_latency, True, False)
        loc = self._l1_4k_where.get((asid, vpn_4k))
        if loc is not None:
            set_index, way = loc
            self._l1_4k_touch(set_index, way)
            entry = self._l1_4k_entries[set_index][way]
            pa = (entry.pfn << PAGE_SHIFT) | (va & _PAGE_OFF_MASK)
            stats.l1_hits += 1
            return TranslationResult(pa, entry, self.l1_latency, True, False)

        entry = self._l2_lookup((asid, vpn_4k))
        if entry is not None:
            stats.l2_hits += 1
            latency = self.l1_latency + self.l2_latency
            walked = False
        else:
            pa_entry = page_table.lookup(vpn_4k)
            if pa_entry is None:
                raise TranslationFault(va)
            entry = pa_entry
            stats.walks += 1
            if self.walker is not None:
                walk_cycles = self.walker.walk(va, asid)
            else:
                walk_cycles = self.walk_latency
            latency = self.l1_latency + self.l2_latency + walk_cycles
            walked = True
            self._l2.fill((asid, vpn_4k), entry)

        if entry.huge:
            base_entry = self._huge_base_entry(entry, va)
            self._l1_2m.fill((asid, vpn_2m), base_entry)
            pa = self._huge_pa(base_entry, va)
        else:
            self._l1_4k.fill((asid, vpn_4k), entry)
            pa = (entry.pfn << PAGE_SHIFT) | (va & _PAGE_OFF_MASK)
        return TranslationResult(pa, entry, latency, False, walked)

    @staticmethod
    def _huge_base_entry(entry: PageTableEntry, va: int) -> PageTableEntry:
        """Normalize a huge mapping to the pfn of its 2 MiB-aligned base."""
        pages_per_huge = 1 << (HUGE_PAGE_SHIFT - PAGE_SHIFT)
        in_huge_index = (va >> PAGE_SHIFT) % pages_per_huge
        base_pfn = entry.pfn - in_huge_index
        return PageTableEntry(pfn=base_pfn, huge=True,
                              writable=entry.writable)

    @staticmethod
    def _huge_pa(base_entry: PageTableEntry, va: int) -> int:
        offset = va & ((1 << HUGE_PAGE_SHIFT) - 1)
        return (base_entry.pfn << PAGE_SHIFT) | offset

    def flush(self) -> None:
        """Flush all TLB levels (context switch)."""
        self._l1_4k.flush()
        self._l1_2m.flush()
        self._l2.flush()

    def state_dict(self) -> dict:
        """JSON-safe snapshot of all levels, stats, and walker state."""
        from ..stateutil import stats_state
        return {"stats": stats_state(self.stats),
                "l1_4k": self._l1_4k.state_dict(),
                "l1_2m": self._l1_2m.state_dict(),
                "l2": self._l2.state_dict(),
                "walker": (self.walker.state_dict()
                           if self.walker is not None else None)}

    def load_state_dict(self, state: dict) -> None:
        """Restore all levels in place (pre-bound lookups stay valid)."""
        from ..stateutil import load_stats
        load_stats(self.stats, state["stats"])
        self._l1_4k.load_state_dict(state["l1_4k"])
        self._l1_2m.load_state_dict(state["l1_2m"])
        self._l2.load_state_dict(state["l2"])
        if self.walker is not None and state.get("walker") is not None:
            self.walker.load_state_dict(state["walker"])
