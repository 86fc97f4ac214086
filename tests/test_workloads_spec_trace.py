"""Tests for app profiles, trace generation, and mixes."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mem import PhysicalMemory, Process, index_bits
from repro.workloads import (
    EVALUATED_APPS,
    LOW_SPECULATION_APPS,
    MIXES,
    PROFILES,
    MemoryCondition,
    generate_trace,
    get_mix,
    get_profile,
    make_pattern,
)
from repro.workloads.trace import (
    DEFAULT_PHYS_BYTES,
    _condition_memory,
    _offsets_to_va,
    build_memory_image,
    stable_hash,
)


def test_all_evaluated_apps_have_profiles():
    assert len(EVALUATED_APPS) == 26
    for app in EVALUATED_APPS:
        assert app in PROFILES


def test_profile_weights_validated():
    from repro.workloads import AppProfile, PatternSpec
    with pytest.raises(ValueError):
        AppProfile("bad", 1 << 20, "chunked",
                   (PatternSpec(0.5, "zipf"),))
    with pytest.raises(ValueError):
        AppProfile("bad", 1 << 20, "heap",
                   (PatternSpec(1.0, "zipf"),))


def test_get_profile_unknown():
    with pytest.raises(ValueError):
        get_profile("doom")


def test_mix_table_matches_paper():
    assert len(MIXES) == 11
    assert get_mix("mix0") == ["h264ref", "hmmer", "perlbench", "povray"]
    assert get_mix("mix10") == ["leela_17", "exchange2_17", "xz_17",
                                "xalancbmk_17"]
    # Every evaluated app appears at least once across the mixes.
    used = {app for members in MIXES.values() for app in members}
    assert set(EVALUATED_APPS) <= used
    with pytest.raises(ValueError):
        get_mix("mix99")


def test_trace_basic_shape():
    trace = generate_trace("povray", 2000, seed=1)
    assert len(trace) == 2000
    assert trace.total_instructions >= 2000
    assert trace.va.dtype == np.int64
    assert 0.0 <= trace.huge_fraction <= 1.0


def test_trace_deterministic():
    a = generate_trace("sjeng", 1000, seed=3)
    b = generate_trace("sjeng", 1000, seed=3)
    assert np.array_equal(a.va, b.va)
    assert np.array_equal(a.pc, b.pc)
    assert np.array_equal(a.is_write, b.is_write)


def test_trace_seed_changes_stream():
    a = generate_trace("sjeng", 1000, seed=3)
    b = generate_trace("sjeng", 1000, seed=4)
    assert not np.array_equal(a.va, b.va)


def test_all_trace_pages_are_mapped():
    trace = generate_trace("gcc", 3000, seed=0)
    for va in trace.va[:500]:
        assert trace.process.page_table.is_mapped(int(va))


def test_thp_big_apps_run_on_huge_pages():
    trace = generate_trace("libquantum", 2000, seed=0,
                           condition=MemoryCondition.NORMAL)
    assert trace.huge_fraction > 0.9


def test_thp_off_eliminates_huge_pages():
    trace = generate_trace("libquantum", 2000, seed=0,
                           condition=MemoryCondition.THP_OFF)
    assert trace.huge_fraction == 0.0


def test_fragmentation_defeats_huge_pages():
    trace = generate_trace("libquantum", 2000, seed=0,
                           condition=MemoryCondition.FRAGMENTED)
    assert trace.huge_fraction < 0.5


def speculation_success(trace, n_bits):
    """Fraction of accesses whose index bits survive translation."""
    ok = 0
    for va in trace.va:
        pa = trace.process.translate(int(va))
        ok += index_bits(int(va), n_bits) == index_bits(pa, n_bits)
    return ok / len(trace.va)


def test_chunked_apps_speculate_well():
    trace = generate_trace("perlbench", 3000, seed=0)
    assert speculation_success(trace, 2) > 0.6


def test_offset_apps_speculate_poorly_at_4k():
    """The 'offset' style produces constant-but-nonzero deltas."""
    trace = generate_trace("calculix", 3000, seed=0)
    assert speculation_success(trace, 2) < 0.5


def test_low_speculation_apps_listed_in_paper():
    assert "cactusADM" in LOW_SPECULATION_APPS
    assert len(LOW_SPECULATION_APPS) == 7


def test_trace_rejects_bad_access_count():
    with pytest.raises(ValueError):
        generate_trace("sjeng", 0)


def test_shared_memory_for_multicore():
    from repro.mem import PhysicalMemory
    memory = PhysicalMemory(512 * 1024 * 1024, thp_enabled=True)
    t1 = generate_trace("povray", 500, seed=0, memory=memory)
    t2 = generate_trace("gamess", 500, seed=1, memory=memory)
    pfn1 = {t1.process.page_table.lookup(int(v) >> 12).pfn
            for v in t1.va[:100]}
    pfn2 = {t2.process.page_table.lookup(int(v) >> 12).pfn
            for v in t2.va[:100]}
    assert not pfn1 & pfn2


# ---------------------------------------------------------------------------
# the per-access loop, kept as the reference for the vectorized generator
# ---------------------------------------------------------------------------
def _loop_offset_to_va(regions, offset):
    for region in regions:
        if offset < region.length:
            return region.start + offset
        offset -= region.length
    return regions[-1].start + (offset % regions[-1].length)


def reference_trace(app, n, condition, seed):
    """(va, pc, dep_dist, huge_fraction) from one access at a time.

    Draws the same numbers in the same order as ``generate_trace`` and
    consumes each component's scalar pattern iterator lazily.
    """
    profile = get_profile(app)
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, stable_hash(app), stable_hash(condition.value)]))
    memory = _condition_memory(condition, DEFAULT_PHYS_BYTES, rng)
    process, regions = build_memory_image(profile, memory, rng)
    generators = []
    for spec in profile.patterns:
        params = {name: value for name, value in (
            ("working_set", spec.working_set), ("stride", spec.stride),
            ("alpha", spec.alpha)) if value}
        kind_rng = np.random.default_rng(rng.integers(2 ** 31))
        generators.append(make_pattern(spec.kind, profile.footprint,
                                       kind_rng, **params))
    weights = np.asarray([spec.weight for spec in profile.patterns])
    component = rng.choice(len(generators), size=n,
                           p=weights / weights.sum())
    rng.random(n)  # write flags
    rng.poisson(max(0.0, 1.0 / profile.mem_per_inst - 1.0), size=n)
    dep_draw = rng.exponential(1.0, size=n)
    repeats = rng.random(n) < profile.repeat_frac
    line_offsets = rng.integers(0, 8, size=n) * 8
    va, pc, dep_dist = [], [], []
    huge_hits = 0
    last_line = [-1] * len(generators)
    for i in range(n):
        comp = int(component[i])
        if repeats[i] and last_line[comp] >= 0:
            address = last_line[comp] | int(line_offsets[i])
        else:
            address = _loop_offset_to_va(regions, next(generators[comp]))
        last_line[comp] = address & ~63
        va.append(address)
        pc.append(0x400000 + comp * 0x100000
                  + 4 * ((address - Process.HEAP_BASE) >> 15))
        dep_dist.append(int(dep_draw[i]
                            * profile.patterns[comp].dep_dist_mean))
        entry = process.page_table.lookup(address >> 12)
        huge_hits += entry is not None and entry.huge
    return va, pc, dep_dist, huge_hits / n


@pytest.mark.parametrize("n", [1, 37, 2500])
@pytest.mark.parametrize("app,condition", [
    ("astar", MemoryCondition.NORMAL),        # chase + zipf + random
    ("hmmer", MemoryCondition.NORMAL),        # strided + sequential
    ("graph500", MemoryCondition.NORMAL),     # offset allocation
    ("omnetpp", MemoryCondition.THP_OFF),     # scattered allocation
    ("GemsFDTD", MemoryCondition.NORMAL),     # huge pages
])
def test_vectorized_trace_equals_per_access_loop(app, condition, n):
    for seed in (2, 5):
        trace = generate_trace(app, n, condition, seed=seed)
        va, pc, dep_dist, huge_fraction = reference_trace(
            app, n, condition, seed)
        assert trace.va.tolist() == va
        assert trace.pc.tolist() == pc
        assert trace.dep_dist.tolist() == dep_dist
        assert trace.huge_fraction == huge_fraction


def test_offsets_past_the_last_region_wrap_inside_it():
    process = Process(PhysicalMemory(1 << 24), asid=1)
    regions = [process.mmap(length, thp_eligible=False, align=4096)
               for length in (3 * 4096, 4096, 5 * 4096)]
    total = sum(region.length for region in regions)
    offsets = np.arange(0, 3 * total, 520, dtype=np.int64)
    assert (_offsets_to_va(regions, offsets).tolist()
            == [_loop_offset_to_va(regions, int(o)) for o in offsets])


# ---------------------------------------------------------------------------
# golden digests: trace bytes are a contract
# ---------------------------------------------------------------------------
#: sha256 per "app/condition/accesses/seed". Every cached result, store
#: digest and oracle row depends on these bytes, so a drift here must be
#: deliberate (and re-recorded), never a side effect of a speed-up.
GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "trace_digests.json").read_text())

#: cell-cold's four apps at its full length (perfbench/grids.py).
COLD_CELL_APPS = ("perlbench", "calculix", "libquantum", "mcf")


def trace_digest(trace) -> str:
    """sha256 over every byte a trace hands to the simulator.

    Covers the five per-access columns (bytes and dtypes), the
    huge-page fraction, the sorted (vpn, pfn, huge) page-table entries
    and the process's fault counters.
    """
    h = hashlib.sha256()
    for name in ("pc", "va", "is_write", "inst_gap", "dep_dist"):
        column = np.ascontiguousarray(getattr(trace, name))
        h.update(f"{name}:{column.dtype.str}:".encode())
        h.update(column.tobytes())
    h.update(repr(trace.huge_fraction).encode())
    entries = sorted((vpn, e.pfn, int(e.huge))
                     for vpn, e in trace.process.page_table.entries())
    h.update(np.asarray(entries, dtype=np.int64).tobytes())
    h.update(repr(dataclasses.astuple(trace.process.stats)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("condition", list(MemoryCondition),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("app", sorted(PROFILES))
def test_trace_bytes_match_golden_digest(app, condition):
    trace = generate_trace(app, 1500, condition, seed=7)
    key = f"{app}/{condition.value}/1500/7"
    assert trace_digest(trace) == GOLDEN_DIGESTS[key], key


@pytest.mark.parametrize("app", COLD_CELL_APPS)
def test_cold_cell_trace_bytes_match_golden_digest(app):
    trace = generate_trace(app, 30_000, MemoryCondition.NORMAL, seed=0)
    key = f"{app}/normal/30000/0"
    assert trace_digest(trace) == GOLDEN_DIGESTS[key], key


def test_golden_digests_cover_every_profile_and_condition():
    expected = {f"{app}/{c.value}/1500/7"
                for app in PROFILES for c in MemoryCondition}
    expected |= {f"{app}/normal/30000/0" for app in COLD_CELL_APPS}
    assert set(GOLDEN_DIGESTS) == expected
