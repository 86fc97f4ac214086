"""The replay engine behind ``engine="kernel"``: two passes, one oracle.

The interpreter-level fused loop (``driver._replay_range``) pays the
full per-access cost of the SIPT pipeline — TLB method calls, a
13-weight perceptron dot product, outcome objects, two result objects —
on every access. This module replays the same pipeline, byte-identical
to that oracle, through one of two passes:

* **The native pass** (:mod:`repro.sim.native`, ``_replay.c``): one C
  ``step()`` with runtime flags for the core kind, speculation variant
  and way prediction, driven by a range loop behind
  :meth:`KernelEngine.replay` and by a round-robin over N cores that
  share the LLC and DRAM behind :func:`run_multicore_kernel`. It runs
  every analytic-core (``ooo``/``inorder``) configuration inside the
  envelope on a private copy of all structural state, exported before
  and imported back after each call, so python stays authoritative
  between ranges. It is compiled on first use and cached.
* **The python pass**, exec-compiled from :data:`_LOOP_TEMPLATE` per
  (core kind, speculation variant, way prediction) shape. It runs
  whenever the native pass cannot: the detailed core (its live
  ``retire``/``memory_access`` calls stay in the loop), a box where the
  C build fails, and a range whose predictor state the C pass cannot
  take (a poisoned perceptron, for which it raises the oracle's error).
  Every such case is counted under a ``native:`` reason in
  :data:`DECLINES` (``native:core-det``, ``native:no-compiler``, ...).

The python pass works on the live components:

* **Translation** — the L1 TLB hit path (2 MiB array, then 4 KiB
  array: one dict probe and an LRU touch) runs inline on the live
  ``_TlbArray`` ``_where`` dicts and LRU stacks. An L1 TLB miss calls
  the live ``TlbHierarchy.translate``, which does the L2 lookup, the
  page walk through the real walker (its loads are demand traffic
  into the live L2/LLC) and the fills, in the oracle's order.
* **Speculation** — NAIVE/BYPASS/COMBINED are inlined over the live
  perceptron ``_weights``/``_history`` and IDB ``_deltas``/
  ``_last_page``, mirroring ``PerceptronPredictor.predict_train``,
  ``IndexDeltaBuffer.predict_update`` and the 1-bit reversed
  prediction. The global history runs as an int bitmask and is written
  back at range end. The dot product ``y`` is cached per perceptron
  entry, keyed by that bitmask, and the entry's cache is cleared
  whenever it trains, so a cached ``y`` is always the exact sum.
* **L1 and below** — array probes, LRU, fills and evictions, way
  prediction, port conflicts, and the core's stall arithmetic in the
  oracle's exact floating-point order. L1 misses are serviced by the
  **compiled miss path** (:func:`_compile_miss_path`): closures over
  the live L2/LLC/DRAM containers that mirror
  ``CacheHierarchy.access``/``writeback`` operation for operation. A
  hierarchy with non-default components keeps the live python methods
  instead (counted as ``miss-path-live`` in :data:`DECLINES`).

Both passes start every range from whatever the context holds — a
fresh build, the previous chunk, or a ``load_state_dict`` restore — so
chunked, checkpointed and resumed replays chain with nothing to
verify, and both fold their counters into the live stats objects at
range end (:func:`_fold_front`), so ``state_dict()`` and the metrics
registry always see oracle state between ranges. The python pass's
per-trace artifacts are derived columns memoized on
:meth:`TraceColumns.kernel_memo` (physical addresses, L1 line and set
index, width-scaled gaps, the instruction prefix sum, whether the
speculated index bits survive translation, the perceptron entry per
PC); the native pass memoizes its int64 columns there too.

**Oracle equivalence.** ``simulate(engine="kernel")`` must produce
byte-identical results to the python path. Anything neither pass
models declines at build and leaves the whole run to the oracle:
subclassed components, non-LRU L1 replacement, page-bound IDB, and
predictor state that is not finite ints (a NaN-poisoned perceptron
declines as ``predictor-state``, and the oracle then raises its own
error). Declines are counted per reason in :data:`DECLINES`
(``REPRO_KERNEL_DEBUG=1`` re-raises build failures instead).

Float-exactness notes (all proven value-identical to the oracle):
ternary substitutes for ``min``/``max`` use ``<=``/``>=`` so ties
return the same value; ``max(df, 0.45)`` in the OOO L2 band is the
constant ``0.45`` because every dep factor is below it; stall terms
are accumulated onto locals seeded from the live stats in the same
order the oracle adds them. The C pass keeps the same expressions and
is built with ``-ffp-contract=off`` and refuses platforms with excess
float precision.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import islice, repeat
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..cache.replacement import LruPolicy
from ..cache.tlb import TlbHierarchy
from ..core.way_prediction import WayPredictor
from ..errors import SimulationError
from ..mem.address import HUGE_PAGE_SHIFT, PAGE_SHIFT
from ..timing.detailed import DetailedOooCore
from ..timing.inorder import InOrderCore
from ..timing.ooo import OooCore
from ..workloads.substrate import columns_for
from . import native

_PAGE_OFF_MASK = (1 << PAGE_SHIFT) - 1

#: Why engines were not built, by reason, process-wide. Deliberately a
#: module-level counter rather than a ``SimResult`` field or registry
#: metric: results must stay byte-identical between engines (the
#: equivalence tests fingerprint the whole result, metrics included),
#: and the python engine never attempts a build at all. Read with
#: :func:`decline_counts`; set ``REPRO_KERNEL_DEBUG=1`` to re-raise
#: swallowed build exceptions instead of counting them.
DECLINES: Counter = Counter()


def _decline(reason: str) -> None:
    """Count one engine decline under ``reason`` (see :data:`DECLINES`)."""
    DECLINES[reason] += 1


def decline_counts() -> dict:
    """Per-reason decline counts accumulated in this process."""
    return dict(DECLINES)


def reset_declines() -> None:
    """Zero the decline counters (test isolation)."""
    DECLINES.clear()


# ----------------------------------------------------------------------
# compiled miss path (L2 -> LLC -> DRAM below the L1)
# ----------------------------------------------------------------------

#: Flat counter layout for the compiled miss path. Deltas accumulate
#: in one plain list between flushes instead of attribute round-trips
#: per miss, and only the irreducible counts are maintained on the hot
#: path — everything implied by an invariant is derived at flush time:
#: hierarchy accesses pair 1:1 with level accesses, every level access
#: is a hit or a miss, every miss fills, every DRAM tick is a row hit
#: or a row miss, and every write-back drained to DRAM is a DRAM
#: write. Hit counts split by site (demand vs insert) because the
#: hierarchy attributes hits only to demand accesses while the level
#: counts both.
_MP_SLOTS = 13
# c[0]  L2 accesses            c[5]  LLC accesses
# c[1]  L2 demand hits         c[6]  LLC demand hits
# c[2]  L2 insert hits         c[7]  LLC insert hits
# c[3]  L2 evictions           c[8]  LLC evictions
# c[4]  L2 writebacks          c[9]  LLC writebacks
# c[10] DRAM reads             c[11] DRAM writes
# c[12] DRAM row misses


def _emit_cache(out, ind, sfx, pfx, acc_c, hit_c, evic_c, wb_c, pa,
                write, hit_lines, miss_lines) -> None:
    """Append source for one inlined ``SetAssociativeCache`` access.

    Mirrors ``access``/``_fill`` exactly — probe, LRU touch with the
    MRU early-exit, free-way fill (the where-dict holds exactly the
    occupied ways, so its size distinguishes free-way from eviction
    without scanning), LRU victim with dirty write-back — over the
    ``{pfx}_*`` container bindings. ``acc_c``/``hit_c``/``evic_c``/
    ``wb_c`` are the counter slots this site maintains; misses and
    fills are derived at flush. ``sfx`` uniquifies the locals so sites
    can nest; ``hit_lines`` run after the hit path's LRU/dirty update,
    and ``miss_lines`` after the fill, with ``spill{sfx}`` holding the
    dirty victim's line address or -1.
    """
    a = ind
    out += [
        f"{a}c[{acc_c}] += 1",
        f"{a}line{sfx} = ({pa}) >> {pfx}_shift",
        f"{a}sidx{sfx} = line{sfx} & {pfx}_mask",
        f"{a}w{sfx} = {pfx}_where[sidx{sfx}]",
        f"{a}way{sfx} = w{sfx}.get(line{sfx}, -1)",
        f"{a}st{sfx} = {pfx}_stacks[sidx{sfx}]",
        f"{a}d{sfx} = {pfx}_dirty[sidx{sfx}]",
        f"{a}if way{sfx} >= 0:",
        f"{a}    c[{hit_c}] += 1",
        f"{a}    if st{sfx}[0] != way{sfx}:",
        f"{a}        st{sfx}.remove(way{sfx})",
        f"{a}        st{sfx}.insert(0, way{sfx})",
        f"{a}    if {write}:",
        f"{a}        d{sfx}[way{sfx}] = True",
        *hit_lines,
        f"{a}else:",
        f"{a}    row{sfx} = {pfx}_tags[sidx{sfx}]",
        f"{a}    if len(w{sfx}) < {pfx}_ways:",
        f"{a}        way{sfx} = row{sfx}.index(-1)",
        f"{a}        spill{sfx} = -1",
        f"{a}    else:",
        f"{a}        way{sfx} = st{sfx}[-1]",
        f"{a}        victim{sfx} = row{sfx}[way{sfx}]",
        f"{a}        spill{sfx} = (victim{sfx} if d{sfx}[way{sfx}]"
        f" else -1)",
        f"{a}        c[{evic_c}] += 1",
        f"{a}        if spill{sfx} >= 0:",
        f"{a}            c[{wb_c}] += 1",
        f"{a}        del w{sfx}[victim{sfx}]",
        f"{a}    row{sfx}[way{sfx}] = line{sfx}",
        f"{a}    w{sfx}[line{sfx}] = way{sfx}",
        f"{a}    d{sfx}[way{sfx}] = {write}",
        f"{a}    if st{sfx}[0] != way{sfx}:",
        f"{a}        st{sfx}.remove(way{sfx})",
        f"{a}        st{sfx}.insert(0, way{sfx})",
        *miss_lines,
    ]


def _emit_dram(out, ind, sfx, pa) -> None:
    """Append source for one inlined ``DramModel._access`` tick.

    Leaves the access latency in ``lat{sfx}``. ``_last_bank`` is a
    reassigned attribute, not a mutated container, so it round-trips
    through the instance every tick — the page walker's own live DRAM
    accesses interleave with these.
    """
    a = ind
    out += [
        f"{a}block{sfx} = ({pa}) // row_bytes",
        f"{a}channel{sfx} = block{sfx} % n_channels",
        f"{a}block{sfx} //= n_channels",
        f"{a}bank{sfx} = block{sfx} % n_banks",
        f"{a}row{sfx} = block{sfx} // n_banks",
        f"{a}rows{sfx} = open_rows[channel{sfx}]",
        f"{a}open_row{sfx} = rows{sfx}[bank{sfx}]",
        f"{a}lat{sfx} = cas",
        f"{a}if open_row{sfx} != row{sfx}:",
        f"{a}    c[12] += 1",
        f"{a}    lat{sfx} += rcd",
        f"{a}    if open_row{sfx} != -1:",
        f"{a}        lat{sfx} += rp",
        f"{a}    rows{sfx}[bank{sfx}] = row{sfx}",
        f"{a}last{sfx} = dram._last_bank",
        f"{a}if last{sfx}[0] == channel{sfx} and "
        f"last{sfx}[1] == bank{sfx}:",
        f"{a}    lat{sfx} += queue",
        f"{a}dram._last_bank = (channel{sfx}, bank{sfx})",
    ]


def _emit_dram_spill(ind, sfx, spill_var) -> list:
    """Lines draining a dirty LLC victim to DRAM (latency discarded)."""
    lines = [f"{ind}if {spill_var} >= 0:",
             f"{ind}    c[11] += 1"]
    _emit_dram(lines, ind + "    ", sfx, f"{spill_var} << llc_shift")
    return lines


def _miss_path_source(has_l2: bool) -> str:
    """Source of the ``_make`` factory for one miss-path shape.

    The factory takes the counter list and every live container as
    arguments (closure cells, not globals, in the generated functions)
    and returns ``(miss_access, miss_writeback)`` with the whole
    L2 -> LLC -> DRAM walk inlined — no per-level calls on the
    per-miss path.
    """
    I1 = "    "
    I2 = I1 * 2
    I3 = I1 * 3
    out = ["def _make(c, dram, open_rows, row_bytes, n_channels,",
           "          n_banks, cas, rcd, rp, queue, llc_where,",
           "          llc_tags, llc_dirty, llc_stacks, llc_shift,",
           "          llc_mask, llc_ways, llc_latency" +
           ("," if has_l2 else "):")]
    if has_l2:
        out.append("          l2_where, l2_tags, l2_dirty, l2_stacks,")
        out.append("          l2_shift, l2_mask, l2_ways, l2_latency):")
    out.append(I1 + "def miss_access(pa, is_write):")
    if has_l2:
        _emit_cache(out, I2, "_a", "l2", 0, 1, 3, 4, "pa", "is_write",
                    [I3 + "return l2_latency"], [])
        # CacheHierarchy._writeback_to_llc: the L2's dirty victim is
        # inserted into the LLC as a write before the demand access.
        out.append(I2 + "if spill_a >= 0:")
        _emit_cache(out, I3, "_b", "llc", 5, 7, 8, 9,
                    "spill_a << l2_shift", "True", [],
                    _emit_dram_spill(I3 + I1, "_bw", "spill_b"))
        _emit_cache(out, I2, "_c", "llc", 5, 6, 8, 9, "pa", "is_write",
                    [I3 + "return l2_latency + llc_latency"],
                    _emit_dram_spill(I3, "_cw", "spill_c"))
        out.append(I2 + "c[10] += 1")
        _emit_dram(out, I2, "_rd", "pa")
        out.append(I2 + "return l2_latency + llc_latency + lat_rd")
    else:
        _emit_cache(out, I2, "_a", "llc", 5, 6, 8, 9, "pa", "is_write",
                    [I3 + "return llc_latency"],
                    _emit_dram_spill(I3, "_aw", "spill_a"))
        out.append(I2 + "c[10] += 1")
        _emit_dram(out, I2, "_rd", "pa")
        out.append(I2 + "return llc_latency + lat_rd")
    out.append(I1 + "def miss_writeback(line_address, line_shift):")
    if has_l2:
        wb_tail = [I3 + "if spill_d >= 0:"]
        _emit_cache(wb_tail, I3 + I1, "_e", "llc", 5, 7, 8, 9,
                    "spill_d << l2_shift", "True", [],
                    _emit_dram_spill(I3 + I1 + I1, "_ew", "spill_e"))
        _emit_cache(out, I2, "_d", "l2", 0, 2, 3, 4,
                    "line_address << line_shift", "True", [], wb_tail)
    else:
        _emit_cache(out, I2, "_d", "llc", 5, 7, 8, 9,
                    "line_address << line_shift", "True", [],
                    _emit_dram_spill(I3, "_dw", "spill_d"))
    out.append(I1 + "return miss_access, miss_writeback")
    return "\n".join(out)


_MISS_MAKE_CACHE: dict = {}


def _compile_miss_path(mp):
    """Compiled functions for the L2 -> LLC -> DRAM miss path.

    Returns ``(miss_access, miss_writeback, flush)`` mirroring
    ``CacheHierarchy.access``/``writeback`` operation-for-operation, or
    ``None`` when the hierarchy declines to export its containers
    (:meth:`~repro.cache.hierarchy.CacheHierarchy.kernel_export`:
    subclassed hierarchy, cache, policy, or DRAM model — the engine
    then keeps the live python methods). The two functions are
    generated (:func:`_miss_path_source`) with every level inlined —
    probe, LRU, write-back cascades, DRAM row-buffer timing, no
    per-level calls. All structural mutations go to the live per-set
    arrays and row buffers in the oracle's exact order — the page
    walker's interleaved live accesses and any mid-run python fallback
    stay coherent — while stats deltas accumulate in a flat counter
    list (:data:`_MP_SLOTS` layout) that ``flush()`` folds into the
    live stats objects at chunk boundaries.
    """
    exp = mp.kernel_export()
    if exp is None:
        return None
    l2 = exp["l2"]
    has_l2 = l2 is not None
    make = _MISS_MAKE_CACHE.get(has_l2)
    if make is None:
        namespace: dict = {}
        exec(_miss_path_source(has_l2), namespace)  # noqa: S102
        make = _MISS_MAKE_CACHE[has_l2] = namespace["_make"]
    c = [0] * _MP_SLOTS
    dram = exp["dram"]
    llc = exp["llc"]
    args = [c, dram, dram._open_rows, dram.row_bytes, dram.n_channels,
            dram.n_banks, dram.cas_cycles, dram.rcd_cycles,
            dram.rp_cycles, dram.queue_cycles,
            llc._where, llc._tags, llc._dirty, llc.policy._stacks,
            llc.line_shift, llc.index_mask, llc.n_ways,
            exp["llc_latency"]]
    if has_l2:
        args += [l2._where, l2._tags, l2._dirty, l2.policy._stacks,
                 l2.line_shift, l2.index_mask, l2.n_ways,
                 exp["l2_latency"]]
    miss_access, miss_writeback = make(*args)

    mstats = exp["stats"]
    l2_stats = l2.stats if l2 is not None else None
    llc_stats = llc.stats
    dram_stats = dram.stats

    def flush():
        # Derived at fold time (see the layout comment): level hits
        # are demand + insert hits, misses are accesses - hits, every
        # miss fills, the hierarchy's demand counters pair 1:1 with
        # the level/DRAM ones, and row hits are ticks - row misses.
        mstats.l2_accesses += c[0]
        mstats.l2_hits += c[1]
        mstats.llc_accesses += c[5]
        mstats.llc_hits += c[6]
        mstats.dram_accesses += c[10]
        mstats.writebacks_to_dram += c[11]
        if l2_stats is not None:
            hit = c[1] + c[2]
            miss = c[0] - hit
            l2_stats.accesses += c[0]
            l2_stats.hits += hit
            l2_stats.misses += miss
            l2_stats.evictions += c[3]
            l2_stats.writebacks += c[4]
            l2_stats.fills += miss
        hit = c[6] + c[7]
        miss = c[5] - hit
        llc_stats.accesses += c[5]
        llc_stats.hits += hit
        llc_stats.misses += miss
        llc_stats.evictions += c[8]
        llc_stats.writebacks += c[9]
        llc_stats.fills += miss
        dram_stats.reads += c[10]
        dram_stats.writes += c[11]
        dram_stats.row_hits += c[10] + c[11] - c[12]
        dram_stats.row_misses += c[12]
        for i in range(_MP_SLOTS):
            c[i] = 0

    return miss_access, miss_writeback, flush


# ----------------------------------------------------------------------
# the one-pass loop, specialized per (core, speculation, way prediction)
# ----------------------------------------------------------------------

#: Arguments bound once per engine, in signature order after the rows
#: and the per-range state (see :func:`_plan`). Containers are the live
#: components' own, so every write lands in oracle state.
_LOOP_PARAMS = (
    # translation: L1 TLB arrays and the live fallback for a miss
    "w2m", "s2m", "w4k", "s4k", "asid", "ps", "hps", "translate",
    "page_table", "tl1_lat",
    # speculation: perceptron rows/sizing, IDB tables
    "weights", "p_n", "hlen1", "hmask", "theta", "cmax", "cmin",
    "deltas", "last_page", "i_n", "imask",
    # latency and the L1 port (fast/extra are the non-SIPT constants)
    "hit_lat", "window", "ccyc", "fast", "extra",
    # the L1 array and the miss path below it
    "wheres", "stacks", "dirty", "tags", "n_ways", "miss_access",
    "miss_writeback", "line_shift", "wp_penalty",
    # the core model
    "mlp", "rob_half", "inv_w", "width", "retire", "memory_access",
)

#: Lines prefixed ``{X}`` are kept only when flag ``X`` is set for the
#: specialization (:func:`_compile_loop`). Core flags: {OOO}/{INO} are
#: the analytic cores' stall arithmetic, {ANA} is shared by both, and
#: {DET} keeps the detailed core's live ``retire``/``memory_access``
#: calls (its issue/retire recurrence is real state, not foldable
#: arithmetic — ``gapw`` then carries raw instruction gaps, not
#: width-scaled floats). Speculation flags: {SIPT} any speculating
#: variant, {NAIVE}, {PERC} perceptron variants (BYPASS and COMBINED),
#: {BYP}, {COMB}, and COMBINED's value predictor — {IDB}, or {REV} for
#: the 1-bit reversed prediction. {WP}/{NOWP} select way prediction;
#: {MC} makes the pass a generator that yields after every access.
#: Core constants are literals, mirrored from OooCore/InOrderCore (the
#: engine gate requires those exact types): PIPELINE_HIDE=2.0,
#: NEAR_LATENCY=16, dep factors 0.22/0.08/0.02 at thresholds 2/8,
#: L2_CLASS_EXPOSURE=0.45 (every dep factor is below it, so the
#: oracle's max() is the constant), ROB absorb 0.4 and floor 0.04;
#: in-order STORE_STALL_FRACTION=0.3 past 4 cycles, HIT_EXPOSURE=0.4
#: at latency<=8, MISS_EXPOSURE=1.0.
_LOOP_TEMPLATE = """\
    hits = evics = l1_wb = wp_pred = wp_corr = wp_sec = 0
    tl1 = pconf = n_fast = n_extra = n_ol = n_via = n_idb = pcorr = 0
    last_vpn = -1
{PERC}    ycache = [{} for _ in range(p_n)]
    for (gap, gapw, pc, va, is_write, dep, pa, line, sidx, unchanged,
         pe) in rows:
{DET}        retire(gapw)
        # TlbHierarchy.translate: the L1 hit paths inline (2M array
        # first, skipped while it is empty), the live method for L2
        # hits and walks (walker loads, fills, and their stats in the
        # oracle's order). The previous access's translation left its
        # page's entry MRU in an L1 TLB array and nothing touched the
        # TLB since, so a repeat of that page is an L1 hit whose LRU
        # touch is a no-op.
        vpn = va >> ps
        if vpn == last_vpn:
            tl1 += 1
            t_lat = tl1_lat
        else:
            last_vpn = vpn
            loc = w2m.get((asid, va >> hps)) if w2m else None
            if loc is not None:
                tst = s2m[loc[0]]
            else:
                loc = w4k.get((asid, vpn))
                if loc is not None:
                    tst = s4k[loc[0]]
            if loc is None:
                t_lat = translate(va, page_table).latency
            else:
                tl1 += 1
                t_lat = tl1_lat
                tw = loc[1]
                if tst[0] != tw:
                    tst.remove(tw)
                    tst.insert(0, tw)
{NAIVE}        spec = True
{PERC}        # PerceptronPredictor.predict_train over the live rows; the
{PERC}        # global history is the bitmask hb (bit j = history[j]).
{PERC}        yc = ycache[pe]
{PERC}        y = yc.get(hb)
{PERC}        if y is None:
{PERC}            wts = weights[pe]
{PERC}            y = wts[0]
{PERC}            bits = hb
{PERC}            for j in range(1, hlen1):
{PERC}                w = wts[j]
{PERC}                y += w if bits & 1 else -w
{PERC}                bits >>= 1
{PERC}            # The oracle's guard: the build declines non-int weights,
{PERC}            # but a checkpoint restored after it may carry NaN rows.
{PERC}            if y != y or y in _NONFINITE:
{PERC}                raise _nonfinite(pe)
{PERC}            yc[hb] = y
{PERC}        spec = y >= 0
{PERC}        if spec == unchanged:
{PERC}            pcorr += 1
{PERC}        if spec != unchanged or (y if spec else -y) <= theta:
{PERC}            t = 1 if unchanged else -1
{PERC}            wts = weights[pe]
{PERC}            w = wts[0] + t
{PERC}            wts[0] = cmax if w > cmax else (cmin if w < cmin else w)
{PERC}            bits = hb
{PERC}            for j in range(1, hlen1):
{PERC}                w = wts[j] + (t if bits & 1 else -t)
{PERC}                wts[j] = cmax if w > cmax else (cmin if w < cmin
{PERC}                                                 else w)
{PERC}                bits >>= 1
{PERC}            yc.clear()
{PERC}        hb = ((hb << 1) | unchanged) & hmask
{SIPT}        if spec:
{SIPT}            if unchanged:
{SIPT}                fast = True
{SIPT}                extra = False
{SIPT}                n_fast += 1
{SIPT}            else:
{SIPT}                fast = False
{SIPT}                extra = True
{SIPT}                n_extra += 1
{BYP}        else:
{BYP}            fast = False
{BYP}            extra = False
{BYP}            if unchanged:
{BYP}                n_ol += 1
{COMB}        else:
{COMB}            n_via += 1
{IDB}            # IndexDeltaBuffer.predict_update over the live tables.
{IDB}            ie = ((pc >> 2) ^ (pc >> 9)) % i_n
{IDB}            page = va >> ps
{IDB}            iv = page & imask
{IDB}            ip = (pa >> ps) & imask
{IDB}            hit = ((iv + deltas[ie]) & imask) == ip
{IDB}            deltas[ie] = (ip - iv) & imask
{IDB}            last_page[ie] = page
{REV}            hit = not unchanged   # the one bit, flipped
{COMB}            if hit:
{COMB}                fast = True
{COMB}                extra = False
{COMB}                n_fast += 1
{COMB}                n_idb += 1
{COMB}            else:
{COMB}                fast = False
{COMB}                extra = True
{COMB}                n_extra += 1
        if fast:
            lat = hit_lat if hit_lat > t_lat else t_lat
        else:
            lat = t_lat + hit_lat
        if port_busy and gap < window:
            lat += ccyc
            pconf += 1
        port_busy = extra
{WP}        st = stacks[sidx]
{WP}        predicted = st[0] if fast else -1
        w = wheres[sidx]
        way = w.get(line, -1)
        if way >= 0:
            hits += 1
{NOWP}            st = stacks[sidx]
            if st[0] != way:
                st.remove(way)
                st.insert(0, way)
            if is_write:
                dirty[sidx][way] = 1
{WP}            if predicted >= 0:
{WP}                wp_pred += 1
{WP}                if predicted == way:
{WP}                    wp_corr += 1
{WP}                else:
{WP}                    wp_sec += 1
{WP}                    lat += wp_penalty
        else:
            # Inline SetAssociativeCache._fill over the live arrays
            # (free-way scan, LRU victim, dirty write-back), with the
            # eviction/writeback/fill counts delta-folded at range end.
            # The where-dict holds exactly the occupied ways, so its
            # size tells free-way vs eviction without scanning.
            row = tags[sidx]
{NOWP}            st = stacks[sidx]
            drow = dirty[sidx]
            if len(w) < n_ways:
                fway = row.index(-1)
                wb = -1
            else:
                fway = st[-1]
                victim = row[fway]
                if drow[fway]:
                    wb = victim
                    l1_wb += 1
                else:
                    wb = -1
                evics += 1
                del w[victim]
            row[fway] = line
            w[line] = fway
            drow[fway] = is_write
            if st[0] != fway:
                st.remove(fway)
                st.insert(0, fway)
            lat += miss_access(pa, is_write)
            if wb >= 0:
                miss_writeback(wb, line_shift)
{ANA}        cyc += gapw
{ANA}        cyc += inv_w
{OOO}        if not is_write and lat > 2.0:
{OOO}            exposed = lat - 2.0
{OOO}            if lat <= 8:
{OOO}                stall = exposed * (0.22 if dep <= 2 else
{OOO}                                   (0.08 if dep <= 8 else 0.02))
{OOO}            elif lat <= 16:
{OOO}                stall = exposed * 0.45
{OOO}            else:
{OOO}                per_miss = exposed / mlp
{OOO}                absorbed = (per_miss if per_miss <= rob_half
{OOO}                            else rob_half)
{OOO}                a = per_miss - absorbed * 0.4
{OOO}                b = exposed * 0.04
{OOO}                stall = a if a >= b else b
{OOO}            ld_stall += stall
{OOO}            cyc += stall
{INO}        if is_write:
{INO}            v = (lat - 4) * 0.3
{INO}            exposed = v if v > 0.0 else 0.0
{INO}            st_stall += exposed
{INO}            cyc += exposed
{INO}        else:
{INO}            v = lat - 1.0 - dep / width
{INO}            exposed = (v if v > 0.0 else 0.0) * (0.4 if lat <= 8
{INO}                                                 else 1.0)
{INO}            ld_stall += exposed
{INO}            cyc += exposed
{DET}        memory_access(lat, is_write, dep)
{MC}        yield
    return (cyc, ld_stall, st_stall, port_busy, hb, hits, evics, l1_wb,
            wp_pred, wp_corr, wp_sec, tl1, pconf, n_fast, n_extra, n_ol,
            n_via, n_idb, pcorr)
"""

_LOOP_CACHE: dict = {}


def _nonfinite(entry: int) -> SimulationError:
    """The oracle's error for a non-finite perceptron activation."""
    return SimulationError(
        f"perceptron entry {entry} produced a "
        "non-finite activation; predictor state is corrupt")


def _compile_loop(kind: tuple, way_pred: bool) -> Callable:
    """The one-pass loop for one specialization.

    ``kind`` is ``(core, spec, stepwise)``: core ``"ooo"``/``"ino"``
    (analytic stall arithmetic inlined as literals) or ``"det"`` (the
    detailed core runs live inside the loop); spec ``"none"``,
    ``"naive"``, ``"bypass"``, ``"idb"`` or ``"rev"`` (COMBINED with
    the IDB, or with the 1-bit reversed prediction); ``stepwise``
    compiles a generator for the multicore round-robin.
    """
    key = (kind, way_pred)
    fn = _LOOP_CACHE.get(key)
    if fn is None:
        core, spec, stepwise = kind
        flags = {"OOO": core == "ooo", "INO": core == "ino",
                 "ANA": core != "det", "DET": core == "det",
                 "WP": way_pred, "NOWP": not way_pred,
                 "SIPT": spec != "none", "NAIVE": spec == "naive",
                 "PERC": spec in ("bypass", "idb", "rev"),
                 "BYP": spec == "bypass", "COMB": spec in ("idb", "rev"),
                 "IDB": spec == "idb", "REV": spec == "rev",
                 "MC": stepwise}
        lines = ["def _loop(rows, cyc, ld_stall, st_stall, port_busy, hb, "
                 + ", ".join(_LOOP_PARAMS) + "):"]
        for line in _LOOP_TEMPLATE.splitlines():
            if line.startswith("{"):
                marker, _, line = line[1:].partition("}")
                if not flags[marker]:
                    continue
            lines.append(line)
        namespace: dict = {"_nonfinite": _nonfinite,
                           "_NONFINITE": (float("inf"), float("-inf"))}
        exec("\n".join(lines), namespace)  # noqa: S102 — own template
        fn = _LOOP_CACHE[key] = namespace["_loop"]
    return fn


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class _Plan:
    """One context's compiled pass: loop, row columns, bound arguments."""

    __slots__ = ("loop", "columns", "args", "cum_inst", "mp")


def _start(ctx, plan: _Plan, rows):
    """Call the pass on ``rows``, seeded from the context's live state.

    The per-range state is what the oracle keeps outside the
    components: the analytic core's float accumulators, the port-busy
    flag, and the perceptron history (as a bitmask, bit j =
    ``history[j] > 0``). Everything else the loop reads and writes in
    place.
    """
    stats = ctx.core.stats
    hb = 0
    perc = ctx.l1.perceptron
    if perc is not None:
        for j, x in enumerate(perc._history):
            if x > 0:
                hb |= 1 << j
    return plan.loop(rows, stats.cycles, stats.load_stall_cycles,
                     stats.store_stall_cycles, ctx._port_busy, hb,
                     *plan.args)


def _fold(ctx, plan: _Plan, start: int, end: int, out: tuple) -> None:
    """Fold a python-pass range's counters and per-range state into ``ctx``.

    ``out`` is the loop's return tuple; the front-end counts go through
    :func:`_fold_front`, shared with the native pass.
    """
    (cyc, ld_stall, st_stall, port_busy, hb, hits, evics, l1_wb,
     wp_pred, wp_corr, wp_sec, tl1, pconf, n_fast, n_extra, n_ol,
     n_via, n_idb, pcorr) = out
    if plan.mp is not None:
        plan.mp[2]()
    d = end - start
    l1 = ctx.l1
    if plan.cum_inst is not None:
        # The analytic cores ran on locals; the detailed core updated
        # its own stats live inside the loop.
        stats = ctx.core.stats
        stats.instructions += int(plan.cum_inst[end]
                                  - plan.cum_inst[start])
        stats.cycles = cyc
        stats.load_stall_cycles = ld_stall
        stats.store_stall_cycles = st_stall
    ctx._port_busy = port_busy
    ctx.port_conflicts += pconf
    # Inline L1 TLB hits; translate() counted the misses itself.
    tstats = l1.tlb.stats
    tstats.accesses += tl1
    tstats.l1_hits += tl1
    misses = d - hits
    cstats = l1.cache.stats
    cstats.accesses += d
    cstats.hits += hits
    cstats.misses += misses
    cstats.evictions += evics
    cstats.writebacks += l1_wb
    cstats.fills += misses
    perc = l1.perceptron
    if perc is not None:
        history = perc._history
        history[:] = [1 if hb >> j & 1 else -1
                      for j in range(len(history))]
    _fold_front(ctx, d, n_fast, n_extra, n_ol, n_via, n_idb, pcorr,
                wp_pred, wp_corr, wp_sec)


def _fold_front(ctx, d: int, n_fast: int, n_extra: int, n_ol: int,
                n_via: int, n_idb: int, pcorr: int, wp_pred: int,
                wp_corr: int, wp_sec: int) -> None:
    """Fold ``d`` accesses' SIPT front-end counts into ``ctx``.

    Outcome counts are derived from the few both passes keep: every
    access is exactly one of fast, extra, opportunity loss or correct
    bypass; NAIVE/COMBINED accesses are all fast or extra, which is why
    speculative probes are ``fast + extra`` for every variant (BYPASS
    probes only when it speculates); and fast IDB/reversed predictions
    are the COMBINED fast accesses that did not come from an endorsed
    speculation.
    """
    l1 = ctx.l1
    sstats = l1.stats
    sstats.accesses += d
    if not l1._is_sipt:
        n_fast = d if l1._default_fast else 0
    sstats.fast_accesses += n_fast
    sstats.slow_accesses += d - n_fast
    sstats.extra_l1_accesses += n_extra
    if l1._is_sipt:
        sstats.speculative_probes += n_fast + n_extra
        outcomes = l1.outcomes
        outcomes.correct_speculation += n_fast - n_idb
        outcomes.correct_bypass += d - n_fast - n_extra - n_ol
        outcomes.opportunity_loss += n_ol
        outcomes.extra_access += n_extra
        outcomes.idb_hit += n_idb
        outcomes.extra_access_after_idb += n_via - n_idb
    perc = l1.perceptron
    if perc is not None:
        perc.stats.predictions += d
        perc.stats.correct += pcorr
    idb = l1.idb
    if idb is not None:
        idb.stats.predictions += n_via
        idb.stats.updates += n_via
        idb.stats.hits += n_idb
    wp = l1.way_predictor
    if wp is not None:
        wp.stats.predictions += wp_pred
        wp.stats.correct += wp_corr
        wp.stats.second_accesses += wp_sec


def _fold_native(ctx, cnt: list) -> None:
    """Fold the native pass's front-end counters (``core_t.cnt``)."""
    _fold_front(ctx, cnt[native.K_STEPS], cnt[native.K_FAST],
                cnt[native.K_EXTRA], cnt[native.K_OPP_LOSS],
                cnt[native.K_VIA_IDB], cnt[native.K_IDB_HITS],
                cnt[native.K_PERC_CORRECT], cnt[native.K_WP_PRED],
                cnt[native.K_WP_CORRECT], cnt[native.K_WP_SECOND])


class KernelEngine:
    """Replays ranges of one context's trace through the compiled pass.

    Drop-in for ``driver._replay_range`` (same ``(ctx, start, end)``
    signature via :meth:`replay`). Built by :func:`make_engine`. Each
    range runs from the live state and folds back into it, so ranges
    chain in any order a caller produces — sequential chunks, or a
    fresh engine over a context restored from a checkpoint. With a
    native plan every range runs in C; a range whose predictor state
    the C pass cannot take (a poisoned perceptron) runs on the python
    pass, built on first need, which raises the oracle's error.
    """

    def __init__(self, ctx, plan: Optional[_Plan],
                 native_plan: Optional[native.NativePlan] = None):
        self._ctx = ctx
        self._plan = plan
        self._native = native_plan
        # (position, row iterator) parked by the previous python-pass
        # range, so a chunked replay consumes one zip in O(n).
        self._cursor = None

    def replay(self, ctx, start: int, end: int) -> None:
        """Replay accesses ``[start, end)``, chaining like the oracle."""
        if end <= start:
            return
        ctx = self._ctx
        if self._native is not None and _predictor_state_ok(ctx.l1):
            cnt = native.replay(ctx, self._native, start, end)
            if cnt is not None:
                _fold_native(ctx, cnt)
                return
        if self._plan is None:
            self._plan = _build(ctx, stepwise=False)
        cursor = self._cursor
        if cursor is not None and cursor[0] == start:
            it = cursor[1]
        else:
            it = zip(*self._plan.columns)
            if start:
                next(islice(it, start - 1, start), None)
        self._cursor = None
        out = _start(ctx, self._plan, islice(it, end - start))
        self._cursor = (end, it)
        _fold(ctx, self._plan, start, end, out)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def make_engine(ctx, oracle: Optional[Callable] = None
                ) -> Optional[KernelEngine]:
    """Build a :class:`KernelEngine` for ``ctx``, or ``None``.

    ``None`` means "use the oracle for everything": configurations the
    kernel does not model (subclassed cores, non-LRU replacement, PC
    way prediction, page-bound IDB, non-finite predictor state) and
    any trace whose columns fail to build (e.g. unmapped pages: the
    oracle then raises the same fault the python path would). Every
    ``None`` is counted under its reason in :data:`DECLINES`. Within
    the envelope the engine runs the native pass; where that cannot
    run (the detailed core, no compiler, ...) it counts a ``native:``
    reason and runs the python pass. ``REPRO_KERNEL_DEBUG=1``
    re-raises swallowed build exceptions and native build failures
    instead of declining, for diagnosis. ``oracle`` (the python range
    replayer) is accepted for callers that pass it, but a built engine
    never falls back to it: it has no runtime fallback.
    """
    try:
        reason = _gate(ctx)
        if reason is None:
            native_plan = _native_plan(ctx)
            plan = (None if native_plan is not None
                    else _build(ctx, stepwise=False))
    except Exception as exc:  # noqa: BLE001 — build failure means oracle
        if os.environ.get("REPRO_KERNEL_DEBUG"):
            raise
        _decline(f"build-error:{type(exc).__name__}")
        return None
    if reason is not None:
        _decline(reason)
        return None
    return KernelEngine(ctx, plan, native_plan)


def _native_plan(ctx) -> Optional[native.NativePlan]:
    """The context's native plan, or None after counting why not."""
    try:
        return native.plan(ctx, _spec_kind(ctx.l1))
    except native.NativeUnavailable as exc:
        if exc.failure and os.environ.get("REPRO_KERNEL_DEBUG"):
            raise
        _decline(exc.reason)
        return None


_CORE_KINDS = {OooCore: "ooo", InOrderCore: "ino",
               DetailedOooCore: "det"}


def _predictor_state_ok(l1) -> bool:
    """Is the perceptron state finite ints with a bipolar history?

    The compiled pass mirrors ``predict_train`` for integer weights;
    anything else (a NaN-poisoned row) is left to the oracle, which
    raises its own non-finite-activation error.
    """
    perc = l1.perceptron
    if perc is None:
        return True
    return (all(type(w) is int for row in perc._weights for w in row)
            and all(type(x) is int and x in (1, -1)
                    for x in perc._history))


def _gate(ctx) -> Optional[str]:
    """Why the kernel must leave ``ctx`` to the oracle, or None.

    Shared by :func:`make_engine` and :func:`run_multicore_kernel`;
    both passes model exactly what passes this gate.
    """
    l1 = ctx.l1
    if type(ctx.core) not in _CORE_KINDS:
        return "core-type"
    if type(l1.cache.policy) is not LruPolicy:
        return "l1-replacement-policy"
    if type(l1.tlb) is not TlbHierarchy:
        return "tlb-type"
    wp = l1.way_predictor
    if wp is not None and type(wp) is not WayPredictor:
        return "way-predictor-type"
    idb = l1.idb
    if idb is not None and idb.page_bound:
        return "idb-page-bound"
    if not _predictor_state_ok(l1):
        return "predictor-state"
    if ctx._len == 0:
        return "empty-trace"
    if int(np.asarray(ctx.trace.inst_gap).min()) < 0:
        return "negative-gap"   # the oracle raises the retire() ValueError
    return None


def _spec_kind(l1) -> str:
    """The speculation variant both passes specialize on."""
    if not l1._is_sipt:
        return "none"
    if l1._is_naive:
        return "naive"
    if l1._is_bypass:
        return "bypass"
    return "rev" if l1.idb is None else "idb"


def _build(ctx, stepwise: bool) -> _Plan:
    """Compile the python pass for a gated context.

    Shared by :class:`KernelEngine` (single-core) and
    :func:`run_multicore_kernel` (``stepwise``: the generator form).
    """
    l1 = ctx.l1
    cache = l1.cache
    tlb = l1.tlb
    core = ctx.core
    kind = _CORE_KINDS[type(core)]
    wp = l1.way_predictor
    perc = l1.perceptron
    idb = l1.idb
    n = ctx._len
    trace = ctx.trace
    page_table = ctx._page_table
    gap_arr = np.asarray(trace.inst_gap, dtype=np.int64)
    cols = columns_for(trace)
    memo = cols.kernel_memo()

    pa_pair = memo.get("pa")
    if pa_pair is None:
        pa_arr = ((cols.ppn << PAGE_SHIFT)
                  | (np.asarray(trace.va, dtype=np.int64)
                     & _PAGE_OFF_MASK))
        pa_pair = memo["pa"] = (pa_arr, pa_arr.tolist())
    pa_arr, pa_list = pa_pair

    addr_key = ("addr", cache.line_shift, cache.index_mask)
    addr = memo.get(addr_key)
    if addr is None:
        line_arr = pa_arr >> cache.line_shift
        addr = memo[addr_key] = (line_arr.tolist(),
                                 (line_arr & cache.index_mask).tolist())
    line_list, sidx_list = addr

    plan = _Plan()
    if kind == "det":
        # The detailed core issues instructions live inside the loop:
        # the gap column stays raw counts for retire(), and there is
        # no instruction fold.
        gapcol = ctx._gap
        plan.cum_inst = None
    else:
        gapw_key = ("gapw", core.width)
        gapcol = memo.get(gapw_key)
        if gapcol is None:
            width = core.width
            seen: dict = {}
            gapcol = []
            for g in ctx._gap:
                w = seen.get(g)
                if w is None:
                    w = seen[g] = g / width
                gapcol.append(w)
            memo[gapw_key] = gapcol
        cum_inst = memo.get("inst")
        if cum_inst is None:
            cum_inst = memo["inst"] = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(gap_arr + 1, out=cum_inst[1:])
        plan.cum_inst = cum_inst
    # Speculation columns: did the speculated index bits survive
    # translation, and which perceptron entry does the PC select.
    unchanged = pentry = repeat(None)
    if l1._is_sipt:
        key = ("unchanged", l1._spec_mask)
        unchanged = memo.get(key)
        if unchanged is None:
            unchanged = memo[key] = (
                (cols.index_delta & l1._spec_mask) == 0).tolist()
    if perc is not None:
        key = ("pentry", perc.n_entries)
        pentry = memo.get(key)
        if pentry is None:
            pc = trace.pc
            pentry = memo[key] = (((pc >> 2) ^ (pc >> 9))
                                  % perc.n_entries).tolist()
    plan.columns = (ctx._gap, gapcol, ctx._pc, ctx._va, ctx._is_write,
                    ctx._dep, pa_list, line_list, sidx_list, unchanged,
                    pentry)

    plan.loop = _compile_loop((kind, _spec_kind(l1), stepwise),
                              wp is not None)

    args = dict.fromkeys(_LOOP_PARAMS)
    args.update(
        w2m=tlb._l1_2m._where, s2m=tlb._l1_2m._policy._stacks,
        w4k=tlb._l1_4k._where, s4k=tlb._l1_4k._policy._stacks,
        asid=page_table.asid, ps=PAGE_SHIFT, hps=HUGE_PAGE_SHIFT,
        translate=tlb.translate, page_table=page_table,
        tl1_lat=tlb.l1_latency,
        hit_lat=l1.hit_latency, window=ctx._conflict_window,
        ccyc=ctx._conflict_cycles, fast=l1._default_fast, extra=False,
        wheres=cache._where, stacks=cache.policy._stacks,
        dirty=cache._dirty, tags=cache._tags, n_ways=cache.n_ways,
        line_shift=ctx._line_shift,
        wp_penalty=wp.mispredict_penalty if wp is not None else 0,
        mlp=core.mlp if type(core) is OooCore else 1.0,
        rob_half=(core._rob_cover * 0.5 if type(core) is OooCore
                  else 0.0),
        inv_w=1.0 / core.width, width=core.width,
        retire=ctx._retire, memory_access=ctx._memory_access)
    if perc is not None:
        hlen = len(perc._history)
        args.update(weights=perc._weights, p_n=perc.n_entries,
                    hlen1=hlen + 1, hmask=(1 << hlen) - 1,
                    theta=perc.theta, cmax=perc.weight_max,
                    cmin=perc.weight_min)
    if idb is not None:
        args.update(deltas=idb._deltas, last_page=idb._last_page,
                    i_n=idb.n_entries, imask=(1 << idb.n_bits) - 1)
    plan.mp = _compile_miss_path(ctx.miss_path)
    if plan.mp is not None:
        args.update(miss_access=plan.mp[0], miss_writeback=plan.mp[1])
    else:
        # Not a decline — the engine still runs, servicing misses
        # through the live python hierarchy — but counted so a
        # silently-slower configuration can be diagnosed.
        _decline("miss-path-live")
        args.update(miss_access=ctx._miss_access,
                    miss_writeback=ctx._miss_writeback)
    plan.args = tuple(args.values())
    return plan


# ----------------------------------------------------------------------
# multicore engine
# ----------------------------------------------------------------------

class _McCore:
    """One core inside the multicore engine: the pass as a generator.

    The stepwise pass yields after every access, so the round-robin
    driver advances each core one access at a time while the pass's
    locals carry its counters. A core that finishes its first pass is
    folded and demoted to the oracle's ``ctx.step()`` for its recycled
    passes, so unequal trace lengths need no special case.
    """

    __slots__ = ("ctx", "plan", "gen", "pos", "live")

    def __init__(self, ctx, plan: _Plan):
        self.ctx = ctx
        self.plan = plan
        self.gen = _start(ctx, plan, zip(*plan.columns))
        self.pos = 0
        self.live = False

    def step(self) -> None:
        """One access of the first pass (mirror of ``ctx.step()``)."""
        next(self.gen)
        self.pos += 1
        ctx = self.ctx
        if self.pos == ctx._len:
            try:
                next(self.gen)
            except StopIteration as done:
                _fold(ctx, self.plan, 0, ctx._len, done.value)
            ctx.position = 0
            ctx.completed_once = True
            self.live = True


def run_multicore_kernel(contexts: Sequence) -> bool:
    """Drive a whole multicore run through the native or python pass.

    Returns True when the run completed — every context then holds its
    finished state, exactly as the oracle loop would have left it —
    and False to decline, in which case nothing was mutated and the
    caller falls back to the oracle loop from cold state. The native
    pass runs the whole round-robin in C over one shared LLC/DRAM copy;
    otherwise (a ``native:`` decline, e.g. the detailed core) each core
    runs the python pass as a generator over the same live containers.
    Either way the interleaving is the oracle's, so shared-state
    evolution is byte-identical. Oracle declines are counted under
    ``multicore:``-prefixed reasons in :data:`DECLINES`.
    """
    try:
        for ctx in contexts:
            reason = _gate(ctx)
            if reason is not None:
                _decline("multicore:" + reason)
                return False
        plans: List[native.NativePlan] = []
        for ctx in contexts:
            plan = _native_plan(ctx)
            if plan is None:
                break
            plans.append(plan)
        cores = ([] if len(plans) == len(contexts) else
                 [_McCore(ctx, _build(ctx, stepwise=True))
                  for ctx in contexts])
    except Exception as exc:  # noqa: BLE001 — build failure means oracle
        if os.environ.get("REPRO_KERNEL_DEBUG"):
            raise
        _decline(f"multicore:build-error:{type(exc).__name__}")
        return False
    if not cores:
        counts = native.run_multicore(contexts, plans)
        if counts is not None:
            for ctx, cnt in zip(contexts, counts):
                _fold_native(ctx, cnt)
            return True
        # Unexportable predictor state: nothing ran, use the python pass.
        cores = [_McCore(ctx, _build(ctx, stepwise=True))
                 for ctx in contexts]
    # Mirror of simulate_multicore's oracle loop: full rounds with the
    # completion check between them, so shared LLC/DRAM state evolves
    # in exactly the oracle's interleaving.
    while not all(ctx.completed_once for ctx in contexts):
        for core in cores:
            if core.live:
                core.ctx.step()
            else:
                core.step()
    return True
