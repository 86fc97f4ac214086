/* Native replay pass for repro.sim.kernel.
 *
 * A C port of the exec-compiled python pass (kernel._LOOP_TEMPLATE plus
 * the compiled miss path): one step() per access runs the L1 TLB in
 * parallel with the tag probe (L2 TLB and the page walker on a miss),
 * SIPT speculation (NAIVE / BYPASS / COMBINED with the IDB or the 1-bit
 * reversed prediction), the L1 with optional MRU way prediction, the
 * L2 -> LLC -> DRAM miss path, and the analytic core's stall arithmetic.
 * Runtime flags in core_t select the core kind, the speculation variant
 * and way prediction.
 *
 * Two drivers call step(): replay_range() replays [start, end) of one
 * core, and replay_multicore() round-robins N cores that share one LLC
 * and DRAM until every core has finished a pass, exactly like the
 * oracle loop in driver.simulate_multicore.
 *
 * The pass owns a private copy of all structural state (repro.sim.native
 * exports it from, and imports it back into, the live python components
 * around every call) and never calls back into python. Every structure
 * mirrors its python model operation for operation, and floating-point
 * arithmetic follows the oracle's operation order, so results are
 * byte-identical to the python engines.
 */
#include <float.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "excess floating-point precision: the python pass must be used"
#endif

#define PAGE_SHIFT 12
#define HUGE_PAGE_SHIFT 21
#define PAGE_TABLE_REGION 0x4000000000LL

enum { CORE_OOO = 0, CORE_INO = 1 };
enum { SPEC_NONE = 0, SPEC_NAIVE = 1, SPEC_BYPASS = 2, SPEC_IDB = 3,
       SPEC_REV = 4 };

/* cache_t.st: CacheStats fields */
enum { CS_ACCESSES, CS_HITS, CS_MISSES, CS_EVICTIONS, CS_WRITEBACKS,
       CS_FILLS, CS_N };
/* dram_t.st: DramStats fields */
enum { DS_READS, DS_WRITES, DS_ROW_HITS, DS_ROW_MISSES, DS_N };
/* core_t.cnt: per-core counters, folded by repro.sim.native */
enum {
    K_STEPS, K_INSTRUCTIONS, K_PORT_CONFLICTS,
    K_FAST, K_EXTRA, K_OPP_LOSS, K_VIA_IDB, K_IDB_HITS, K_PERC_CORRECT,
    K_WP_PRED, K_WP_CORRECT, K_WP_SECOND,
    K_TLB_ACCESSES, K_TLB_L1_HITS, K_TLB_L2_HITS, K_TLB_WALKS,
    K_WALKS, K_LEVELS_WALKED, K_PWC_HITS,
    K_MP_L2_ACCESSES, K_MP_L2_HITS, K_MP_LLC_ACCESSES, K_MP_LLC_HITS,
    K_MP_DRAM_ACCESSES, K_MP_WB_TO_DRAM,
    K_N
};

/* SetAssociativeCache + LruPolicy: row-major tags (-1 = free), dirty
 * bits and recency stacks (MRU first). */
typedef struct {
    int64_t n_sets, n_ways, shift, mask;
    int64_t *tags;
    uint8_t *dirty;
    uint8_t *stack;
    int64_t st[CS_N];
} cache_t;

/* One _TlbArray: (asid, vpn) keys (vpn -1 = empty), recency stacks, and
 * src, the 4 KiB vpn whose translation filled the slot in this call (-1
 * when untouched), from which python rebuilds the slot's entry.
 * seen/touched list the sets the call accessed, so only those are
 * imported back. */
typedef struct {
    int64_t n_sets, n_ways;
    int64_t *asid;
    int64_t *vpn;
    int64_t *src;
    uint8_t *stack;
    uint8_t *seen;
    int32_t *touched;
    int64_t n_touched;
} tlb_t;

/* DramModel: open_rows[channel * n_banks + bank] (-1 = closed). */
typedef struct {
    int64_t n_channels, n_banks, row_bytes, cas, rcd, rp, queue;
    int64_t *open_rows;
    int64_t last_channel, last_bank;
    int64_t st[DS_N];
} dram_t;

typedef struct {
    /* configuration */
    int64_t core_kind, spec, way_pred, default_fast, has_walker;
    int64_t hit_lat, window, conflict_cycles, wp_penalty;
    int64_t tl1_lat, tl2_lat, walk_lat, level_cost, asid;
    int64_t l2_lat, llc_lat, l1_line_shift, spec_mask, width;
    double inv_w, mlp, rob_half;
    /* trace columns */
    int64_t n;
    const int64_t *gap, *pc, *va, *dep, *pa;
    const uint8_t *is_write, *huge;
    /* structures (l2 NULL when absent; llc/dram may be shared) */
    cache_t *l1, *l2, *llc;
    dram_t *dram;
    tlb_t *t4k, *t2m, *tl2;
    /* page-walk cache: FIFO-ordered keys, LRU refreshed on hit */
    int64_t *pwc_level, *pwc_prefix, *pwc_asid;
    int64_t pwc_n, pwc_entries;
    /* perceptron (weights row-major, history as a bitmask, bit j =
     * history[j]) and index delta buffer */
    int64_t *weights;
    int64_t p_n, hlen, theta, wmax, wmin;
    uint64_t hb;
    int64_t *deltas, *last_page;
    int64_t i_n, imask;
    /* core accumulators and the replay position */
    double cycles, load_stall, store_stall;
    int64_t port_busy, pos, completed, cnt[K_N];
} core_t;

/* Python's % for a positive modulus (floor semantics). */
static inline int64_t pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
}

static inline void mark(uint8_t *seen, int32_t *touched, int64_t *n,
                        int64_t s)
{
    if (!seen[s]) {
        seen[s] = 1;
        touched[(*n)++] = (int32_t)s;
    }
}

/* LruPolicy.touch: move way to the front of its recency stack. */
static inline void lru_touch(uint8_t *stack, int64_t n_ways, uint8_t way)
{
    int64_t i = 1;
    if (stack[0] == way)
        return;
    while (i < n_ways - 1 && stack[i] != way)
        i++;
    memmove(stack + 1, stack, (size_t)i);
    stack[0] = way;
}

/* SetAssociativeCache.access (allocate on miss). Returns the hit way
 * or -1; *wb receives the dirty victim's line address or -1. */
static int64_t cache_access(cache_t *c, int64_t pa, int write, int64_t *wb)
{
    int64_t line = pa >> c->shift, s = line & c->mask, n = c->n_ways;
    int64_t *row = c->tags + s * n, way = -1, k;
    uint8_t *dirty = c->dirty + s * n, *stack = c->stack + s * n;
    c->st[CS_ACCESSES]++;
    *wb = -1;
    for (k = 0; k < n; k++) {
        if (row[k] == line) {
            c->st[CS_HITS]++;
            lru_touch(stack, n, (uint8_t)k);
            if (write)
                dirty[k] = 1;
            return k;
        }
        if (way < 0 && row[k] == -1)
            way = k;
    }
    c->st[CS_MISSES]++;
    if (way < 0) {
        way = stack[n - 1];
        if (dirty[way]) {
            *wb = row[way];
            c->st[CS_WRITEBACKS]++;
        }
        c->st[CS_EVICTIONS]++;
    }
    row[way] = line;
    dirty[way] = (uint8_t)(write != 0);
    lru_touch(stack, n, (uint8_t)way);
    c->st[CS_FILLS]++;
    return -1;
}

/* DramModel._access. */
static int64_t dram_tick(dram_t *m, int64_t pa)
{
    int64_t block = pa / m->row_bytes, channel, bank, row, lat;
    int64_t *open;
    channel = block % m->n_channels;
    block /= m->n_channels;
    bank = block % m->n_banks;
    row = block / m->n_banks;
    open = m->open_rows + channel * m->n_banks + bank;
    lat = m->cas;
    if (*open == row) {
        m->st[DS_ROW_HITS]++;
    } else {
        m->st[DS_ROW_MISSES]++;
        lat += m->rcd;
        if (*open != -1)
            lat += m->rp;
        *open = row;
    }
    if (channel == m->last_channel && bank == m->last_bank)
        lat += m->queue;
    m->last_channel = channel;
    m->last_bank = bank;
    return lat;
}

static void dram_write(core_t *c, int64_t line)
{
    c->cnt[K_MP_WB_TO_DRAM]++;
    c->dram->st[DS_WRITES]++;
    dram_tick(c->dram, line << c->llc->shift);
}

/* CacheHierarchy._writeback_to_llc and the LLC leg of writeback(). */
static void llc_insert(core_t *c, int64_t pa)
{
    int64_t wb;
    c->cnt[K_MP_LLC_ACCESSES]++;
    cache_access(c->llc, pa, 1, &wb);
    if (wb >= 0)
        dram_write(c, wb);
}

/* CacheHierarchy.access: the latency added by an L1 miss. */
static int64_t miss_access(core_t *c, int64_t pa, int write)
{
    int64_t lat = 0, wb;
    if (c->l2 != NULL) {
        c->cnt[K_MP_L2_ACCESSES]++;
        lat += c->l2_lat;
        if (cache_access(c->l2, pa, write, &wb) >= 0) {
            c->cnt[K_MP_L2_HITS]++;
            return lat;
        }
        if (wb >= 0)
            llc_insert(c, wb << c->l2->shift);
    }
    c->cnt[K_MP_LLC_ACCESSES]++;
    lat += c->llc_lat;
    if (cache_access(c->llc, pa, write, &wb) >= 0) {
        c->cnt[K_MP_LLC_HITS]++;
        return lat;
    }
    if (wb >= 0)
        dram_write(c, wb);
    c->cnt[K_MP_DRAM_ACCESSES]++;
    c->dram->st[DS_READS]++;
    return lat + dram_tick(c->dram, pa);
}

/* CacheHierarchy.writeback: a dirty L1 victim (no stall latency). */
static void miss_writeback(core_t *c, int64_t line)
{
    int64_t pa = line << c->l1_line_shift, wb;
    if (c->l2 != NULL) {
        c->cnt[K_MP_L2_ACCESSES]++;
        cache_access(c->l2, pa, 1, &wb);
        if (wb >= 0)
            llc_insert(c, wb << c->l2->shift);
        return;
    }
    llc_insert(c, pa);
}

/* _TlbArray.lookup: the way holding (asid, vpn), LRU-touched, or -1. */
static int64_t tlb_lookup(tlb_t *t, int64_t asid, int64_t vpn)
{
    int64_t s = pymod(vpn, t->n_sets), n = t->n_ways, base = s * n, k;
    for (k = 0; k < n; k++) {
        if (t->vpn[base + k] == vpn && t->asid[base + k] == asid) {
            mark(t->seen, t->touched, &t->n_touched, s);
            lru_touch(t->stack + base, n, (uint8_t)k);
            return k;
        }
    }
    return -1;
}

/* _TlbArray.fill: first free way, else the LRU victim. */
static void tlb_fill(tlb_t *t, int64_t asid, int64_t vpn, int64_t src)
{
    int64_t s = pymod(vpn, t->n_sets), n = t->n_ways, base = s * n;
    int64_t way = -1, k;
    for (k = 0; k < n; k++) {
        if (t->vpn[base + k] == -1) {
            way = k;
            break;
        }
    }
    if (way < 0)
        way = t->stack[base + n - 1];
    mark(t->seen, t->touched, &t->n_touched, s);
    t->asid[base + way] = asid;
    t->vpn[base + way] = vpn;
    t->src[base + way] = src;
    lru_touch(t->stack + base, n, (uint8_t)way);
}

/* PageWalker._pwc_lookup: hit moves the key to the MRU end. */
static int pwc_lookup(core_t *c, int64_t level, int64_t prefix)
{
    int64_t i, j;
    for (i = 0; i < c->pwc_n; i++) {
        if (c->pwc_level[i] == level && c->pwc_prefix[i] == prefix
                && c->pwc_asid[i] == c->asid) {
            for (j = i; j < c->pwc_n - 1; j++) {
                c->pwc_level[j] = c->pwc_level[j + 1];
                c->pwc_prefix[j] = c->pwc_prefix[j + 1];
                c->pwc_asid[j] = c->pwc_asid[j + 1];
            }
            c->pwc_level[c->pwc_n - 1] = level;
            c->pwc_prefix[c->pwc_n - 1] = prefix;
            c->pwc_asid[c->pwc_n - 1] = c->asid;
            return 1;
        }
    }
    return 0;
}

/* PageWalker._pwc_fill: append if absent, drop the oldest past capacity. */
static void pwc_fill(core_t *c, int64_t level, int64_t prefix)
{
    int64_t i;
    if (c->pwc_entries == 0)
        return;
    for (i = 0; i < c->pwc_n; i++) {
        if (c->pwc_level[i] == level && c->pwc_prefix[i] == prefix
                && c->pwc_asid[i] == c->asid)
            return;
    }
    c->pwc_level[c->pwc_n] = level;
    c->pwc_prefix[c->pwc_n] = prefix;
    c->pwc_asid[c->pwc_n] = c->asid;
    c->pwc_n++;
    if (c->pwc_n > c->pwc_entries) {
        for (i = 0; i < c->pwc_n - 1; i++) {
            c->pwc_level[i] = c->pwc_level[i + 1];
            c->pwc_prefix[i] = c->pwc_prefix[i + 1];
            c->pwc_asid[i] = c->pwc_asid[i + 1];
        }
        c->pwc_n--;
    }
}

static const int LEVEL_SHIFTS[4] = {39, 30, 21, 12};

/* PageWalker.walk. The oracle's _entry_address multiplies unbounded
 * ints; only the low 28 bits survive its modulus, and uint64_t
 * wraparound keeps those exact. */
static int64_t walk(core_t *c, int64_t va)
{
    int64_t lat = 0, level, start = 0, prefix;
    uint64_t hashed;
    c->cnt[K_WALKS]++;
    for (level = 2; level >= 0; level--) {
        if (pwc_lookup(c, level, va >> LEVEL_SHIFTS[level])) {
            c->cnt[K_PWC_HITS]++;
            start = level + 1;
            break;
        }
    }
    for (level = start; level < 4; level++) {
        c->cnt[K_LEVELS_WALKED]++;
        lat += c->level_cost;
        prefix = va >> LEVEL_SHIFTS[level];
        hashed = ((uint64_t)prefix * 0x9E3779B1ULL)
                 ^ ((uint64_t)c->asid << 7);
        lat += miss_access(
            c, PAGE_TABLE_REGION
               + (int64_t)(hashed & ((1ULL << 28) - 1)) * 8, 0);
        if (level < 3)
            pwc_fill(c, level, prefix);
    }
    return lat;
}

/* TlbHierarchy.translate: the translation latency. */
static int64_t translate(core_t *c, int64_t va, int huge)
{
    int64_t vpn = va >> PAGE_SHIFT, vpn2m = va >> HUGE_PAGE_SHIFT, lat;
    c->cnt[K_TLB_ACCESSES]++;
    if (tlb_lookup(c->t2m, c->asid, vpn2m) >= 0
            || tlb_lookup(c->t4k, c->asid, vpn) >= 0) {
        c->cnt[K_TLB_L1_HITS]++;
        return c->tl1_lat;
    }
    if (tlb_lookup(c->tl2, c->asid, vpn) >= 0) {
        c->cnt[K_TLB_L2_HITS]++;
        lat = c->tl1_lat + c->tl2_lat;
    } else {
        c->cnt[K_TLB_WALKS]++;
        lat = c->tl1_lat + c->tl2_lat
              + (c->has_walker ? walk(c, va) : c->walk_lat);
        tlb_fill(c->tl2, c->asid, vpn, vpn);
    }
    if (huge)
        tlb_fill(c->t2m, c->asid, vpn2m, vpn);
    else
        tlb_fill(c->t4k, c->asid, vpn, vpn);
    return lat;
}

/* PerceptronPredictor.predict_train: speculate? (trains, shifts). */
static int perceptron(core_t *c, int64_t pc, int unchanged)
{
    int64_t *w = c->weights
                 + pymod((pc >> 2) ^ (pc >> 9), c->p_n) * (c->hlen + 1);
    int64_t y = w[0], j, t, v;
    uint64_t bits = c->hb;
    int spec;
    for (j = 1; j <= c->hlen; j++, bits >>= 1)
        y += (bits & 1) ? w[j] : -w[j];
    spec = y >= 0;
    if (spec == unchanged)
        c->cnt[K_PERC_CORRECT]++;
    if (spec != unchanged || (spec ? y : -y) <= c->theta) {
        t = unchanged ? 1 : -1;
        v = w[0] + t;
        w[0] = v > c->wmax ? c->wmax : (v < c->wmin ? c->wmin : v);
        bits = c->hb;
        for (j = 1; j <= c->hlen; j++, bits >>= 1) {
            v = w[j] + ((bits & 1) ? t : -t);
            w[j] = v > c->wmax ? c->wmax : (v < c->wmin ? c->wmin : v);
        }
    }
    c->hb = ((c->hb << 1) | (uint64_t)unchanged)
            & ((1ULL << c->hlen) - 1);
    return spec;
}

/* _CoreContext.step over SiptL1Cache.access, one access at c->pos. */
static void step(core_t *c)
{
    int64_t i = c->pos, gap = c->gap[i], va = c->va[i], pa = c->pa[i];
    int64_t dep = c->dep[i], t_lat, lat, way, wb, predicted = -1;
    int write = c->is_write[i] != 0, fast, extra, spec, unchanged, hit;
    cache_t *l1 = c->l1;
    double exposed, stall, v;

    /* core.retire_instructions(gap) */
    c->cnt[K_INSTRUCTIONS] += gap + 1;
    c->cycles += (double)gap / (double)c->width;

    t_lat = translate(c, va, c->huge[i] != 0);
    if (c->spec == SPEC_NONE) {
        fast = (int)c->default_fast;
        extra = 0;
    } else {
        unchanged = ((va >> PAGE_SHIFT) & c->spec_mask)
                    == ((pa >> PAGE_SHIFT) & c->spec_mask);
        spec = c->spec == SPEC_NAIVE ? 1 : perceptron(c, c->pc[i],
                                                       unchanged);
        if (spec) {
            fast = unchanged;
            extra = !unchanged;
        } else if (c->spec == SPEC_BYPASS) {
            fast = extra = 0;
            if (unchanged)
                c->cnt[K_OPP_LOSS]++;
        } else {
            c->cnt[K_VIA_IDB]++;
            if (c->spec == SPEC_IDB) {
                /* IndexDeltaBuffer.predict_update */
                int64_t e = pymod((c->pc[i] >> 2) ^ (c->pc[i] >> 9),
                                  c->i_n);
                int64_t page = va >> PAGE_SHIFT, iv = page & c->imask;
                int64_t ip = (pa >> PAGE_SHIFT) & c->imask;
                hit = ((iv + c->deltas[e]) & c->imask) == ip;
                c->deltas[e] = (ip - iv) & c->imask;
                c->last_page[e] = page;
            } else {
                hit = !unchanged;   /* the one bit, flipped */
            }
            if (hit)
                c->cnt[K_IDB_HITS]++;
            fast = hit;
            extra = !hit;
        }
        if (fast)
            c->cnt[K_FAST]++;
        if (extra)
            c->cnt[K_EXTRA]++;
    }
    if (fast)
        lat = c->hit_lat > t_lat ? c->hit_lat : t_lat;
    else
        lat = t_lat + c->hit_lat;
    if (c->port_busy && gap < c->window) {
        lat += c->conflict_cycles;
        c->cnt[K_PORT_CONFLICTS]++;
    }
    c->port_busy = extra;

    if (c->way_pred && fast) {
        int64_t line = pa >> l1->shift;
        predicted = l1->stack[(line & l1->mask) * l1->n_ways];
    }
    way = cache_access(l1, pa, write, &wb);
    if (way >= 0) {
        if (predicted >= 0) {
            c->cnt[K_WP_PRED]++;
            if (predicted == way) {
                c->cnt[K_WP_CORRECT]++;
            } else {
                c->cnt[K_WP_SECOND]++;
                lat += c->wp_penalty;
            }
        }
    } else {
        lat += miss_access(c, pa, write);
        if (wb >= 0)
            miss_writeback(c, wb);
    }

    /* core.memory_access(lat, write, dep) */
    c->cycles += c->inv_w;
    if (c->core_kind == CORE_OOO) {
        if (!write && lat > 2) {
            exposed = (double)lat - 2.0;
            if (lat <= 8) {
                stall = exposed * (dep <= 2 ? 0.22 : (dep <= 8 ? 0.08
                                                                : 0.02));
            } else if (lat <= 16) {
                stall = exposed * 0.45;
            } else {
                double per_miss = exposed / c->mlp;
                double absorbed = per_miss <= c->rob_half ? per_miss
                                                          : c->rob_half;
                double a = per_miss - absorbed * 0.4, b = exposed * 0.04;
                stall = a >= b ? a : b;
            }
            c->load_stall += stall;
            c->cycles += stall;
        }
    } else if (write) {
        v = (double)(lat - 4) * 0.3;
        exposed = v > 0.0 ? v : 0.0;
        c->store_stall += exposed;
        c->cycles += exposed;
    } else {
        v = (double)lat - 1.0 - (double)dep / (double)c->width;
        exposed = (v > 0.0 ? v : 0.0) * (lat <= 8 ? 0.4 : 1.0);
        c->load_stall += exposed;
        c->cycles += exposed;
    }
    c->cnt[K_STEPS]++;
}

/* Replay accesses [start, end) of one core. */
void replay_range(core_t *c, int64_t start, int64_t end)
{
    for (c->pos = start; c->pos < end; c->pos++)
        step(c);
}

/* simulate_multicore's round-robin: full rounds until every core has
 * completed a pass, each core wrapping to the start of its trace. */
void replay_multicore(core_t **cores, int64_t n_cores)
{
    int64_t k;
    for (;;) {
        for (k = 0; k < n_cores && cores[k]->completed; k++)
            ;
        if (k == n_cores)
            return;
        for (k = 0; k < n_cores; k++) {
            core_t *c = cores[k];
            step(c);
            if (++c->pos == c->n) {
                c->pos = 0;
                c->completed = 1;
            }
        }
    }
}

/* Struct sizes, so the loader can refuse a mismatched layout. */
int64_t abi_size(int64_t which)
{
    switch (which) {
    case 0: return (int64_t)sizeof(cache_t);
    case 1: return (int64_t)sizeof(tlb_t);
    case 2: return (int64_t)sizeof(dram_t);
    case 3: return (int64_t)sizeof(core_t);
    case 4: return K_N;
    default: return -1;
    }
}
