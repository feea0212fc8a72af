/*
 * Native per-op walk of the batched execution engine.
 *
 * walk_ops() runs ops [ctl[C_I], ctl[C_END]) of one engine chunk against
 * the L1 -> L2 -> L3 -> DRAM/NVM hierarchy: single- and multi-line
 * accesses, the dirty write-back cascade, device reads and writes, the NVM
 * write buffer, COMPUTE/CALL/RET costs and the deferred-cost bound.  It
 * returns at the first op that needs Python (see repro/memory/native.py
 * for the call contract and repro/memory/cache.py, devices.py and
 * hierarchy.py for the reference model every line below mirrors).  All
 * state lives in buffers Python owns and shares: the cache columns, the
 * stats counters, the write buffer and the control block.
 */
#include <stdint.h>

#define LINE_BYTES 64

/* CacheStats.counts */
enum { HITS, MISSES, WRITEBACKS, EVICTIONS };
/* DeviceStats.counts */
enum { READS, WRITES, READ_BYTES, WRITE_BYTES };
/* _WriteBuffer.counts */
enum { OCCUPANCY, NEXT_DRAIN_AT, STALL_CYCLES_TOTAL };
/* Control block: keep in step with the C_* constants in native.py. */
enum {
    C_I, C_END, C_NOW, C_APP, C_PENDING, C_OPS, C_OPS_LIMIT, C_NEXT, C_HOOK_AT,
    C_NVM_WRITES
};
/* Per-op flags */
enum { F_BOUND = 1, F_HOOK = 2 };
/* OpKind */
enum { K_READ, K_WRITE, K_CALL, K_RET, K_COMPUTE };

typedef struct {
    int64_t *tags, *ages, *clock, *stats;
    uint8_t *dirty;
    int64_t num_sets, assoc, set_mask; /* set_mask < 0: sets not a power of two */
} cache_t;

typedef struct {
    cache_t l1, l2, l3;
    int64_t *dram_stats, *nvm_stats, *wbuf; /* nvm_stats, wbuf: NULL without NVM */
    int64_t wb_entries, wb_drain, dram_read, nvm_read;
    int64_t hit1, hit2, hit3;             /* cumulative hit latencies */
    const int64_t *ranges;                /* NVM-resident [start, end) pairs */
    int64_t n_ranges;
    int64_t n_ops;                        /* length of every op column */
    const uint8_t *kinds, *flags;
    const int64_t *addrs, *sizes, *bounds;
    int64_t *times;                       /* recorded hooks' cycle counts; NULL without F_HOOK */
    int64_t *ctl;
} walk_t;

/* native.py passes walk_t as a flat int64 array: one slot per field. */
_Static_assert(sizeof(cache_t) == 8 * 8, "cache_t is 8 int64 slots");
_Static_assert(sizeof(walk_t) == 44 * 8, "walk_t is 44 int64 slots");

/* Cache.access: returns the dirty victim line to write back, or -1. */
static int64_t cache_access(const cache_t *c, int64_t line, int is_write, int *hit)
{
    int64_t set = c->set_mask >= 0 ? (line & c->set_mask) : line % c->num_sets;
    int64_t base = set * c->assoc, end = base + c->assoc, slot = -1, s;
    int64_t tick = ++c->clock[0];
    for (s = base; s < end; s++) {
        int64_t tag = c->tags[s];
        if (tag == line) {
            c->stats[HITS]++;
            c->ages[s] = tick;
            if (is_write)
                c->dirty[s] = 1;
            *hit = 1;
            return -1;
        }
        if (tag == -1 && slot < 0)
            slot = s;
    }
    *hit = 0;
    c->stats[MISSES]++;
    int64_t victim = -1;
    if (slot < 0) {
        slot = base;
        for (s = base + 1; s < end; s++)
            if (c->ages[s] < c->ages[slot])
                slot = s;
        c->stats[EVICTIONS]++;
        if (c->dirty[slot]) {
            c->stats[WRITEBACKS]++;
            victim = c->tags[slot];
        }
    }
    c->tags[slot] = line;
    c->dirty[slot] = (uint8_t)is_write;
    c->ages[slot] = tick;
    return victim;
}

static int in_nvm(const walk_t *w, int64_t address)
{
    if (!w->nvm_stats)
        return 0;
    for (int64_t r = 0; r < w->n_ranges; r++)
        if (w->ranges[2 * r] <= address && address < w->ranges[2 * r + 1])
            return 1;
    return 0;
}

/* _WriteBuffer.push */
static void wbuf_push(const walk_t *w, int64_t now)
{
    int64_t *b = w->wbuf, drain = w->wb_drain, stall = 0;
    if (b[OCCUPANCY] && now >= b[NEXT_DRAIN_AT]) {
        int64_t left = b[OCCUPANCY] - (1 + (now - b[NEXT_DRAIN_AT]) / drain);
        b[OCCUPANCY] = left > 0 ? left : 0;
        b[NEXT_DRAIN_AT] = now + drain;
    }
    if (b[OCCUPANCY] >= w->wb_entries) {
        stall = b[NEXT_DRAIN_AT] - now > 0 ? b[NEXT_DRAIN_AT] - now : 0;
        b[OCCUPANCY]--;
        b[NEXT_DRAIN_AT] += drain;
    }
    if (b[OCCUPANCY] == 0)
        b[NEXT_DRAIN_AT] = now + stall + drain;
    b[OCCUPANCY]++;
    b[STALL_CYCLES_TOTAL] += stall;
}

/* MemoryHierarchy._write_back_to_memory (its latency is not charged). */
static void write_back_to_memory(const walk_t *w, int64_t line, int64_t now)
{
    if (in_nvm(w, line * LINE_BYTES)) {
        w->nvm_stats[WRITES]++;
        w->nvm_stats[WRITE_BYTES] += LINE_BYTES;
        w->ctl[C_NVM_WRITES]++;
        wbuf_push(w, now);
    } else {
        w->dram_stats[WRITES]++;
        w->dram_stats[WRITE_BYTES] += LINE_BYTES;
    }
}

static void write_back_to_l3(const walk_t *w, int64_t victim, int64_t now)
{
    int hit;
    int64_t next = cache_access(&w->l3, victim, 1, &hit);
    if (next >= 0)
        write_back_to_memory(w, next, now);
}

static void write_back_to_l2(const walk_t *w, int64_t victim, int64_t now)
{
    int hit;
    int64_t next = cache_access(&w->l2, victim, 1, &hit);
    if (next >= 0)
        write_back_to_l3(w, next, now);
}

/* MemoryHierarchy._access_line */
static int64_t access_line(const walk_t *w, int64_t line, int64_t address,
                           int is_write, int64_t now)
{
    int hit;
    int64_t victim = cache_access(&w->l1, line, is_write, &hit);
    if (victim >= 0)
        write_back_to_l2(w, victim, now);
    if (hit)
        return w->hit1;
    victim = cache_access(&w->l2, line, 0, &hit);
    if (victim >= 0)
        write_back_to_l3(w, victim, now);
    if (hit)
        return w->hit2;
    victim = cache_access(&w->l3, line, 0, &hit);
    if (victim >= 0)
        write_back_to_memory(w, victim, now);
    if (hit)
        return w->hit3;
    if (in_nvm(w, address)) {
        w->nvm_stats[READS]++;
        w->nvm_stats[READ_BYTES] += LINE_BYTES;
        return w->hit3 + w->nvm_read;
    }
    w->dram_stats[READS]++;
    w->dram_stats[READ_BYTES] += LINE_BYTES;
    return w->hit3 + w->dram_read;
}

/* MemoryHierarchy.access: each line of a multi-line access is read from
   the device backing that line's own first byte. */
static int64_t demand_access(const walk_t *w, int64_t address, int64_t size,
                             int is_write, int64_t now)
{
    if (size > 0 && address % LINE_BYTES + size <= LINE_BYTES)
        return access_line(w, address / LINE_BYTES, address, is_write, now);
    if (size <= 0)
        return 0;
    int64_t total = 0, last = (address + size - 1) / LINE_BYTES;
    for (int64_t line = address / LINE_BYTES; line <= last; line++) {
        int64_t first_byte = line * LINE_BYTES;
        total += access_line(w, line, first_byte > address ? first_byte : address,
                             is_write, now);
    }
    return total;
}

/*
 * Run ops from ctl[C_I] until ctl[C_END] or the first op Python must
 * finish: a hook op whose hook is due (stopped after its access, before
 * its hook) or an op whose end-of-op tests fire (the interval op count,
 * or the cycle stop -- the next boundary or an armed crash deadline --
 * with the deferred-cost bound); Python runs that op's tail.  A hook is
 * due at now >= ctl[C_HOOK_AT] (always at 0); an earlier one leaves its
 * now in times[i] for Python to replay.  times is required when any op
 * is flagged F_HOOK (native.py checks it).
 * ctl[C_I] is left at that op, or at ctl[C_END].
 */
void walk_ops(walk_t *w)
{
    int64_t *ctl = w->ctl;
    int64_t i = ctl[C_I] > 0 ? ctl[C_I] : 0;
    int64_t end = ctl[C_END] < w->n_ops ? ctl[C_END] : w->n_ops;
    int64_t now = ctl[C_NOW];
    int64_t pending = ctl[C_PENDING], ops = ctl[C_OPS], app = 0;
    const int64_t limit = ctl[C_OPS_LIMIT], next = ctl[C_NEXT];
    const int64_t hook_at = ctl[C_HOOK_AT];
    int64_t *const times = w->times;
    for (; i < end; i++) {
        int kind = w->kinds[i];
        if (kind <= K_WRITE) {
            int64_t latency =
                demand_access(w, w->addrs[i], w->sizes[i], kind == K_WRITE, now);
            now += latency;
            app += latency;
            uint8_t flags = w->flags[i];
            if (flags & F_BOUND)
                pending += w->bounds[i];
            if (flags & F_HOOK) {
                if (now >= hook_at)
                    break;
                times[i] = now;
            }
        } else if (kind == K_COMPUTE) {
            now += w->sizes[i];
            app += w->sizes[i];
        } else {
            now += 1;
            app += 1;
        }
        if (ops + 1 >= limit || now + pending >= next)
            break;
        ops++;
    }
    ctl[C_I] = i;
    ctl[C_NOW] = now;
    ctl[C_APP] = app;
    ctl[C_PENDING] = pending;
    ctl[C_OPS] = ops;
}
