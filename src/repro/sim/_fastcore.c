/* Native replay core for the StrandWeaver timing simulator.
 *
 * A port of the reference per-op engine -- repro/sim/cpu.py, the
 * persistency domains (repro/persistency/, repro/core/strandweaver.py,
 * persist_queue.py, strand_buffer.py), repro/sim/cache.py,
 * repro/sim/memory.py, repro/sim/engine.py, and for crash runs
 * repro/sim/machine.py's trigger and repro/sim/durability.py's tracker --
 * that owns *all* simulator state natively: tag caches, dirty ownership,
 * bandwidth windows, PM timing, media-fault policy, lock
 * arbitration, per-design persist structures.  Those Python modules are
 * its specification.  The output is the per-core stats block -- the
 * Python layer adds the op-mix totals of the ops each core dispatched
 * (see cnative._op_mix).
 *
 * Runs: every Machine.run without a tracer, media faults included.  A
 * crash run (a fault plan; Crash below) stops where the reference's loop
 * does: a cycle trigger fires when the selected core's key reaches `at`,
 * before it steps (so also when it would park); an op-count trigger
 * fires after the at-th dispatch, at that core's clock; a program that
 * outruns the trigger ends at the last clock.  Along the way it records
 * each STORE's retire time and matches each PM acceptance of
 * a line -- by CLWB, or by a dirty L2 victim's write-back -- against the
 * line's uncovered stores, in the reference's call order.  The tracker
 * waits for every line a store touches; this core sees one line per op,
 * so a program with a STORE outside one line (line-crossing or empty)
 * crashes on the reference engine.
 *
 * Media faults (Media below) follow PMController's policy and draw from
 * the fault model's own Mersenne Twister stream, handed over as CPython's
 * random.Random state and continued here with CPython's genrand_uint32 and
 * 53-bit random(): the same draws, in the same order, give the same
 * faults.  The caller writes the stream and the counters back only when
 * the run succeeds.
 *
 * Bit-identity contract: every floating-point expression mirrors the
 * reference engine's CPython arithmetic operation-for-operation.  Build
 * with -ffp-contract=off (no FMA contraction) so doubles round exactly
 * like CPython's; llrint() under the default FE_TONEAREST mode matches
 * Python's round-half-to-even.
 *
 * Lines are dense ids: a line's index in the program's sorted touched
 * lines (Program.touched_lines(), the warm set), which rs_index computes
 * once per program.  Caches fill only with the program's lines, so a run
 * never meets another line.  Line state a core keeps for itself (its
 * youngest store retire, its latest buffered CLWB retire) is one row per
 * core, indexed tid * n_ids + id: a thread's log lines have neighbouring
 * ids, so the entries it touches share cache lines, and no other core's
 * entries sit between them.
 *
 * The loop departs from the reference's data structures and control
 * flow in seven places, each exact:
 *
 *  - Bandwidth windows are a ring of per-window counts plus a bitmap of
 *    full windows, sliding with the prune floor, where the reference
 *    keeps window-count and skip-chain dicts.  A reservation gets the
 *    first non-full window at or after its own, whatever structure
 *    finds it: a skip pointer only ever spans full windows and counts
 *    never fall, so the reference's chain ends exactly there, and a
 *    word scan of the bitmap finds the same window.  No reservation
 *    arrives below the floor, because the floor is the minimum live-core
 *    clock (at the last prune; clocks never fall) and every reservation
 *    time is at or after the reserving core's clock; one that did would
 *    return RC_ERR, and the reference engine would re-run the cell.  So
 *    dropping the windows below the floor forgets nothing the reference
 *    could still read.
 *
 *  - Line-keyed dicts are arrays indexed by id: the dirty owner (-1 for
 *    none), each core's youngest store retire, the queued media start,
 *    a crash run's uncovered-store heads and the remapped flags.  A
 *    retire or media start reads 0.0 when absent, as the reference's
 *    .get(line, 0.0) does; every reader compares it with a positive
 *    time (g > t, pending > grant, retire > prev), which 0.0 never beats.
 *
 *  - Cache tags are ids, and an id's L1 and L2 sets are its line's
 *    (line % n_sets), computed per run: the same lines meet in the same
 *    sets in the same LRU order.
 *
 *  - The queued media starts are never pruned.  PMController.prune drops
 *    the starts <= the floor, which no later write can see: its grant is
 *    at or after its core's clock, so at or above the floor, and a start
 *    <= the floor never passes pending > grant.
 *
 *  - The snoop stall keeps one retire per (core, line), the largest of
 *    the reference's per-strand-buffer line retires.  An update only
 *    raises one buffer's entry, so it raises the maximum alike.
 *    line_drain_time at t answers max(t, entries) and deletes the
 *    entries <= t: all of them when the maximum is <= t (reset it to
 *    0.0), and never the maximum otherwise (keep it), so every later
 *    read sees the same largest entry.
 *
 *  - Outstanding-acknowledgement sets (x86/non-atomic fill buffers, HOPS
 *    persist buffers, StrandWeaver persist-queue completions) are sorted
 *    arrays.  The reference keeps plain lists: it filters
 *    [x for x in xs if x > t] and, when full, sorts to read the k-th
 *    smallest.  Dropping the leading elements <= t of a sorted array (a
 *    min-heap drain works the same way) removes exactly the elements the
 *    filter drops, and the element at index len - cap is the same k-th
 *    smallest value.
 *
 *  - max(xs)-style drain targets (SFENCE, DFENCE, JoinStrand, the end-of-
 *    trace drain) use a running maximum over every value inserted since
 *    the structure was created.  Exact: any value the reference has
 *    dropped was filtered at an earlier time t' <= t, or cleared by a
 *    fence that advanced the core's clock past it, so it is <= t.
 *    Inside max(t, ...) the stale running maximum is therefore dominated
 *    by t whenever it disagrees with the live maximum.
 *
 *  - Core selection.  The reference pops the least (key, tid) off a
 *    ready heap, steps that core one op and pushes it back keyed by its
 *    new clock; a woken core is pushed at max(its clock, the releaser's
 *    clock).  The loop below scans the runnable cores for the least
 *    (key, tid) and also keeps the runner-up, the least among the other
 *    runnable cores, and then steps the selected core on while its new
 *    (key, tid) stays below the runner-up's.  Only the stepped core's
 *    key moves meanwhile, so the heap would pop that core each time too.
 *    A park or a finish takes the core out of the runnable set and a
 *    wake puts cores into it, so each of them ends the batch and the
 *    next op rescans.  The cycle trigger is tested before every step.
 *
 * Error protocol: rs_run returns 0 on success, 1 on replay deadlock and
 * 2 on any unsupported/internal condition (among them a retry past the
 * caller's backoff table, and a negative line).  Non-zero means the
 * Python caller silently re-runs on the reference engine, which
 * reproduces the exact exception (or result) from the same fault stream
 * -- so the C core never needs to replicate diagnostics, only timing.
 * rs_index's missing line is no such condition: the ids are the
 * program's own, so the caller raises.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint8_t u8;

/* ---- op kinds (must match repro.core.ops.OpKind) -------------------- */
enum {
    K_STORE = 0, K_LOAD = 1, K_CLWB = 2,
    K_SFENCE = 3, K_PB = 4, K_NS = 5, K_JS = 6, K_OFENCE = 7, K_DFENCE = 8,
    K_LOCK_ACQ = 9, K_LOCK_REL = 10, K_COMPUTE = 11,
};

enum { RC_OK = 0, RC_DEADLOCK = 1, RC_ERR = 2 };

/* =====================================================================
 * growable double ring with O(1) drop-from-front (rob / sq / strand brt:
 * values are appended monotonically non-decreasing)
 * ===================================================================== */

typedef struct {
    double *v;
    i64 head, len, cap;
} Ring;

static int ring_init(Ring *r, i64 cap0) {
    r->v = (double *)malloc((size_t)cap0 * sizeof(double));
    r->head = 0; r->len = 0; r->cap = cap0;
    return r->v ? 0 : -1;
}

static void ring_free(Ring *r) { free(r->v); r->v = NULL; }

static int ring_push(Ring *r, double x) {
    if (r->head + r->len == r->cap) {
        if (r->head > r->cap / 2) {
            memmove(r->v, r->v + r->head, (size_t)r->len * sizeof(double));
            r->head = 0;
        } else {
            i64 ncap = r->cap * 2;
            double *nv = (double *)realloc(r->v, (size_t)ncap * sizeof(double));
            if (!nv) return -1;
            r->v = nv; r->cap = ncap;
        }
    }
    r->v[r->head + r->len++] = x;
    return 0;
}

static inline void ring_drop_le(Ring *r, double t) {
    while (r->len && r->v[r->head] <= t) { r->head++; r->len--; }
}

#define RING_AT(r, i) ((r)->v[(r)->head + (i)])

/* =====================================================================
 * sorted dynamic array (ascending) -- the reference keeps these as
 * plain lists it filters (drop <= t) and sorts (k-th smallest when
 * full); a sorted array is the same multiset with O(1) both queries.
 * ===================================================================== */

typedef struct {
    double *v;
    i64 head, len, cap;
} SArr;

static int sarr_init(SArr *s, i64 cap0) {
    s->v = (double *)malloc((size_t)cap0 * sizeof(double));
    s->head = 0; s->len = 0; s->cap = cap0;
    return s->v ? 0 : -1;
}

static void sarr_free(SArr *s) { free(s->v); s->v = NULL; }

static inline void sarr_drop_le(SArr *s, double t) {
    while (s->len && s->v[s->head] <= t) { s->head++; s->len--; }
}

static int sarr_insert(SArr *s, double x) {
    if (s->head + s->len == s->cap) {
        if (s->head > s->cap / 2) {
            memmove(s->v, s->v + s->head, (size_t)s->len * sizeof(double));
            s->head = 0;
        } else {
            i64 ncap = s->cap * 2;
            double *nv = (double *)realloc(s->v, (size_t)ncap * sizeof(double));
            if (!nv) return -1;
            s->v = nv; s->cap = ncap;
        }
    }
    /* binary search for first element > x within [head, head+len) */
    i64 lo = 0, hi = s->len;
    double *base = s->v + s->head;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (base[mid] <= x) lo = mid + 1; else hi = mid;
    }
    memmove(base + lo + 1, base + lo, (size_t)(s->len - lo) * sizeof(double));
    base[lo] = x;
    s->len++;
    return 0;
}

static inline void sarr_clear(SArr *s) { s->head = 0; s->len = 0; }

#define SARR_AT(s, i) ((s)->v[(s)->head + (i)])

/* =====================================================================
 * set-associative LRU tag cache over line ids: per-set way arrays in
 * recency order (index 0 = LRU victim).  Mirrors TagCache's OrderedDict
 * exactly; set_of[id] is the id's line % n_sets.
 * ===================================================================== */

typedef struct {
    i32 *ids;     /* n_sets * assoc, valid ways [0, cnt) per set */
    u8 *dirty;
    i32 *cnt;
    const i32 *set_of;
    i64 n_sets;
    i32 assoc;
} TC;

static int tc_init(TC *c, i64 n_sets, i32 assoc) {
    c->ids = (i32 *)malloc((size_t)(n_sets * assoc) * sizeof(i32));
    c->dirty = (u8 *)calloc((size_t)(n_sets * assoc), 1);
    c->cnt = (i32 *)calloc((size_t)n_sets, sizeof(i32));
    c->n_sets = n_sets; c->assoc = assoc;
    return c->ids && c->dirty && c->cnt ? 0 : -1;
}

static void tc_free(TC *c) {
    free(c->ids); free(c->dirty); free(c->cnt);
    c->ids = NULL; c->dirty = NULL; c->cnt = NULL;
}

/* The shared L2's tag arrays (1.75 MiB at Table I) outlive a run: the
 * next run of the same geometry only clears their way counts.  Freeing
 * a block that size after every run would raise glibc's mmap and trim
 * thresholds, after which the host process's heap is rarely trimmed.
 * Keeping them makes rs_run non-reentrant; cnative serialises calls. */
static TC kept_l2;

static int tc_reuse_l2(TC *l2, i64 n_sets, i32 assoc) {
    if (kept_l2.cnt && (kept_l2.n_sets != n_sets || kept_l2.assoc != assoc))
        tc_free(&kept_l2);
    if (kept_l2.cnt) {
        memset(kept_l2.cnt, 0, (size_t)n_sets * sizeof(i32));
    } else if (tc_init(&kept_l2, n_sets, assoc)) {
        tc_free(&kept_l2);
        return -1;
    }
    *l2 = kept_l2;
    return 0;
}

static inline i64 tc_set(const TC *c, i32 id) { return c->set_of[id]; }

static inline i32 tc_find(const TC *c, i64 set, i32 id) {
    const i32 *ws = c->ids + set * c->assoc;
    i32 n = c->cnt[set];
    for (i32 i = 0; i < n; i++)
        if (ws[i] == id) return i;
    return -1;
}

/* move way w of `set` to MRU (preserving relative order of the rest) */
static inline void tc_touch(TC *c, i64 set, i32 w) {
    i32 n = c->cnt[set];
    if (w == n - 1) return;
    i32 *ws = c->ids + set * c->assoc;
    u8 *ds = c->dirty + set * c->assoc;
    i32 id = ws[w]; u8 d = ds[w];
    memmove(ws + w, ws + w + 1, (size_t)(n - 1 - w) * sizeof(i32));
    memmove(ds + w, ds + w + 1, (size_t)(n - 1 - w));
    ws[n - 1] = id; ds[n - 1] = d;
}

/* insert `id`; returns 1 and fills the victim out-params if a way was
 * evicted, 0 otherwise.  Exact port of TagCache.fill. */
static inline int tc_fill(TC *c, i32 id, u8 dirty, i32 *v_id, u8 *v_dirty) {
    i64 set = tc_set(c, id);
    i32 w = tc_find(c, set, id);
    i32 *ws = c->ids + set * c->assoc;
    u8 *ds = c->dirty + set * c->assoc;
    if (w >= 0) {
        u8 d = (u8)(ds[w] | dirty);
        tc_touch(c, set, w);
        ds[c->cnt[set] - 1] = d;
        return 0;
    }
    int evicted = 0;
    i32 n = c->cnt[set];
    if (n >= c->assoc) {
        *v_id = ws[0]; *v_dirty = ds[0];
        memmove(ws, ws + 1, (size_t)(n - 1) * sizeof(i32));
        memmove(ds, ds + 1, (size_t)(n - 1));
        n--; c->cnt[set] = n;
        evicted = 1;
    }
    ws[n] = id; ds[n] = dirty;
    c->cnt[set] = n + 1;
    return evicted;
}

/* remove way w of `set`; returns its dirty bit */
static inline u8 tc_remove(TC *c, i64 set, i32 w) {
    i32 n = c->cnt[set];
    i32 *ws = c->ids + set * c->assoc;
    u8 *ds = c->dirty + set * c->assoc;
    u8 d = ds[w];
    memmove(ws + w, ws + w + 1, (size_t)(n - 1 - w) * sizeof(i32));
    memmove(ds + w, ds + w + 1, (size_t)(n - 1 - w));
    c->cnt[set] = n - 1;
    return d;
}

/* =====================================================================
 * bandwidth resource: windowed capacity accounting (exact port of
 * BandwidthResource.reserve/prune) on a ring of windows that slides
 * with the prune floor.  Window w lives in slot w & (cap - 1) while
 * floor_w <= w < floor_w + cap; a bitmap marks the full windows.
 * ===================================================================== */

#define BW_RING0 4096   /* initial ring length in windows */

typedef struct {
    i32 *cnt;          /* reservations per window slot */
    uint64_t *full;    /* bit per slot: its count reached capn */
    i64 cap;           /* ring length: a power of two >= 64 */
    i64 floor_w;       /* no reservation arrives below this window */
    double iv;
    i64 capn;
} BW;

static int bw_alloc(BW *b, i64 cap) {
    b->cnt = (i32 *)calloc((size_t)cap, sizeof(i32));
    b->full = (uint64_t *)calloc((size_t)(cap / 64), sizeof(uint64_t));
    b->cap = cap;
    return b->cnt && b->full ? 0 : -1;
}

static void bw_free(BW *b) {
    free(b->cnt); free(b->full);
    b->cnt = NULL; b->full = NULL;
}

/* The three resources' rings outlive a run, like the L2's tags: a run
 * takes over the rings earlier runs grew, cleared, and hands them back
 * in ctx_free. */
static BW kept_bw[3];

static int bw_init(BW *b, int which, double iv, i64 capn) {
    if (capn < 1 || capn > INT32_MAX) return -1;
    BW *k = &kept_bw[which];
    if (k->cnt) {
        *b = *k;
        k->cnt = NULL; k->full = NULL;
        memset(b->cnt, 0, (size_t)b->cap * sizeof(i32));
        memset(b->full, 0, (size_t)(b->cap / 64) * sizeof(uint64_t));
    } else if (bw_alloc(b, BW_RING0)) {
        return -1;
    }
    b->iv = iv; b->capn = capn; b->floor_w = 0;
    return 0;
}

static void bw_keep(BW *b, int which) {
    if (!b->cnt) return;
    bw_free(&kept_bw[which]);
    kept_bw[which] = *b;
    b->cnt = NULL; b->full = NULL;
}

/* double the ring until window w fits, re-slotting the live windows */
static int bw_grow(BW *b, i64 w) {
    BW old = *b;
    i64 cap = old.cap;
    while (w >= b->floor_w + cap) cap *= 2;
    if (bw_alloc(b, cap)) { bw_free(b); *b = old; return -1; }
    for (i64 v = old.floor_w; v < old.floor_w + old.cap; v++) {
        i64 s = v & (old.cap - 1), ns = v & (cap - 1);
        b->cnt[ns] = old.cnt[s];
        b->full[ns >> 6] |= (old.full[s >> 6] >> (s & 63) & 1) << (ns & 63);
    }
    bw_free(&old);
    return 0;
}

/* the first window at or after w (inside the ring) that is not full,
 * or floor_w + cap when every window from w to the ring's end is */
static inline i64 bw_first_open(const BW *b, i64 w) {
    i64 end = b->floor_w + b->cap, mask = b->cap - 1;
    while (w < end) {
        i64 s = w & mask;
        uint64_t open = ~b->full[s >> 6] >> (s & 63);
        if (open) {
            w += __builtin_ctzll(open);
            return w < end ? w : end;
        }
        w += 64 - (s & 63);
    }
    return end;
}

static double bw_reserve(BW *b, double t, int *err) {
    double tt = t > 0.0 ? t : 0.0;
    i64 w = (i64)(tt / b->iv);
    if (w < b->floor_w) { *err = 1; return t; }
    if (w >= b->floor_w + b->cap && bw_grow(b, w)) { *err = 1; return t; }
    w = bw_first_open(b, w);
    if (w >= b->floor_w + b->cap && bw_grow(b, w)) { *err = 1; return t; }
    i64 s = w & (b->cap - 1);
    if (++b->cnt[s] >= b->capn) b->full[s >> 6] |= 1ULL << (s & 63);
    double wt = (double)w * b->iv;
    return t > wt ? t : wt;
}

/* clear slots [s, s + n) of one pass round the ring (no wrap) */
static void bw_clear(BW *b, i64 s, i64 n) {
    memset(b->cnt + s, 0, (size_t)n * sizeof(i32));
    while (n > 0) {
        i64 bit = s & 63, k = 64 - bit < n ? 64 - bit : n;
        uint64_t m = k == 64 ? ~0ULL : ((1ULL << k) - 1) << bit;
        b->full[s >> 6] &= ~m;
        s += k; n -= k;
    }
}

/* advance the floor to low's window, freeing the slots it passes for
 * the windows one ring length above them */
static void bw_prune(BW *b, double low) {
    double tt = low > 0.0 ? low : 0.0;
    i64 w_min = (i64)(tt / b->iv);
    if (w_min <= b->floor_w) return;
    i64 n = w_min - b->floor_w < b->cap ? w_min - b->floor_w : b->cap;
    i64 s = b->floor_w & (b->cap - 1);
    i64 head = b->cap - s < n ? b->cap - s : n;
    bw_clear(b, s, head);
    bw_clear(b, 0, n - head);
    b->floor_w = w_min;
}

/* =====================================================================
 * the machine context
 * ===================================================================== */

#define OUT_STRIDE 9
/* out[tid*9 + ...]; O_CYCLES is 0 for a core a crash cut short, as the
 * reference engine sets a core's cycles only when its trace ends */
enum {
    O_CYCLES = 0, O_L1H = 1, O_L1M = 2, O_PMR = 3,
    O_STQ = 4, O_STF = 5, O_STD = 6, O_STL = 7, O_OPS = 8,
};

/* A crash run: Machine.run under a fault plan.  The caller allocates
 * the store records, one per STORE of the program at most.  rs_run
 * stops at the trigger, as the reference's loop does, and fills in what
 * DurabilityTracker records: each store's retire time and,
 * once the PM controller accepted its line with the store's bytes in
 * it, that acceptance time and its source. */
enum { TRIG_CYCLE = 0, TRIG_OPS = 1 };
enum { SRC_NONE = -1, SRC_CLWB = 0, SRC_WRITEBACK = 1 };

typedef struct {
    i64 kind;              /* in: TRIG_CYCLE or TRIG_OPS */
    double at;             /* in: the trigger point */
    i64 cap;               /* in: room in the record arrays */
    i64 *rec_op;           /* flat op index (offs[tid] + pc) of each store */
    double *rec_retire;
    double *rec_durable;   /* INFINITY while its line is not covered */
    int8_t *rec_src;       /* SRC_*: what covered the line */
    double cycle;          /* out: when power failed */
    i64 n_rec;             /* out: stores noted, in the reference's order */
} Crash;

/* Media faults: Machine.run with an enabled MediaFaultModel.  The caller
 * allocates every array and writes mt/mti, the counters and new_lines
 * back into the model only when rs_run succeeds. */
enum {
    F_WRITE_FAULTS, F_RETRIES, F_ECC_CORRECTED, F_ECC_UNCORRECTABLE,
    F_REMAPS, F_REMAP_DENIED, F_EXHAUSTED_RETRIES, F_N,
};

typedef struct {
    double p_fail, p_corr, p_unc;  /* draw only when > 0 */
    double w2m, remap_lat, ecc_pen;
    i64 max_retries, spare_lines;
    i64 n_backoff;                 /* backoff[a - 1]: before retry a */
    const double *backoff;
    uint32_t *mt;                  /* in/out: the generator's 624 words */
    i64 mti;                       /* in/out: its index, 0..624 */
    const i64 *remapped;           /* lines the model had remapped */
    i64 n_remapped;
    i64 cap_new;
    i64 *new_lines;                /* out: lines remapped, in order */
    i64 n_new;                     /* out */
    i64 count[F_N];                /* in/out: the model's counters */
    double backoff_cycles;         /* in/out */
} Media;

typedef struct {
    /* config */
    int des, n;
    i64 rob_cap, sq_cap;
    i64 out_cap, hops_cap, n_bufs, sb_cap, pq_cap;
    i64 prune_period;
    double dispatch, hit, lock_cost;
    double l1_lat, l2_lat, ovl;
    double w2c, max_backlog, read_lat, coh;
    int coalesce;

    const i64 *univ;        /* id -> its line, ascending */
    i64 n_ids;              /* row length of the per-core line arrays */

    /* memory system */
    TC *l1;        /* n cores */
    TC l2;
    i32 *set1, *set2;       /* id -> its L1 set, its L2 set */
    i32 *owner;             /* id -> core that last dirtied it, or -1 */
    BW accept, media, readbw;
    double *queued;         /* id -> media start of its queued write */

    /* per-core engine state */
    double *clock, *key;
    i64 *pc;
    u8 *st;                 /* 0 runnable, 1 parked, 2 finished */
    i64 *parked_on;         /* lock index when st==1 */
    Ring *rob, *sq;
    double *rob_last, *sq_last;
    double *lsr;            /* tid * n_ids + id -> youngest store retire */

    /* per-design persist state */
    SArr *outs;             /* x86 / non-atomic / hops / strand-pq */
    double *out_latest;
    double *epoch_ready, *oe_max;   /* hops */
    i64 *oe_n;
    Ring *brt;              /* n * n_bufs strand buffers */
    double *b_last, *b_dep;
    double *snoop;          /* tid * n_ids + id -> latest buffered CLWB retire */
    i64 *ongoing;
    double *store_gate, *max_issue, *pq_latest;

    /* locks */
    i64 n_locks;
    const i32 *lock_keys, *lock_offs, *lock_tids;
    i64 *lk_next;
    double *lk_rel;
    u8 *lk_held;

    /* stats */
    i64 *dyn;   /* n * OUT_STRIDE */
    int err;

    /* crash runs only (cr is NULL on a plain run) */
    Crash *cr;
    i64 *pending;           /* id -> newest noted store still uncovered */
    i64 *pend_next;         /* record -> next uncovered store of its line */

    /* media faults only (mf is NULL without them) */
    Media *mf;
    u8 *remapped;           /* id -> in the spare region */
} Ctx;

static i64 lock_index(const Ctx *c, i32 lock_id) {
    for (i64 i = 0; i < c->n_locks; i++)
        if (c->lock_keys[i] == lock_id) return i;
    return -1;
}

/* CPython's _randommodule.c genrand_uint32: MT19937 */
static uint32_t mt_next(Media *m) {
    enum { N = 624, M = 397 };
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y, *mt = m->mt;
    if (m->mti >= N) {
        int kk;
        for (kk = 0; kk < N - M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (M - N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        m->mti = 0;
    }
    y = mt[m->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* MediaFaultModel's draws (write_fails, write_uncorrectable,
 * read_correctable): random.Random.random() < p, with no draw at a zero
 * probability or for a line already in the spare region */
static int media_draw(Ctx *c, double p, i32 id) {
    if (p <= 0.0 || c->remapped[id]) return 0;
    uint32_t a = mt_next(c->mf) >> 5, b = mt_next(c->mf) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0) < p;
}

/* PMController._remap_write: the media start of the write redirected
 * into the spare region at t (MediaFaultModel.remap books the spare) */
static double remap_write(Ctx *c, double t, i32 id) {
    Media *m = c->mf;
    if (m->n_remapped + m->n_new >= m->spare_lines) {
        m->count[F_REMAP_DENIED]++;
    } else if (m->n_new >= m->cap_new) {
        c->err = 1;
    } else {
        c->remapped[id] = 1;
        m->new_lines[m->n_new++] = c->univ[id];
        m->count[F_REMAPS]++;
    }
    return bw_reserve(&c->media, t + m->remap_lat, &c->err);
}

/* PMController._media_write's fault policy for the media write that
 * started at ms: the media start of the attempt that stuck */
static double media_write(Ctx *c, double ms, i32 id) {
    Media *m = c->mf;
    double md = ms + m->w2m;
    if (media_draw(c, m->p_unc, id)) {
        m->count[F_ECC_UNCORRECTABLE]++;
        return remap_write(c, md, id);
    }
    for (i64 attempt = 1; media_draw(c, m->p_fail, id); attempt++) {
        m->count[F_WRITE_FAULTS]++;
        if (attempt > m->max_retries) {
            m->count[F_EXHAUSTED_RETRIES]++;
            return remap_write(c, md, id);
        }
        if (attempt > m->n_backoff) { c->err = 1; return ms; }
        double backoff = m->backoff[attempt - 1];
        m->count[F_RETRIES]++;
        m->backoff_cycles += backoff;
        ms = bw_reserve(&c->media, md + backoff, &c->err);
        md = ms + m->w2m;
    }
    return ms;
}

/* PMController.write; returns ticket.accepted (the ADR persist point):
 * the acknowledgement is accepted + w2c on both of its paths */
static double pm_write(Ctx *c, double t, i32 id) {
    double grant = bw_reserve(&c->accept, t, &c->err);
    if (c->coalesce && c->queued[id] > grant) return grant;
    double ms = bw_reserve(&c->media, grant, &c->err);
    if (c->mf) ms = media_write(c, ms, id);
    double accepted = grant;
    if (ms - grant > c->max_backlog) accepted = ms - c->max_backlog;
    c->queued[id] = ms;
    return accepted;
}

/* DurabilityTracker.note_store: a STORE retired to the cache */
static int note_store(Ctx *c, i64 op, i32 id, double retire) {
    Crash *cr = c->cr;
    i64 i = cr->n_rec;
    if (i >= cr->cap) return -1;
    c->pend_next[i] = c->pending[id];
    c->pending[id] = i;
    cr->rec_op[i] = op;
    cr->rec_retire[i] = retire;
    cr->rec_durable[i] = INFINITY;
    cr->rec_src[i] = SRC_NONE;
    cr->n_rec = i + 1;
    return 0;
}

/* DurabilityTracker.line_persisted: the controller accepted line `id` at
 * `accepted` with the bytes the cache held at `content`, so it covers
 * every uncovered store of the line that retired by then.  The tracker
 * keeps its uncovered stores in note order; this keeps them newest
 * first, which covers the same stores, since each is tested alone. */
static void line_persisted(Ctx *c, i32 id, double content, double accepted,
                           int8_t src) {
    Crash *cr = c->cr;
    i64 head = -1, *tail = &head;
    for (i64 i = c->pending[id]; i >= 0; i = c->pend_next[i]) {
        if (cr->rec_retire[i] <= content) {
            cr->rec_durable[i] = accepted;
            cr->rec_src[i] = src;
        } else {
            *tail = i;
            tail = &c->pend_next[i];
        }
    }
    *tail = -1;
    c->pending[id] = head;
}

/* CacheHierarchy._writeback_victim to PM: a dirty L2 victim written back
 * at t (its ticket is discarded) */
static void pm_writeback(Ctx *c, double t, i32 id) {
    double accepted = pm_write(c, t, id);
    if (c->cr) line_persisted(c, id, t, accepted, SRC_WRITEBACK);
}

/* PMController.read: a correctable ECC error adds the correction penalty */
static double pm_read(Ctx *c, double t, i32 id) {
    double done = bw_reserve(&c->readbw, t, &c->err) + c->read_lat;
    if (c->mf && media_draw(c, c->mf->p_corr, id)) {
        c->mf->count[F_ECC_CORRECTED]++;
        done += c->mf->ecc_pen;
    }
    return done;
}

/* CacheHierarchy._steal_if_remote_dirty */
static double steal(Ctx *c, int tid, i32 id, double t) {
    int owner = c->owner[id];
    if (owner < 0 || owner == tid) return t;
    TC *ol1 = &c->l1[owner];
    i64 set = tc_set(ol1, id);
    i32 w = tc_find(ol1, set, id);
    if (w >= 0 && ol1->dirty[set * ol1->assoc + w]) {
        if (c->snoop) {
            /* StrandWeaver snoop stall: the owner's buffers'
             * line_drain_time(line, t), on their largest entry */
            double *retire = &c->snoop[owner * c->n_ids + id];
            if (*retire <= t) *retire = 0.0;
            else t = *retire;
        }
        tc_remove(ol1, set, w);   /* invalidate; dirty known true */
        i32 vl; u8 vd;
        if (tc_fill(&c->l2, id, 1, &vl, &vd) && vd)
            pm_writeback(c, t, vl);
        t += c->coh;
    }
    c->owner[id] = -1;
    return t;
}

/* CacheHierarchy.access; served: 0 l1, 1 l2, 2 pm */
static double access_mem(Ctx *c, int tid, i32 id, int is_write, double t,
                         int *served) {
    t = steal(c, tid, id, t);
    TC *l1 = &c->l1[tid];
    i64 s1 = tc_set(l1, id);
    i32 w = tc_find(l1, s1, id);
    if (w >= 0) {
        tc_touch(l1, s1, w);
        if (is_write) {
            l1->dirty[s1 * l1->assoc + l1->cnt[s1] - 1] = 1;
            c->owner[id] = tid;
        }
        *served = 0;
        return t + c->l1_lat;
    }
    double t1 = t + c->l1_lat;
    double done;
    i64 s2 = tc_set(&c->l2, id);
    i32 w2 = tc_find(&c->l2, s2, id);
    if (w2 >= 0) {
        tc_touch(&c->l2, s2, w2);
        done = t1 + c->l2_lat;
        *served = 1;
    } else {
        done = pm_read(c, t1 + c->l2_lat, id);
        *served = 2;
        i32 vl; u8 vd;
        if (tc_fill(&c->l2, id, 0, &vl, &vd) && vd)
            pm_writeback(c, done, vl);
    }
    i32 vl1; u8 vd1;
    if (tc_fill(l1, id, (u8)is_write, &vl1, &vd1)) {
        i32 vl2; u8 vd2;
        if (tc_fill(&c->l2, vl1, vd1, &vl2, &vd2) && vd2)
            pm_writeback(c, done, vl2);
    }
    if (is_write) c->owner[id] = tid;
    return done;
}

/* CacheHierarchy.flush */
static double flush_line(Ctx *c, int tid, i32 id, double t) {
    t = steal(c, tid, id, t);
    TC *l1 = &c->l1[tid];
    i64 s1 = tc_set(l1, id);
    i32 w = tc_find(l1, s1, id);
    if (w >= 0) {
        l1->dirty[s1 * l1->assoc + w] = 0;
        c->owner[id] = -1;
        return t + c->l1_lat;
    }
    i64 s2 = tc_set(&c->l2, id);
    i32 w2 = tc_find(&c->l2, s2, id);
    if (w2 >= 0) {
        c->l2.dirty[s2 * c->l2.assoc + w2] = 0;
        return t + c->l1_lat + c->l2_lat;
    }
    return t + c->l1_lat;
}

static void ctx_free(Ctx *c) {
    if (c->l1) { for (int i = 0; i < c->n; i++) tc_free(&c->l1[i]); free(c->l1); }
    free(c->set1); free(c->set2); free(c->owner); free(c->queued);
    bw_keep(&c->accept, 0); bw_keep(&c->media, 1); bw_keep(&c->readbw, 2);
    free(c->clock); free(c->key); free(c->pc); free(c->st); free(c->parked_on);
    if (c->rob) { for (int i = 0; i < c->n; i++) ring_free(&c->rob[i]); free(c->rob); }
    if (c->sq) { for (int i = 0; i < c->n; i++) ring_free(&c->sq[i]); free(c->sq); }
    free(c->rob_last); free(c->sq_last); free(c->lsr);
    if (c->outs) { for (int i = 0; i < c->n; i++) sarr_free(&c->outs[i]); free(c->outs); }
    free(c->out_latest); free(c->epoch_ready); free(c->oe_max); free(c->oe_n);
    if (c->brt) {
        for (i64 i = 0; i < (i64)c->n * c->n_bufs; i++) ring_free(&c->brt[i]);
        free(c->brt);
    }
    free(c->b_last); free(c->b_dep); free(c->snoop);
    free(c->ongoing); free(c->store_gate); free(c->max_issue); free(c->pq_latest);
    free(c->lk_next); free(c->lk_rel); free(c->lk_held);
    free(c->dyn);
    free(c->pending); free(c->pend_next);
    free(c->remapped);
}

/* =====================================================================
 * entry points
 * ===================================================================== */

/* index of `line` in the ascending univ[0, n), or -1 */
static i64 line_id(const i64 *univ, i64 n, i64 line) {
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (univ[mid] < line) lo = mid + 1; else hi = mid;
    }
    return lo < n && univ[lo] == line ? lo : -1;
}

/* One thread's id column: ids[i] is the index of op i's line in univ,
 * the program's sorted touched lines, for an op that addresses memory,
 * and -1 for any other op.  Returns -1, or the index of the first
 * addressed op whose line univ lacks. */
i64 rs_index(const i32 *kinds, const i64 *lines, i64 n_ops,
             const i64 *univ, i64 n_univ, i32 *ids)
{
    for (i64 i = 0; i < n_ops; i++) {
        i32 k = kinds[i];
        if (k == K_STORE || k == K_LOAD || k == K_CLWB) {
            i64 id = line_id(univ, n_univ, lines[i]);
            if (id < 0) return i;
            ids[i] = (i32)id;
        } else {
            ids[i] = -1;
        }
    }
    return -1;
}

int rs_run(
    const double *fcfg, const i64 *icfg,
    const i32 *kinds, const i32 *ids, const i32 *cycles, const i32 *lockids,
    const i64 *offs,
    const i32 *lock_keys, const i32 *lock_offs, const i32 *lock_tids,
    i64 n_locks,
    const i64 *univ, i64 n_univ, int warm,
    i64 *out, Crash *cr, Media *mf)
{
    Ctx cx; memset(&cx, 0, sizeof(cx));
    Ctx *c = &cx;
    c->cr = cr;
    c->mf = mf;
    c->des = (int)icfg[0];
    c->n = (int)icfg[1];
    c->rob_cap = icfg[2]; c->sq_cap = icfg[3];
    i64 l1_sets = icfg[4]; i32 l1_assoc = (i32)icfg[5];
    i64 l2_sets = icfg[6]; i32 l2_assoc = (i32)icfg[7];
    c->out_cap = icfg[8]; c->hops_cap = icfg[9];
    c->n_bufs = icfg[10] > 0 ? icfg[10] : 1;
    c->sb_cap = icfg[11]; c->pq_cap = icfg[12];
    c->prune_period = icfg[13];
    i64 accept_cap = icfg[14], media_cap = icfg[15];
    i64 read_cap = icfg[16];
    c->dispatch = fcfg[0]; c->hit = fcfg[1]; c->lock_cost = fcfg[2];
    c->l1_lat = fcfg[3]; c->l2_lat = fcfg[4]; c->ovl = fcfg[5];
    c->w2c = fcfg[9]; c->max_backlog = fcfg[10];
    c->read_lat = fcfg[11]; c->coh = fcfg[12];
    c->coalesce = fcfg[13] != 0.0;
    c->univ = univ;
    int n = c->n, des = c->des;
    if (n <= 0 || n > 1024 || des < 0 || des > 4) return RC_ERR;
    if (l1_sets < 1 || l2_sets < 1 || n_univ > INT32_MAX) return RC_ERR;
    /* A negative line would fail the reference's `line >= 0` tests (no
     * coalescing, no media faults), which this core leaves out. */
    if (n_univ > 0 && univ[0] < 0) return RC_ERR;
    c->n_locks = n_locks;
    c->lock_keys = lock_keys; c->lock_offs = lock_offs; c->lock_tids = lock_tids;

    int rc = RC_ERR;
    i64 u = n_univ > 0 ? n_univ : 1;
    c->n_ids = u;
    /* ---- allocation ------------------------------------------------- */
    c->set1 = (i32 *)malloc((size_t)u * sizeof(i32));
    c->set2 = (i32 *)malloc((size_t)u * sizeof(i32));
    c->owner = (i32 *)malloc((size_t)u * sizeof(i32));
    c->queued = (double *)calloc((size_t)u, sizeof(double));
    c->lsr = (double *)calloc((size_t)(u * n), sizeof(double));
    if (!c->set1 || !c->set2 || !c->owner || !c->queued || !c->lsr) goto fail;
    memset(c->owner, 0xff, (size_t)u * sizeof(i32));   /* -1: no owner */
    for (i64 i = 0; i < n_univ; i++) {
        c->set1[i] = (i32)(univ[i] % l1_sets);
        c->set2[i] = (i32)(univ[i] % l2_sets);
    }
    c->l1 = (TC *)calloc((size_t)n, sizeof(TC));
    if (!c->l1) goto fail;
    for (int i = 0; i < n; i++) {
        if (tc_init(&c->l1[i], l1_sets, l1_assoc)) goto fail;
        c->l1[i].set_of = c->set1;
    }
    if (tc_reuse_l2(&c->l2, l2_sets, l2_assoc)) goto fail;
    c->l2.set_of = c->set2;
    if (bw_init(&c->accept, 0, fcfg[6], accept_cap)) goto fail;
    if (bw_init(&c->media, 1, fcfg[7], media_cap)) goto fail;
    if (bw_init(&c->readbw, 2, fcfg[8], read_cap)) goto fail;
    c->clock = (double *)calloc((size_t)n, sizeof(double));
    c->key = (double *)calloc((size_t)n, sizeof(double));
    c->pc = (i64 *)calloc((size_t)n, sizeof(i64));
    c->st = (u8 *)calloc((size_t)n, 1);
    c->parked_on = (i64 *)calloc((size_t)n, sizeof(i64));
    c->rob = (Ring *)calloc((size_t)n, sizeof(Ring));
    c->sq = (Ring *)calloc((size_t)n, sizeof(Ring));
    c->rob_last = (double *)calloc((size_t)n, sizeof(double));
    c->sq_last = (double *)calloc((size_t)n, sizeof(double));
    c->outs = (SArr *)calloc((size_t)n, sizeof(SArr));
    c->out_latest = (double *)calloc((size_t)n, sizeof(double));
    c->epoch_ready = (double *)calloc((size_t)n, sizeof(double));
    c->oe_max = (double *)calloc((size_t)n, sizeof(double));
    c->oe_n = (i64 *)calloc((size_t)n, sizeof(i64));
    c->ongoing = (i64 *)calloc((size_t)n, sizeof(i64));
    c->store_gate = (double *)calloc((size_t)n, sizeof(double));
    c->max_issue = (double *)calloc((size_t)n, sizeof(double));
    c->pq_latest = (double *)calloc((size_t)n, sizeof(double));
    c->dyn = (i64 *)calloc((size_t)n * OUT_STRIDE, sizeof(i64));
    if (!c->clock || !c->key || !c->pc || !c->st || !c->parked_on || !c->rob ||
        !c->sq || !c->rob_last || !c->sq_last || !c->outs ||
        !c->out_latest || !c->epoch_ready || !c->oe_max || !c->oe_n ||
        !c->ongoing || !c->store_gate || !c->max_issue || !c->pq_latest ||
        !c->dyn)
        goto fail;
    for (int i = 0; i < n; i++) {
        if (ring_init(&c->rob[i], 256) || ring_init(&c->sq[i], 128)) goto fail;
        if (sarr_init(&c->outs[i], 64)) goto fail;
    }
    if (des == 2 || des == 3) {
        i64 nb = (i64)n * c->n_bufs;
        c->brt = (Ring *)calloc((size_t)nb, sizeof(Ring));
        c->b_last = (double *)calloc((size_t)nb, sizeof(double));
        c->b_dep = (double *)calloc((size_t)nb, sizeof(double));
        c->snoop = (double *)calloc((size_t)(u * n), sizeof(double));
        if (!c->brt || !c->b_last || !c->b_dep || !c->snoop) goto fail;
        for (i64 i = 0; i < nb; i++)
            if (ring_init(&c->brt[i], 32)) goto fail;
    }
    if (cr) {
        cr->n_rec = 0;
        c->pend_next = (i64 *)malloc((size_t)(cr->cap > 0 ? cr->cap : 1) * sizeof(i64));
        c->pending = (i64 *)malloc((size_t)u * sizeof(i64));
        if (!c->pend_next || !c->pending) goto fail;
        memset(c->pending, 0xff, (size_t)u * sizeof(i64));   /* -1: none */
    }
    if (mf) {
        mf->n_new = 0;
        if (mf->mti < 0 || mf->mti > 624) goto fail;
        c->remapped = (u8 *)calloc((size_t)u, 1);
        if (!c->remapped) goto fail;
        /* a remapped line the program does not touch counts only
         * against the spare region */
        for (i64 i = 0; i < mf->n_remapped; i++) {
            i64 id = line_id(univ, n_univ, mf->remapped[i]);
            if (id >= 0) c->remapped[id] = 1;
        }
    }
    c->lk_next = (i64 *)calloc((size_t)(n_locks ? n_locks : 1), sizeof(i64));
    c->lk_rel = (double *)calloc((size_t)(n_locks ? n_locks : 1), sizeof(double));
    c->lk_held = (u8 *)calloc((size_t)(n_locks ? n_locks : 1), 1);
    if (!c->lk_next || !c->lk_rel || !c->lk_held) goto fail;

    /* ---- warm: pre-fill the shared L2 with every line, clean -------- */
    if (warm) {
        for (i64 i = 0; i < n_univ; i++) {
            i32 vl; u8 vd;
            tc_fill(&c->l2, (i32)i, 0, &vl, &vd);
        }
    }

    /* ---- replay loop ------------------------------------------------ */
    {
        i64 dispatched = 0, next_prune = c->prune_period;
        for (int i = 0; i < n; i++) {
            c->key[i] = 0.0;
            if (offs[i + 1] == offs[i]) c->st[i] = 2;  /* empty trace */
        }
        /* tid: the selected core, -1 to scan; ru: the least (key, tid)
         * among the other runnable cores, -1 for none */
        int tid = -1, ru = -1;
        for (;;) {
            if (c->err) goto fail;
            if (tid < 0) {
                for (int i = 0; i < n; i++) {
                    if (c->st[i] != 0) continue;
                    if (tid < 0 || c->key[i] < c->key[tid]) { ru = tid; tid = i; }
                    else if (ru < 0 || c->key[i] < c->key[ru]) ru = i;
                }
            }
            if (tid < 0) {
                int parked = 0;
                for (int i = 0; i < n; i++) if (c->st[i] == 1) parked = 1;
                rc = parked ? RC_DEADLOCK : RC_OK;
                if (parked) goto fail;
                /* the program outran the trigger: power fails after the
                 * final drain */
                if (cr) {
                    cr->cycle = 0.0;
                    for (int i = 0; i < n; i++)
                        if (c->clock[i] > cr->cycle) cr->cycle = c->clock[i];
                }
                break;
            }
            if (cr && cr->kind == TRIG_CYCLE && c->key[tid] >= cr->at) {
                /* no core can dispatch before `at` any more (a parked
                 * core resumes no earlier than its releaser) */
                cr->cycle = cr->at;
                break;
            }

            const i32 *K = kinds + offs[tid];
            const i32 *L = ids + offs[tid];
            const i32 *CY = cycles + offs[tid];
            const i32 *LK = lockids + offs[tid];
            i64 pc = c->pc[tid], n_ops = offs[tid + 1] - offs[tid];
            double clock = c->clock[tid];
            Ring *rob = &c->rob[tid], *sq = &c->sq[tid];
            double *lsr = c->lsr + tid * u;
            i64 *dyn = c->dyn + (i64)tid * OUT_STRIDE;

            /* the ROB stall is charged when the op dispatches: a lock
             * acquire that parks retries later at the same clock */
            double t = clock + c->dispatch;
            i64 rob_stall = 0;
            ring_drop_le(rob, t);
            if (rob->len >= c->rob_cap) {
                double slot = RING_AT(rob, rob->len - c->rob_cap);
                if (slot > t) { rob_stall = llrint(slot - t); t = slot; }
            }
            double rob_done = t;
            i32 kind = K[pc];

            if (kind == K_STORE) {
                if (des == 2 || des == 3) {
                    double gate = c->store_gate[tid];
                    if (gate > t) { dyn[O_STF] += llrint(gate - t); t = gate; }
                }
                ring_drop_le(sq, t);
                double slot = t;
                if (sq->len >= c->sq_cap) {
                    slot = RING_AT(sq, sq->len - c->sq_cap);
                    if (slot > t) dyn[O_STQ] += llrint(slot - t);
                    else slot = t;
                }
                i32 id = L[pc];
                int served;
                double done = access_mem(c, tid, id, 1, slot, &served);
                if (served == 0) dyn[O_L1H]++;
                else { dyn[O_L1M]++; if (served == 2) dyn[O_PMR]++; }
                ring_drop_le(sq, slot);
                double retire = done > c->sq_last[tid] ? done : c->sq_last[tid];
                if (ring_push(sq, retire)) goto fail;
                c->sq_last[tid] = retire;
                if (c->cr && note_store(c, offs[tid] + pc, id, retire))
                    goto fail;
                double *prev = &lsr[id];
                if (retire > *prev) *prev = retire;
                t = slot + c->hit;
                rob_done = retire;

            } else if (kind == K_CLWB) {
                i32 id = L[pc];
                double g = lsr[id];
                if (g > t) t = g;
                double slot = t;
                SArr *oset = NULL;
                if (des == 0 || des == 4) {
                    oset = &c->outs[tid];
                    sarr_drop_le(oset, t);
                    if (oset->len >= c->out_cap) {
                        slot = SARR_AT(oset, oset->len - c->out_cap);
                        if (slot > t) dyn[O_STQ] += llrint(slot - t);
                        else slot = t;
                    }
                } else if (des == 1) {
                    oset = &c->outs[tid];
                    sarr_drop_le(oset, t);
                    if (oset->len >= c->hops_cap) {
                        slot = SARR_AT(oset, oset->len - c->hops_cap);
                        if (slot > t) dyn[O_STQ] += llrint(slot - t);
                        else slot = t;
                    }
                } else if (des == 3) {
                    oset = &c->outs[tid];   /* persist-queue completions */
                    sarr_drop_le(oset, t);
                    if (oset->len >= c->pq_cap) {
                        slot = SARR_AT(oset, oset->len - c->pq_cap);
                        if (slot > t) dyn[O_STQ] += llrint(slot - t);
                        else slot = t;
                    }
                } else {  /* no-persist-queue: CLWB takes a sq slot */
                    ring_drop_le(sq, t);
                    if (sq->len >= c->sq_cap) {
                        slot = RING_AT(sq, sq->len - c->sq_cap);
                        if (slot > t) dyn[O_STQ] += llrint(slot - t);
                        else slot = t;
                    }
                }
                double flush_t, issue = 0.0;
                Ring *brt = NULL;
                i64 bidx = 0;
                if (des == 2 || des == 3) {
                    bidx = (i64)tid * c->n_bufs + c->ongoing[tid];
                    brt = &c->brt[bidx];
                    ring_drop_le(brt, slot);
                    issue = brt->len < c->sb_cap
                        ? slot : RING_AT(brt, brt->len - c->sb_cap);
                    flush_t = issue;
                } else {
                    flush_t = slot;
                }
                double depart = flush_line(c, tid, id, flush_t);
                if (des == 1) {
                    if (c->epoch_ready[tid] > depart) depart = c->epoch_ready[tid];
                } else if (des == 2 || des == 3) {
                    if (c->b_dep[bidx] > depart) depart = c->b_dep[bidx];
                }
                double accepted = pm_write(c, depart, id);
                if (c->cr) line_persisted(c, id, flush_t, accepted, SRC_CLWB);
                double acked = accepted + c->w2c;
                if (des == 0 || des == 4) {
                    if (sarr_insert(oset, acked)) goto fail;
                    if (acked > c->out_latest[tid]) c->out_latest[tid] = acked;
                    t = slot + 1;
                    rob_done = t;
                } else if (des == 1) {
                    if (sarr_insert(oset, acked)) goto fail;
                    if (acked > c->out_latest[tid]) c->out_latest[tid] = acked;
                    c->oe_n[tid]++;
                    if (acked > c->oe_max[tid]) c->oe_max[tid] = acked;
                    t = slot + 1;
                    rob_done = t;
                } else {
                    double bl = c->b_last[bidx];
                    double retire = acked > bl ? acked : bl;
                    if (ring_push(brt, retire)) goto fail;
                    c->b_last[bidx] = retire;
                    double *snooped = &c->snoop[tid * u + id];
                    if (retire > *snooped) *snooped = retire;
                    if (issue > c->max_issue[tid]) c->max_issue[tid] = issue;
                    if (des == 3) {
                        double pqc = retire > slot ? retire : slot;
                        if (sarr_insert(oset, pqc)) goto fail;
                        if (pqc > c->pq_latest[tid]) c->pq_latest[tid] = pqc;
                        t = slot + 1;
                        rob_done = t;
                    } else {
                        ring_drop_le(sq, slot);
                        double sqr = issue > c->sq_last[tid]
                            ? issue : c->sq_last[tid];
                        if (ring_push(sq, sqr)) goto fail;
                        c->sq_last[tid] = sqr;
                        t = slot + 1;
                        rob_done = sqr;
                    }
                }

            } else if (kind == K_COMPUTE) {
                t += (double)CY[pc];
                rob_done = t;

            } else if (kind == K_LOAD) {
                i32 id = L[pc];
                int served;
                double done = access_mem(c, tid, id, 0, t, &served);
                if (served == 0) {
                    dyn[O_L1H]++;
                    t = t + c->hit;
                } else {
                    dyn[O_L1M]++;
                    if (served == 2) dyn[O_PMR]++;
                    t = t + c->hit + (done - t) * c->ovl;
                }
                rob_done = done;

            } else if (kind == K_LOCK_ACQ) {
                i64 li = lock_index(c, LK[pc]);
                if (li < 0) goto fail;
                i64 cnt = lock_offs[li + 1] - lock_offs[li];
                if (c->lk_next[li] >= cnt ||
                    lock_tids[lock_offs[li] + c->lk_next[li]] != tid ||
                    c->lk_held[li]) {
                    c->st[tid] = 1;
                    c->parked_on[tid] = li;
                    tid = -1;
                    continue;   /* parked: no state committed */
                }
                double grant = t > c->lk_rel[li] ? t : c->lk_rel[li];
                c->lk_next[li]++;
                c->lk_held[li] = 1;
                dyn[O_STL] += llrint(grant - t);
                t = (t > grant ? t : grant) + c->lock_cost;
                rob_done = t;

            } else if (kind == K_LOCK_REL) {
                i64 li = lock_index(c, LK[pc]);
                if (li < 0) goto fail;
                t += c->hit;
                rob_done = t;
                if (t > c->lk_rel[li]) c->lk_rel[li] = t;
                c->lk_held[li] = 0;

            } else {  /* fence kinds */
                if (des == 4) {
                    /* non-atomic tolerates stray fences as no-ops */
                } else if (kind == K_SFENCE && des == 0) {
                    double done = t > c->out_latest[tid]
                        ? t : c->out_latest[tid];
                    if (c->sq_last[tid] > done) done = c->sq_last[tid];
                    if (done > t) dyn[O_STF] += llrint(done - t);
                    sarr_clear(&c->outs[tid]);
                    t = done;
                } else if (kind == K_OFENCE && des == 1) {
                    if (c->oe_n[tid]) {
                        if (c->oe_max[tid] > c->epoch_ready[tid])
                            c->epoch_ready[tid] = c->oe_max[tid];
                        c->oe_n[tid] = 0;
                        c->oe_max[tid] = 0.0;
                    }
                    t = t + 1;
                } else if (kind == K_DFENCE && des == 1) {
                    double done = t > c->out_latest[tid]
                        ? t : c->out_latest[tid];
                    if (done > t) dyn[O_STD] += llrint(done - t);
                    sarr_clear(&c->outs[tid]);
                    c->oe_n[tid] = 0;
                    c->oe_max[tid] = 0.0;
                    if (done > c->epoch_ready[tid]) c->epoch_ready[tid] = done;
                    t = done;
                } else if (kind == K_PB && (des == 2 || des == 3)) {
                    i64 bidx = (i64)tid * c->n_bufs + c->ongoing[tid];
                    double bl = c->b_last[bidx];
                    double bdone = t > bl ? t : bl;
                    if (bdone > c->b_dep[bidx]) c->b_dep[bidx] = bdone;
                    if (des == 3) {
                        if (sarr_insert(&c->outs[tid], t + 1)) goto fail;
                        if (t + 1 > c->pq_latest[tid]) c->pq_latest[tid] = t + 1;
                    }
                    if (c->max_issue[tid] > c->store_gate[tid])
                        c->store_gate[tid] = c->max_issue[tid];
                    t = t + 1;
                } else if (kind == K_NS && (des == 2 || des == 3)) {
                    c->ongoing[tid] = (c->ongoing[tid] + 1) % c->n_bufs;
                    if (des == 3) {
                        if (sarr_insert(&c->outs[tid], t + 1)) goto fail;
                        if (t + 1 > c->pq_latest[tid]) c->pq_latest[tid] = t + 1;
                    }
                    t = t + 1;
                } else if (kind == K_JS && (des == 2 || des == 3)) {
                    double done;
                    if (des == 3) {
                        done = t > c->pq_latest[tid] ? t : c->pq_latest[tid];
                    } else {
                        double bmax = 0.0;
                        for (i64 b = 0; b < c->n_bufs; b++) {
                            double v = c->b_last[(i64)tid * c->n_bufs + b];
                            if (v > bmax) bmax = v;
                        }
                        done = t > bmax ? t : bmax;
                    }
                    if (c->sq_last[tid] > done) done = c->sq_last[tid];
                    if (done > t) dyn[O_STD] += llrint(done - t);
                    c->store_gate[tid] = 0.0;
                    t = done;
                } else {
                    goto fail;  /* wrong fence for design: Python raises */
                }
                rob_done = t;
            }

            /* ROB push: rob.push(min(t, rob_done), rob_done) */
            dyn[O_STQ] += rob_stall;
            {
                double t2 = t < rob_done ? t : rob_done;
                ring_drop_le(rob, t2);
                double rr = rob_done > c->rob_last[tid]
                    ? rob_done : c->rob_last[tid];
                if (ring_push(rob, rr)) goto fail;
                c->rob_last[tid] = rr;
            }
            clock = t;
            pc++;
            if (pc >= n_ops) {
                /* end of trace: domain.drain_all */
                double done;
                if (des == 0 || des == 4) {
                    done = clock > c->out_latest[tid]
                        ? clock : c->out_latest[tid];
                    if (done > clock) dyn[O_STD] += llrint(done - clock);
                    sarr_clear(&c->outs[tid]);
                } else if (des == 1) {
                    done = clock > c->out_latest[tid]
                        ? clock : c->out_latest[tid];
                    if (done > clock) dyn[O_STD] += llrint(done - clock);
                    sarr_clear(&c->outs[tid]);
                    c->oe_n[tid] = 0;
                    c->oe_max[tid] = 0.0;
                    if (done > c->epoch_ready[tid]) c->epoch_ready[tid] = done;
                } else if (des == 3) {
                    done = clock > c->pq_latest[tid]
                        ? clock : c->pq_latest[tid];
                    if (c->sq_last[tid] > done) done = c->sq_last[tid];
                    if (done > clock) dyn[O_STD] += llrint(done - clock);
                    c->store_gate[tid] = 0.0;
                } else {
                    double bmax = 0.0;
                    for (i64 b = 0; b < c->n_bufs; b++) {
                        double v = c->b_last[(i64)tid * c->n_bufs + b];
                        if (v > bmax) bmax = v;
                    }
                    done = clock > bmax ? clock : bmax;
                    if (c->sq_last[tid] > done) done = c->sq_last[tid];
                    if (done > clock) dyn[O_STD] += llrint(done - clock);
                    c->store_gate[tid] = 0.0;
                }
                clock = done;
                c->st[tid] = 2;
            }
            c->clock[tid] = clock;
            c->key[tid] = clock;
            c->pc[tid] = pc;

            int rescan = c->st[tid] != 0;   /* finished */
            if (kind == K_LOCK_REL) {
                /* a release may wake parked cores */
                i64 li = lock_index(c, LK[pc - 1]);
                for (int w = 0; w < n; w++)
                    if (c->st[w] == 1 && c->parked_on[w] == li) {
                        c->st[w] = 0;
                        c->key[w] = c->clock[w] > clock ? c->clock[w] : clock;
                        rescan = 1;
                    }
            }
            /* the core steps on while its (key, tid) stays below the
             * runner-up's, which only a wake can have moved */
            if (rescan || (ru >= 0 && !(clock < c->key[ru] ||
                                        (clock == c->key[ru] && tid < ru))))
                tid = -1;

            dispatched++;
            if (cr && cr->kind == TRIG_OPS && (double)dispatched >= cr->at) {
                cr->cycle = clock;
                break;
            }
            if (dispatched >= next_prune) {
                next_prune = dispatched + c->prune_period;
                double low = clock;
                for (int i = 0; i < n; i++)
                    if (c->st[i] != 2 && c->clock[i] < low) low = c->clock[i];
                bw_prune(&c->accept, low);
                bw_prune(&c->media, low);
                bw_prune(&c->readbw, low);
            }
        }
    }

    /* ---- output ----------------------------------------------------- */
    for (int i = 0; i < n; i++) {
        i64 *dyn = c->dyn + (i64)i * OUT_STRIDE;
        dyn[O_CYCLES] = c->st[i] == 2 ? llrint(c->clock[i]) : 0;
        dyn[O_OPS] = c->pc[i];
        memcpy(out + (i64)i * OUT_STRIDE, dyn, OUT_STRIDE * sizeof(i64));
    }
    ctx_free(c);
    return RC_OK;

fail:
    ctx_free(c);
    return rc;
}
