"""Compiled fast replay path for the timing simulator.

The reference engine (:mod:`repro.sim.cpu` + the per-design domains) is
written for clarity: every micro-op crosses several object layers —
``CoreEngine.step`` → domain hooks → queue objects → cache hierarchy —
each with tracer/profiler branches.  At paper-length runs (1,000+ ops
per thread) that layering is the bottleneck, not the model.

This module replays the *same semantics* an order of magnitude faster:

* each thread trace is **pre-compiled** once into flat parallel arrays
  (int op kinds, cache-line indices, compute cycles, lock ids), cached
  on the trace object, so the hot loop never touches ``Op`` dataclasses
  or ``OpKind`` enum objects;
* the whole machine loop runs in **one function frame**: per-core
  clocks, ROB/store-queue state, and per-design persist structures are
  locals indexed by ``tid``, eliminating per-op attribute and method
  dispatch;
* consecutive ops of the minimum-clock core are **batched**: the ready
  heap is only touched when the core's key passes the next-smallest
  key, which provably pops in the identical global order;
* the common fast cases — L1 hits, L1-miss/L2-hit fills, owner-local
  flushes, fault-free PM bandwidth reservations — are inlined; every
  rare case (memory-level misses, cross-core dirty transfers, dirty
  evictions) falls back to the reference hierarchy methods on the
  *shared* cache/controller objects, so state stays exact.

Two data-structure substitutions keep per-op cost flat while staying
arithmetically identical to the reference:

* Outstanding-acknowledgement sets (x86 fill buffers, HOPS persist
  buffers, StrandWeaver persist-queue completions) are min-heaps
  instead of lists: the reference filters ``[x for x in xs if x > t]``
  and sorts to find the k-th smallest when full; a heap drain removes
  exactly the same elements and ``nsmallest`` yields the same k-th
  value.
* ``max(xs)``-style drain targets use a **running maximum** over every
  value ever inserted since the structure was created.  This is exact:
  any value the reference has dropped (filtered at an earlier time
  ``t' <= t``, or cleared by a fence that advanced the core's clock
  past it) is ``<= t``, so inside ``max(t, ...)`` the stale running
  maximum is dominated by ``t`` whenever it disagrees with the live
  maximum.

The fast path is only taken for uninstrumented runs (no tracer, no
profiler, no fault plan, no media faults); everything else uses the
reference engine.  Bit-identity against the reference is pinned by
``tests/sim/test_engine_identity_pins.py`` and the property test in
``tests/sim/test_fastcore_identity.py``.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Dict, List

from repro.core.ops import Program
from repro.sim.cache import CacheHierarchy
from repro.sim.cnative import trace_columns
from repro.sim.config import MachineConfig
from repro.sim.cpu import CoreEngine, LockTable
from repro.sim.memory import DRAMController, PMController
from repro.sim.stats import CoreStats

#: design name -> dispatch id used by the compiled loop.
DESIGN_IDS = {
    "intel-x86": 0,
    "hops": 1,
    "no-persist-queue": 2,
    "strandweaver": 3,
    "non-atomic": 4,
}

# Op kind ints (must match repro.core.ops.OpKind values).
_STORE, _LOAD, _CLWB = 0, 1, 2
_SFENCE, _PB, _NS, _JS, _OFENCE, _DFENCE = 3, 4, 5, 6, 7, 8
_LOCK_ACQ, _LOCK_REL, _COMPUTE, _VSTORE, _VLOAD = 9, 10, 11, 12, 13

_DISPATCH = CoreEngine.DISPATCH_COST
_HIT = CoreEngine.HIT_COST
_LOCK_COST = CoreEngine.LOCK_COST

#: design id -> fence kinds its domain accepts (non-atomic accepts all).
_VALID_FENCES = {
    0: frozenset({_SFENCE}),
    1: frozenset({_OFENCE, _DFENCE}),
    2: frozenset({_PB, _NS, _JS}),
    3: frozenset({_PB, _NS, _JS}),
}

#: design id -> the reference domain's ValueError message template.
_FENCE_ERR = {
    0: "intel-x86 traces only contain SFENCE, got {0!r}",
    1: "hops traces only contain OFENCE/DFENCE, got {0!r}",
    2: "no-persist-queue traces use PB/NS/JS, got {0!r}",
    3: "strandweaver traces use PB/NS/JS, got {0!r}",
}


def compile_trace(trace):
    """Flatten a :class:`ThreadTrace` into parallel arrays, cached.

    Returns ``(kinds, lines, cycles, lock_ids, static)`` where
    ``static`` holds the replay-invariant counter totals (every op
    executes exactly once, so op-mix counters don't need per-op
    increments in the hot loop).
    """
    cached = getattr(trace, "_compiled", None)
    if cached is not None:
        return cached
    kinds: List[int] = []
    lines: List[int] = []
    cycles: List[int] = []
    lock_ids: List[int] = []
    k_append = kinds.append
    l_append = lines.append
    c_append = cycles.append
    lk_append = lock_ids.append
    n_store = n_load = n_clwb = n_fence = n_mark = 0
    compute_cycles = 0
    for op in trace.ops:
        k = int(op.kind)
        k_append(k)
        l_append(op.addr // 64)
        c_append(op.cycles)
        lk_append(op.lock_id)
        if k == _STORE or k == _VSTORE:
            n_store += 1
        elif k == _LOAD or k == _VLOAD:
            n_load += 1
        elif k == _CLWB:
            n_clwb += 1
        elif k == _COMPUTE:
            compute_cycles += op.cycles
        elif _SFENCE <= k <= _DFENCE:
            n_fence += 1
            if k == _PB or k == _NS:
                n_mark += 1
    static = {
        "stores": n_store,
        "loads": n_load,
        "clwbs": n_clwb,
        "fences": n_fence,
        "strand_marks": n_mark,
        "compute_cycles": compute_cycles,
    }
    compiled = (kinds, lines, cycles, lock_ids, static)
    trace._compiled = compiled
    return compiled


class FastDeadlock(Exception):
    """Internal: re-raised as SimulationDeadlock by the machine."""


#: debug-only: set to a list to record (tid, pc, clock) per committed op.
TRACE = None


def _blocked_detail(program, pcs, clocks, parked, locks) -> str:
    """Mirror of :meth:`CoreEngine.blocked_state` for the fast loop."""
    parts = []
    for lock_id in sorted(parked):
        for tid in parked[lock_id]:
            trace = program.threads[tid]
            pc = pcs[tid]
            op = trace[pc] if pc < len(trace) else None
            holder = locks.next_holder(lock_id)
            expect = (
                f"core {holder}" if holder is not None
                else "nobody (order exhausted)"
            )
            parts.append(
                f"core {tid}: op {pc}/{len(trace)} {op!r}, "
                f"local clock {clocks[tid]:.1f}, waiting on lock {lock_id} "
                f"(next holder by recorded order: {expect})"
            )
    return "; ".join(parts)


def run_fast(
    design: str,
    program: Program,
    cfg: MachineConfig,
    hierarchy: CacheHierarchy,
    domains: list,
    per_core_stats: List[CoreStats],
    locks: LockTable,
    pm: PMController,
    dram: DRAMController,
    prune_period: int,
) -> None:
    """Replay ``program`` bit-identically to the reference engine.

    Fills ``per_core_stats`` in place.  Caller guarantees: no tracer,
    no profiler, no durability tracker, no media faults.
    """
    des = DESIGN_IDS[design]
    n = program.n_threads

    # ---- compiled per-core op streams -------------------------------
    kinds_a: list = []
    lines_a: list = []
    cyc_a: list = []
    lkid_a: list = []
    static_a: List[dict] = []
    nops = []
    for trace in program.threads:
        kinds, lines, cycles, lock_ids, static = trace_columns(trace)
        kinds_a.append(kinds)
        lines_a.append(lines)
        cyc_a.append(cycles)
        lkid_a.append(lock_ids)
        static_a.append(static)
        nops.append(len(kinds))

    # ---- per-core engine state (locals indexed by tid) --------------
    clocks = [0.0] * n
    pcs = [0] * n
    finished = [nops[t] == 0 for t in range(n)]
    rob_cap = cfg.core.rob_entries
    sq_cap = cfg.core.store_queue_entries
    robs = [deque() for _ in range(n)]
    rob_last = [0.0] * n
    sqs = [domains[t].store_queue for t in range(n)]
    sq_times = [sq._retire_times for sq in sqs]
    sq_last = [sq._last_retire for sq in sqs]
    line_retire = [dict() for _ in range(n)]  # youngest store retire / line

    # Dynamic stat accumulators (op-mix totals are static, see compile).
    s_l1h = [0] * n
    s_l1m = [0] * n
    s_pmr = [0] * n
    s_stall_q = [0] * n
    s_stall_f = [0] * n
    s_stall_d = [0] * n
    s_stall_l = [0] * n

    # ---- per-design persist-structure state -------------------------
    # Outstanding-time lists live as min-heaps (they start empty, so the
    # heap invariant holds on the shared reference lists themselves) and
    # each carries a running maximum (see module docstring for why the
    # running maximum is exact inside max(t, ...) expressions).
    if des == 0 or des == 4:  # intel-x86 / non-atomic
        out_sets = [domains[t]._outstanding for t in range(n)]
        out_times = [o._times for o in out_sets]
        out_latest = [0.0] * n
        out_cap = out_sets[0].capacity if n else 0
    elif des == 1:  # hops
        hop_cap = cfg.hops.persist_buffer_entries
        buffered = [domains[t]._buffered for t in range(n)]
        buf_latest = [0.0] * n
        open_epoch = [domains[t]._open_epoch for t in range(n)]
        oe_max = [0.0] * n
        epoch_ready = [domains[t]._epoch_ready for t in range(n)]
    else:  # strandweaver / no-persist-queue
        sbus = [domains[t].sbu for t in range(n)]
        sbuf_arrays = [sbu.buffers for sbu in sbus]
        n_bufs = len(sbuf_arrays[0]) if n else 0
        sb_cap = sbuf_arrays[0][0].capacity if n else 0
        ongoing = [sbu.ongoing for sbu in sbus]
        store_gate = [domains[t]._store_gate for t in range(n)]
        max_issue = [domains[t]._max_issue for t in range(n)]
        if des == 3:
            pqs = [domains[t].pq for t in range(n)]
            pq_cap = cfg.strand.persist_queue_entries
            pq_comp = [pq._completions for pq in pqs]
            pq_latest = [pq._latest for pq in pqs]

    # ---- cache + PM fast-path bindings ------------------------------
    l1_caches = hierarchy.l1
    n1 = cfg.l1d.n_sets
    l1_assoc = cfg.l1d.assoc
    l1_lat = cfg.l1d.hit_latency
    l2_cache = hierarchy.l2
    n2 = cfg.l2.n_sets
    l2_assoc = cfg.l2.assoc
    l2_lat = cfg.l2.hit_latency
    # Direct set-indexed bucket views (list indexing beats dict.get in
    # the hot loop; buckets are the shared OrderedDict objects, so the
    # reference fallbacks see every mutation).
    l1v = []
    for c in l1_caches:
        sets = c._sets
        l1v.append([sets.setdefault(i, OrderedDict()) for i in range(n1)])
    l2sets = l2_cache._sets
    l2v = [l2sets.setdefault(i, OrderedDict()) for i in range(n2)]
    l1_hits_c = [0] * n   # TagCache.hits deltas, applied at the end
    l1_miss_c = [0] * n   # TagCache.misses deltas
    l2_hits_c = 0         # shared-L2 TagCache.hits delta
    dirty_owner = hierarchy._dirty_owner
    h_access = hierarchy.access
    h_flush = hierarchy.flush
    ovl = 1.0 - cfg.core.load_overlap

    # PM bandwidth accounting, inlined (BandwidthResource.reserve of the
    # accept and media servers; prune() mutates the same dicts in
    # place, so mid-run pruning stays visible here).
    accept = pm._accept
    a_win = accept._windows
    a_skip = accept._skip
    a_iv = accept.interval
    a_cap = accept.capacity
    media = pm._media
    m_win = media._windows
    m_skip = media._skip
    m_iv = media.interval
    m_cap = media.capacity
    queued_line = pm._queued_line
    coalesce = pm.cfg.coalesce_writes
    w2c = pm.cfg.write_to_controller
    media_interval = pm._media_interval
    max_backlog = pm.cfg.write_queue_entries * media_interval
    pm_writes_local = 0
    pm_coalesced_local = 0

    try_acquire = locks.try_acquire
    release = locks.release
    heappush = heapq.heappush
    heappop = heapq.heappop
    nsmallest = heapq.nsmallest

    # debug trace hook, bound once (module global checked per run only)
    trace_dbg = TRACE

    # ---- the machine loop -------------------------------------------
    ready = [(clocks[t], t) for t in range(n) if not finished[t]]
    heapq.heapify(ready)
    parked: Dict[int, List[int]] = {}  # lock_id -> waiting tids
    dispatched = 0
    next_prune = prune_period

    while ready or parked:
        if not ready:
            raise FastDeadlock(
                f"[{design}] all unfinished cores are parked with no "
                f"runnable core: "
                f"{_blocked_detail(program, pcs, clocks, parked, locks)}"
            )
        _, tid = heappop(ready)
        if finished[tid]:
            continue
        # The heap key of a woken core is max(its clock, the releaser's
        # clock) — the core itself still resumes from its own clock.
        clock = clocks[tid]
        if ready:
            head_clock, head_tid = ready[0]
            have_head = True
        else:
            have_head = False

        kinds = kinds_a[tid]
        lines = lines_a[tid]
        cyc = cyc_a[tid]
        lkid = lkid_a[tid]
        pc = pcs[tid]
        n_ops = nops[tid]
        rob = robs[tid]
        r_last = rob_last[tid]
        sqt = sq_times[tid]
        sql = sq_last[tid]
        lsr = line_retire[tid]
        l1vt = l1v[tid]
        pc0 = pc
        push_back = True

        # -- batched per-op stepping (reference: CoreEngine.step) -----
        while True:
            t = clock + _DISPATCH
            # ROB dispatch pressure (InOrderQueue.earliest_slot inline).
            while rob and rob[0] <= t:
                rob.popleft()
            lr = len(rob)
            if lr >= rob_cap:
                rob_slot = rob[lr - rob_cap]
                if rob_slot > t:
                    s_stall_q[tid] += int(round(rob_slot - t))
                    t = rob_slot
            rob_done = t
            kind = kinds[pc]

            if kind == _STORE or kind == _VSTORE:
                if kind == _STORE and (des == 2 or des == 3):
                    gate = store_gate[tid]
                    if gate > t:
                        s_stall_f[tid] += int(round(gate - t))
                        t = gate
                # store queue earliest_slot
                while sqt and sqt[0] <= t:
                    sqt.popleft()
                ls = len(sqt)
                slot = t
                if ls >= sq_cap:
                    slot = sqt[ls - sq_cap]
                    if slot > t:
                        s_stall_q[tid] += int(round(slot - t))
                    else:
                        slot = t
                line = lines[pc]
                # memory access (L1 hit and L1-miss/L2-hit inline,
                # everything else falls back to the reference path)
                owner = dirty_owner.get(line)
                if owner is None or owner == tid:
                    bucket = l1vt[line % n1]
                    if line in bucket:
                        bucket.move_to_end(line)
                        bucket[line] = True
                        dirty_owner[line] = tid
                        l1_hits_c[tid] += 1
                        s_l1h[tid] += 1
                        done = slot + l1_lat
                    else:
                        l2b = l2v[line % n2]
                        fastfill = False
                        if line in l2b:
                            if len(bucket) < l1_assoc:
                                victim = None
                                fastfill = True
                            else:
                                v_line = next(iter(bucket))
                                v_l2b = l2v[v_line % n2]
                                if v_line in v_l2b:
                                    victim = v_line
                                    fastfill = True
                        if fastfill:
                            # l1 miss -> l2 hit -> clean-path l1 fill
                            l1_miss_c[tid] += 1
                            l2_hits_c += 1
                            l2b.move_to_end(line)
                            if victim is not None:
                                v_dirty = bucket.pop(victim)
                                if v_dirty:
                                    v_l2b[victim] = True
                                v_l2b.move_to_end(victim)
                            bucket[line] = True
                            dirty_owner[line] = tid
                            s_l1m[tid] += 1
                            done = slot + l1_lat + l2_lat
                        else:
                            done, served = h_access(
                                tid, line, True, slot, kind == _STORE
                            )
                            if served == "l1":
                                s_l1h[tid] += 1
                            else:
                                s_l1m[tid] += 1
                                if served == "pm":
                                    s_pmr[tid] += 1
                else:
                    done, served = h_access(
                        tid, line, True, slot, kind == _STORE
                    )
                    if served == "l1":
                        s_l1h[tid] += 1
                    else:
                        s_l1m[tid] += 1
                        if served == "pm":
                            s_pmr[tid] += 1
                # store queue push (entry slot is free at `slot`)
                while sqt and sqt[0] <= slot:
                    sqt.popleft()
                retire = done if done > sql else sql
                sqt.append(retire)
                sql = retire
                prev = lsr.get(line)
                if prev is None or retire > prev:
                    lsr[line] = retire
                t = slot + _HIT
                rob_done = retire

            elif kind == _CLWB:
                line = lines[pc]
                gate = lsr.get(line)
                if gate is not None and gate > t:
                    t = gate
                if des == 0 or des == 4:  # x86 / non-atomic fill buffers
                    times = out_times[tid]
                    while times and times[0] <= t:
                        heappop(times)
                    lo = len(times)
                    slot = t
                    if lo >= out_cap:
                        k = lo - out_cap
                        slot = times[0] if k == 0 else nsmallest(k + 1, times)[-1]
                        if slot > t:
                            s_stall_q[tid] += int(round(slot - t))
                        else:
                            slot = t
                elif des == 1:  # hops persist buffer
                    times = buffered[tid]
                    while times and times[0] <= t:
                        heappop(times)
                    lo = len(times)
                    slot = t
                    if lo >= hop_cap:
                        k = lo - hop_cap
                        slot = times[0] if k == 0 else nsmallest(k + 1, times)[-1]
                        if slot > t:
                            s_stall_q[tid] += int(round(slot - t))
                        else:
                            slot = t
                elif des == 3:  # strandweaver persist queue
                    comp = pq_comp[tid]
                    while comp and comp[0] <= t:
                        heappop(comp)
                    lo = len(comp)
                    slot = t
                    if lo >= pq_cap:
                        k = lo - pq_cap
                        slot = comp[0] if k == 0 else nsmallest(k + 1, comp)[-1]
                        if slot > t:
                            s_stall_q[tid] += int(round(slot - t))
                        else:
                            slot = t
                else:  # no-persist-queue: CLWB takes a store-queue slot
                    while sqt and sqt[0] <= t:
                        sqt.popleft()
                    ls = len(sqt)
                    slot = t
                    if ls >= sq_cap:
                        slot = sqt[ls - sq_cap]
                        if slot > t:
                            s_stall_q[tid] += int(round(slot - t))
                        else:
                            slot = t

                if des == 2 or des == 3:
                    # StrandBuffer.insert_clwb inline on ongoing buffer.
                    buf = sbuf_arrays[tid][ongoing[tid]]
                    brt = buf._retire_times
                    brt[:] = [x for x in brt if x > slot]
                    lb = len(brt)
                    issue = slot if lb < sb_cap else brt[lb - sb_cap]
                    flush_t = issue
                else:
                    flush_t = slot
                # cache flush (owner-local inline, else full path)
                owner = dirty_owner.get(line)
                if owner is None or owner == tid:
                    bucket = l1vt[line % n1]
                    if line in bucket:
                        bucket[line] = False
                        dirty_owner.pop(line, None)
                        depart = flush_t + l1_lat
                    else:
                        l2b = l2v[line % n2]
                        if line in l2b:
                            l2b[line] = False
                            depart = flush_t + l1_lat + l2_lat
                        else:
                            depart = flush_t + l1_lat
                else:
                    depart = h_flush(tid, line, flush_t)
                # PM controller write inline (PMController.write,
                # fault-free, uninstrumented).
                if des == 1:
                    er = epoch_ready[tid]
                    if er > depart:
                        depart = er
                elif des == 2 or des == 3:
                    dr = buf._dep_ready
                    if dr > depart:
                        depart = dr
                pm_writes_local += 1
                # accept-bandwidth reserve (BandwidthResource.reserve)
                w = int(depart / a_iv) if depart > 0.0 else 0
                nxt = a_skip.get(w)
                if nxt is not None:
                    root = nxt
                    while True:
                        hop = a_skip.get(root)
                        if hop is None:
                            break
                        root = hop
                    ww = w
                    while True:
                        hop = a_skip.get(ww)
                        if hop is None or hop == root:
                            break
                        a_skip[ww] = root
                        ww = hop
                    w = root
                c = a_win.get(w, 0) + 1
                a_win[w] = c
                if c >= a_cap:
                    a_skip[w] = w + 1
                wt = w * a_iv
                grant = depart if depart > wt else wt
                pending = queued_line.get(line) if coalesce else None
                if pending is not None and pending > grant:
                    pm_coalesced_local += 1
                    acked = grant + w2c
                else:
                    # media-bandwidth reserve
                    w = int(grant / m_iv) if grant > 0.0 else 0
                    nxt = m_skip.get(w)
                    if nxt is not None:
                        root = nxt
                        while True:
                            hop = m_skip.get(root)
                            if hop is None:
                                break
                            root = hop
                        ww = w
                        while True:
                            hop = m_skip.get(ww)
                            if hop is None or hop == root:
                                break
                            m_skip[ww] = root
                            ww = hop
                        w = root
                    c = m_win.get(w, 0) + 1
                    m_win[w] = c
                    if c >= m_cap:
                        m_skip[w] = w + 1
                    wt = w * m_iv
                    media_start = grant if grant > wt else wt
                    accepted = grant
                    if media_start - grant > max_backlog:
                        accepted = media_start - max_backlog
                    acked = accepted + w2c
                    queued_line[line] = media_start

                if des == 0 or des == 4:
                    heappush(times, acked)
                    if acked > out_latest[tid]:
                        out_latest[tid] = acked
                    t = slot + 1
                    rob_done = t
                elif des == 1:
                    heappush(times, acked)
                    if acked > buf_latest[tid]:
                        buf_latest[tid] = acked
                    oe = open_epoch[tid]
                    oe.append(acked)
                    if acked > oe_max[tid]:
                        oe_max[tid] = acked
                    t = slot + 1
                    rob_done = t
                else:
                    blast = buf._last_retire
                    retire = acked if acked > blast else blast
                    brt.append(retire)
                    buf._last_retire = retire
                    blr = buf._line_retire
                    prevb = blr.get(line)
                    if prevb is None or retire > prevb:
                        blr[line] = retire
                    buf.clwbs += 1
                    if issue > max_issue[tid]:
                        max_issue[tid] = issue
                    if des == 3:
                        pqc = retire if retire > slot else slot
                        heappush(comp, pqc)
                        if pqc > pq_latest[tid]:
                            pq_latest[tid] = pqc
                        t = slot + 1
                        rob_done = t
                    else:
                        # CLWB holds its store-queue slot until issue.
                        while sqt and sqt[0] <= slot:
                            sqt.popleft()
                        sq_retire = issue if issue > sql else sql
                        sqt.append(sq_retire)
                        sql = sq_retire
                        t = slot + 1
                        rob_done = sq_retire

            elif kind == _COMPUTE:
                t += cyc[pc]
                rob_done = t

            elif kind == _LOAD or kind == _VLOAD:
                line = lines[pc]
                owner = dirty_owner.get(line)
                if owner is None or owner == tid:
                    bucket = l1vt[line % n1]
                    if line in bucket:
                        bucket.move_to_end(line)
                        l1_hits_c[tid] += 1
                        s_l1h[tid] += 1
                        done = t + l1_lat
                        t = t + _HIT
                    else:
                        l2b = l2v[line % n2]
                        fastfill = False
                        if line in l2b:
                            if len(bucket) < l1_assoc:
                                victim = None
                                fastfill = True
                            else:
                                v_line = next(iter(bucket))
                                v_l2b = l2v[v_line % n2]
                                if v_line in v_l2b:
                                    victim = v_line
                                    fastfill = True
                        if fastfill:
                            l1_miss_c[tid] += 1
                            l2_hits_c += 1
                            l2b.move_to_end(line)
                            if victim is not None:
                                v_dirty = bucket.pop(victim)
                                if v_dirty:
                                    v_l2b[victim] = True
                                v_l2b.move_to_end(victim)
                            bucket[line] = False
                            s_l1m[tid] += 1
                            done = t + l1_lat + l2_lat
                            t = t + _HIT + (done - t) * ovl
                        else:
                            done, served = h_access(
                                tid, line, False, t, kind == _LOAD
                            )
                            if served == "l1":
                                s_l1h[tid] += 1
                                t = t + _HIT
                            else:
                                s_l1m[tid] += 1
                                if served == "pm":
                                    s_pmr[tid] += 1
                                t = t + _HIT + (done - t) * ovl
                else:
                    done, served = h_access(
                        tid, line, False, t, kind == _LOAD
                    )
                    if served == "l1":
                        s_l1h[tid] += 1
                        t = t + _HIT
                    else:
                        s_l1m[tid] += 1
                        if served == "pm":
                            s_pmr[tid] += 1
                        t = t + _HIT + (done - t) * ovl
                rob_done = done

            elif kind == _LOCK_ACQ:
                grant = try_acquire(lkid[pc], tid, t)
                if grant is None:
                    # Park without advancing pc/clock (reference returns
                    # Blocked before any state commit).
                    parked.setdefault(lkid[pc], []).append(tid)
                    push_back = False
                    break
                s_stall_l[tid] += int(round(grant - t))
                t = (t if t > grant else grant) + _LOCK_COST
                rob_done = t

            elif kind == _LOCK_REL:
                t += _HIT
                rob_done = t
                release(lkid[pc], t)

            else:  # fence kinds
                if des != 4 and kind not in _VALID_FENCES[des]:
                    # Reproduce the reference domain's rejection of a
                    # fence kind foreign to the design, message and all.
                    raise ValueError(
                        _FENCE_ERR[des].format(program.threads[tid][pc])
                    )
                if des == 4:
                    pass  # non-atomic tolerates stray fences as no-ops
                elif kind == _SFENCE:
                    # reference: max(t, max(times) or 0, sq drain); the
                    # running maximum is exact here (module docstring).
                    times = out_times[tid]
                    latest = out_latest[tid]
                    done = t if t > latest else latest
                    if sql > done:
                        done = sql
                    if done > t:
                        s_stall_f[tid] += int(round(done - t))
                    del times[:]
                    t = done
                elif kind == _OFENCE:
                    oe = open_epoch[tid]
                    if oe:
                        m = oe_max[tid]
                        if m > epoch_ready[tid]:
                            epoch_ready[tid] = m
                        del oe[:]
                        oe_max[tid] = 0.0
                    t = t + 1
                elif kind == _DFENCE:
                    times = buffered[tid]
                    latest = buf_latest[tid]
                    done = t if t > latest else latest
                    if done > t:
                        s_stall_d[tid] += int(round(done - t))
                    del times[:]
                    del open_epoch[tid][:]
                    oe_max[tid] = 0.0
                    if done > epoch_ready[tid]:
                        epoch_ready[tid] = done
                    t = done
                elif kind == _PB:
                    buf = sbuf_arrays[tid][ongoing[tid]]
                    blast = buf._last_retire
                    bdone = t if t > blast else blast
                    if bdone > buf._dep_ready:
                        buf._dep_ready = bdone
                    if des == 3:
                        comp = pq_comp[tid]
                        heappush(comp, t + 1)
                        if t + 1 > pq_latest[tid]:
                            pq_latest[tid] = t + 1
                    mi = max_issue[tid]
                    if mi > store_gate[tid]:
                        store_gate[tid] = mi
                    t = t + 1
                elif kind == _NS:
                    ongoing[tid] = (ongoing[tid] + 1) % n_bufs
                    if des == 3:
                        comp = pq_comp[tid]
                        heappush(comp, t + 1)
                        if t + 1 > pq_latest[tid]:
                            pq_latest[tid] = t + 1
                    t = t + 1
                elif kind == _JS:
                    if des == 3:
                        pql = pq_latest[tid]
                        done = max(t, pql, sql)
                    else:
                        bmax = 0.0
                        for b in sbuf_arrays[tid]:
                            if b._last_retire > bmax:
                                bmax = b._last_retire
                        done = max(t, bmax, sql)
                    if done > t:
                        s_stall_d[tid] += int(round(done - t))
                    store_gate[tid] = 0.0
                    t = done
                else:
                    raise ValueError(
                        f"[{design}] unexpected fence kind {kind} in trace"
                    )
                rob_done = t

            # ROB push (InOrderQueue.push inline; proof in fastcore
            # tests that entry time never dominates the retire max).
            t2 = t if t < rob_done else rob_done
            while rob and rob[0] <= t2:
                rob.popleft()
            rr = rob_done if rob_done > r_last else r_last
            rob.append(rr)
            r_last = rr

            clock = t
            pc += 1
            if trace_dbg is not None:
                trace_dbg.append((tid, pc, clock))
            if pc >= n_ops:
                # End of trace: drain everything (domain.drain_all).
                if des == 0 or des == 4:
                    times = out_times[tid]
                    latest = out_latest[tid]
                    done = clock if clock > latest else latest
                    if done > clock:
                        s_stall_d[tid] += int(round(done - clock))
                    del times[:]
                elif des == 1:
                    times = buffered[tid]
                    latest = buf_latest[tid]
                    done = clock if clock > latest else latest
                    if done > clock:
                        s_stall_d[tid] += int(round(done - clock))
                    del times[:]
                    del open_epoch[tid][:]
                    oe_max[tid] = 0.0
                    if done > epoch_ready[tid]:
                        epoch_ready[tid] = done
                elif des == 3:
                    done = max(clock, pq_latest[tid], sql)
                    if done > clock:
                        s_stall_d[tid] += int(round(done - clock))
                    store_gate[tid] = 0.0
                else:
                    bmax = 0.0
                    for b in sbuf_arrays[tid]:
                        if b._last_retire > bmax:
                            bmax = b._last_retire
                    done = max(clock, bmax, sql)
                    if done > clock:
                        s_stall_d[tid] += int(round(done - clock))
                    store_gate[tid] = 0.0
                clock = done
                finished[tid] = True
                push_back = False
                if trace_dbg is not None:
                    trace_dbg[-1] = (tid, pc, clock)
                if kind == _LOCK_REL:
                    waiters = parked.pop(lkid[pc - 1], None)
                    if waiters:
                        for wtid in waiters:
                            wc = clocks[wtid]
                            heappush(
                                ready,
                                (wc if wc > clock else clock, wtid),
                            )
                break

            if kind == _LOCK_REL:
                # A release may wake earlier-keyed cores; break the
                # batch so the heap re-arbitrates (reference order).
                waiters = parked.pop(lkid[pc - 1], None)
                if waiters:
                    for wtid in waiters:
                        wc = clocks[wtid]
                        heappush(
                            ready, (wc if wc > clock else clock, wtid)
                        )
                    break

            # Batch continuation: keep stepping while this core is
            # still the minimum-(clock, tid) runnable core.
            if have_head and (
                clock > head_clock or (clock == head_clock and tid > head_tid)
            ):
                break

        # -- write back per-core state --------------------------------
        clocks[tid] = clock
        pcs[tid] = pc
        rob_last[tid] = r_last
        sq_last[tid] = sql
        dispatched += pc - pc0
        if push_back:
            heappush(ready, (clock, tid))
        if dispatched >= next_prune:
            next_prune = dispatched + prune_period
            # Low-water mark over *actual* clocks (parked or runnable),
            # never heap keys: a woken core's key may exceed the clock
            # it will resume stepping from.
            low = clock
            for wtid in range(n):
                if not finished[wtid] and clocks[wtid] < low:
                    low = clocks[wtid]
            pm.prune(low)
            dram.prune(low)

    # ---- flush accumulated state back into the shared objects -------
    pm.writes += pm_writes_local
    pm.coalesced += pm_coalesced_local
    l2_cache.hits += l2_hits_c
    for t in range(n):
        stats = per_core_stats[t]
        static = static_a[t]
        stats.cycles = int(round(clocks[t]))
        stats.ops = nops[t]
        stats.stores = static["stores"]
        stats.loads = static["loads"]
        stats.clwbs = static["clwbs"]
        stats.fences = static["fences"]
        stats.compute_cycles = static["compute_cycles"]
        stats.pm_writes = static["clwbs"]
        stats.l1_hits = s_l1h[t]
        stats.l1_misses = s_l1m[t]
        stats.pm_reads = s_pmr[t]
        stats.stall_queue_full = s_stall_q[t]
        stats.stall_fence = s_stall_f[t]
        stats.stall_drain = s_stall_d[t]
        stats.stall_lock = s_stall_l[t]
        l1_caches[t].hits += l1_hits_c[t]
        l1_caches[t].misses += l1_miss_c[t]
        sqs[t]._last_retire = sq_last[t]
        if des == 1:
            domains[t]._epoch_ready = epoch_ready[t]
        elif des == 2 or des == 3:
            sbus[t].ongoing = ongoing[t]
            domains[t]._store_gate = store_gate[t]
            domains[t]._max_issue = max_issue[t]
            if des == 3:
                pqs[t]._latest = pq_latest[t]
                pqs[t].inserted += static["clwbs"] + static["strand_marks"]
    pcs_done = pcs  # keep name referenced for debuggers
    del pcs_done
