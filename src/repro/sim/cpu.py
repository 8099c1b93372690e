"""Per-core issue engine: replays a thread trace through a persist domain.

The engine is cycle-approximate: it models the front end as a fixed
``CoreEngine.DISPATCH_COST`` per op (at most four ops per cycle, where
Table I's core dispatches six), a bounded in-order store queue, and full
out-of-order latency hiding for all but the persist-ordering stalls —
which is where the designs differ and what Figures 7/8 measure.

Lock acquisitions follow the FIFO order fixed at trace-generation time;
when the predecessor critical section has not yet released in simulated
time, the engine reports itself *blocked* and the machine resumes it when
the release happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.ops import ColumnTrace, Op, OpKind, line_of
from repro.obs.tracer import NULL_TRACER, Tracer, core_track
from repro.persistency.base import PersistDomain
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MachineConfig
from repro.sim.engine import InOrderQueue
from repro.sim.stats import CoreStats


@dataclass
class Blocked:
    """Signal: the core cannot proceed until ``lock_id`` is released."""

    lock_id: int


class LockTable:
    """FIFO lock arbitration following the generation-time order.

    A lock is granted only when (a) it is this thread's turn in the
    recorded acquisition order and (b) the previous holder has released
    it in simulated time — both are required for mutual exclusion.
    """

    def __init__(self, lock_order) -> None:
        self._order = {lock: list(tids) for lock, tids in lock_order.items()}
        self._next_idx = {lock: 0 for lock in self._order}
        self._last_release = {lock: 0.0 for lock in self._order}
        self._held = {lock: False for lock in self._order}

    def try_acquire(self, lock_id: int, tid: int, t: float) -> Optional[float]:
        """Attempt acquisition; returns grant time, or None to park."""
        order = self._order[lock_id]
        idx = self._next_idx[lock_id]
        if idx >= len(order) or order[idx] != tid or self._held[lock_id]:
            return None
        grant = max(t, self._last_release[lock_id])
        self._next_idx[lock_id] = idx + 1
        self._held[lock_id] = True
        return grant

    def release(self, lock_id: int, t: float) -> None:
        self._last_release[lock_id] = max(self._last_release[lock_id], t)
        self._held[lock_id] = False

    def next_holder(self, lock_id: int) -> Optional[int]:
        """Thread whose turn the lock is waiting for (deadlock reports)."""
        order = self._order[lock_id]
        idx = self._next_idx[lock_id]
        return order[idx] if idx < len(order) else None


class CoreEngine:
    """Replays one thread's micro-ops, maintaining a local clock."""

    #: front-end cost per micro-op beyond its execution latency.
    DISPATCH_COST = 0.25
    #: cost of an L1-hit memory op as seen by the (OoO) front end.
    HIT_COST = 0.5
    #: cost of a lock RMW beyond arbitration.
    LOCK_COST = 110.0

    def __init__(
        self,
        trace: ColumnTrace,
        cfg: MachineConfig,
        hierarchy: CacheHierarchy,
        domain: PersistDomain,
        stats: CoreStats,
        locks: LockTable,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        #: the sealed program's op list, complete: Machine.run seals first.
        self.ops = trace.ops
        self.tid = trace.tid
        self.cfg = cfg
        self.hierarchy = hierarchy
        self.domain = domain
        self.stats = stats
        self.locks = locks
        self.tracer = tracer
        self.track = core_track(trace.tid)
        self.store_queue = domain.store_queue
        self.rob = InOrderQueue(cfg.core.rob_entries)
        if tracer.enabled:
            self.rob.instrument(tracer, self.track + "/rob", "rob")
            self.store_queue.instrument(
                tracer, self.track + "/store-queue", "store-queue"
            )
        #: per-line retire time of the youngest store, so a CLWB cannot
        #: flush a line before the store it persists has reached the L1
        #: (the persist queue's store-queue lookup, Section IV).
        self._line_store_retire = {}
        self.clock = 0.0
        self.pc = 0
        self.finished = len(trace) == 0

    # -- helpers -----------------------------------------------------------

    def _memory_access(self, op: Op, is_write: bool, t: float) -> Tuple[float, float]:
        """Returns ``(dispatch_continue_time, completion_time)``."""
        done, served = self.hierarchy.access(self.tid, line_of(op.addr), is_write, t)
        if served == "l1":
            self.stats.l1_hits += 1
            return t + self.HIT_COST, done
        self.stats.l1_misses += 1
        if served == "pm":
            self.stats.pm_reads += 1
        latency = done - t
        # Out-of-order execution hides part of a miss behind other work.
        visible = latency * (1.0 - self.cfg.core.load_overlap) if not is_write else 0.0
        return t + self.HIT_COST + visible, done

    def _do_store(self, op: Op, t: float) -> Tuple[float, float]:
        t = self.domain.store_gate(t)
        slot = self.store_queue.earliest_slot(t)
        if slot > t:
            self.stats.stall_queue_full += int(round(slot - t))
            if self.tracer.enabled:
                self.tracer.stall(
                    "queue_full", self.track, t, slot - t, queue="store-queue"
                )
        cont, done = self._memory_access(op, True, slot)
        # A store completes (leaves the ROB) when its store-queue entry
        # retires to the cache — behind any elder CLWBs parked in the
        # store queue (the NO-PERSIST-QUEUE head-of-line effect).
        retire = self.store_queue.push(slot, done)
        if self.domain.durability.enabled:
            self.domain.durability.note_store(op, retire)
        line = line_of(op.addr)
        prev = self._line_store_retire.get(line, 0.0)
        self._line_store_retire[line] = max(prev, retire)
        self.stats.stores += 1
        return slot + self.HIT_COST, retire

    def _charge_rob_stall(self, t: float, slot: float) -> None:
        """Book a dispatch at ``t`` held until the ROB slot at ``slot``."""
        if slot > t:
            self.stats.stall_queue_full += int(round(slot - t))
            if self.tracer.enabled:
                self.tracer.stall("queue_full", self.track, t, slot - t, queue="rob")

    def blocked_state(self, lock_id: int) -> str:
        """One-line description of where this core is stuck, for
        :class:`~repro.sim.machine.SimulationDeadlock` reports."""
        op = self.ops[self.pc] if self.pc < len(self.ops) else None
        holder = self.locks.next_holder(lock_id)
        expect = f"core {holder}" if holder is not None else "nobody (order exhausted)"
        return (
            f"core {self.tid}: op {self.pc}/{len(self.ops)} {op!r}, "
            f"local clock {self.clock:.1f}, waiting on lock {lock_id} "
            f"(next holder by recorded order: {expect})"
        )

    # -- stepping ------------------------------------------------------------

    def step(self) -> Optional[Blocked]:
        """Execute the next micro-op; returns Blocked if a lock isn't ours yet."""
        op = self.ops[self.pc]
        tracer = self.tracer
        dispatched = self.clock
        t = dispatched + self.DISPATCH_COST
        kind = op.kind

        # Reorder-buffer pressure: dispatch stalls while the ROB is full of
        # ops that have not completed (in-order retirement).  The stall is
        # charged when the op dispatches: a lock acquire that parks
        # retries later from the same clock.
        rob_wait = t
        t = max(t, self.rob.earliest_slot(t))
        if kind is not OpKind.LOCK_ACQ:
            self._charge_rob_stall(rob_wait, t)
        rob_done = t

        if kind is OpKind.COMPUTE:
            t += op.cycles
            rob_done = t
            self.stats.compute_cycles += op.cycles
        elif kind is OpKind.STORE:
            t, rob_done = self._do_store(op, t)
        elif kind is OpKind.LOAD:
            t, rob_done = self._memory_access(op, False, t)
            self.stats.loads += 1
        elif kind is OpKind.CLWB:
            line = line_of(op.addr)
            # The flush may not issue before the flushed store is in L1.
            t = max(t, self._line_store_retire.get(line, 0.0))
            t, rob_done = self.domain.clwb(t, line)
            self.stats.clwbs += 1
        elif kind is OpKind.LOCK_ACQ:
            grant = self.locks.try_acquire(op.lock_id, self.tid, t)
            if grant is None:
                # Not our turn yet: stay at this op, let the machine park us.
                if tracer.enabled:
                    tracer.instant("lock.park", self.track, t, lock=op.lock_id)
                return Blocked(op.lock_id)
            self._charge_rob_stall(rob_wait, t)
            self.stats.stall_lock += int(round(grant - t))
            if tracer.enabled:
                if grant > t:
                    tracer.stall("lock", self.track, t, grant - t, lock=op.lock_id)
                tracer.instant(
                    "lock.acquire", self.track, max(t, grant), lock=op.lock_id
                )
            t = max(t, grant) + self.LOCK_COST
            rob_done = t
        elif kind is OpKind.LOCK_REL:
            t += self.HIT_COST
            rob_done = t
            self.locks.release(op.lock_id, t)
            if tracer.enabled:
                tracer.instant("lock.release", self.track, t, lock=op.lock_id)
        else:  # all fence kinds
            t = self.domain.fence(op, t)
            rob_done = t
            self.stats.fences += 1

        self.rob.push(min(t, rob_done), rob_done)
        if tracer.enabled:
            tracer.span(
                f"op:{kind.name}", self.track, dispatched, t - dispatched, pc=self.pc
            )
        self.clock = t
        self.stats.ops += 1
        self.pc += 1
        if self.pc >= len(self.ops):
            # End of trace: everything must become durable before the
            # benchmark is considered finished (same rule for all designs).
            self.clock = self.domain.drain_all(self.clock)
            self.finished = True
            self.stats.cycles = int(round(self.clock))
        return None
