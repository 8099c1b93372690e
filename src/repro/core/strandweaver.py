"""StrandWeaver persist domains: the paper's proposal and its ablation.

:class:`StrandWeaverDomain` implements the full design of Section IV —
persist queue + strand buffer unit.  :class:`NoPersistQueueDomain` is the
intermediate design evaluated in Figure 7: the strand buffer unit is kept
but CLWBs travel through the *store queue*, so younger stores suffer
head-of-line blocking behind long-latency CLWBs.

Semantics of the three primitives as dispatch-time rules:

* ``PERSIST_BARRIER`` — records a dependency in the ongoing strand buffer
  and gates younger *stores* until all older CLWBs have **issued** to the
  strand buffer unit (not completed — the crucial relaxation over SFENCE).
* ``NEW_STRAND`` — rotates the ongoing strand buffer (round-robin), so
  subsequent CLWBs drain concurrently with prior strands.
* ``JOIN_STRAND`` — stalls dispatch until every prior CLWB completed and
  the store queue drained.
"""

from __future__ import annotations

from repro.core.ops import Op, OpKind
from repro.core.persist_queue import PersistQueue
from repro.core.strand_buffer import StrandBufferUnit
from repro.persistency.base import PersistDomain


class StrandWeaverDomain(PersistDomain):
    """Full StrandWeaver: persist queue + strand buffer unit."""

    name = "strandweaver"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        strand_cfg = self.cfg.strand
        self.sbu = StrandBufferUnit(
            strand_cfg.n_strand_buffers,
            strand_cfg.strand_buffer_entries,
            self.pm,
            self._flush_line,
            tracer=self.tracer,
            track=self.track,
            durability=self.durability,
        )
        self.pq = PersistQueue(strand_cfg.persist_queue_entries)
        self.pq.instrument(self.tracer, self.track + "/pq")
        #: latest issue-to-SBU time of any CLWB dispatched so far; persist
        #: barriers snapshot this into the store gate.
        self._max_issue = 0.0
        #: stores may not issue before this time (set by persist barriers).
        self._store_gate = 0.0
        # Register the snoop-drain hook (inter-thread SPA, Section IV).
        self.hierarchy.drain_hooks[self.tid] = self._snoop_drain_hook

    # -- dispatch hooks ----------------------------------------------------

    def store_gate(self, t: float) -> float:
        gated = max(t, self._store_gate)
        self._charge("stall_fence", gated - t, start=t)
        return gated

    def clwb(self, t: float, line: int) -> float:
        slot = self.pq.earliest_slot(t)
        self._charge("stall_queue_full", slot - t, start=t)
        issue, retire = self.sbu.clwb(slot, line)
        self.pq.push(slot, retire)
        self._max_issue = max(self._max_issue, issue)
        self.stats.pm_writes += 1
        if self.tracer.enabled:
            self.tracer.span("clwb", self.clwb_track, slot, retire - slot, line=line)
        # The persist queue tracks the CLWB; its ROB slot frees at once.
        return slot + 1, slot + 1

    def fence(self, op: Op, t: float) -> float:
        if op.kind is OpKind.PERSIST_BARRIER:
            self.sbu.persist_barrier(t)
            self.pq.push(t, t + 1)
            # Younger stores wait until older CLWBs *issued* (not completed).
            self._store_gate = max(self._store_gate, self._max_issue)
            return t + 1
        if op.kind is OpKind.NEW_STRAND:
            done = self.sbu.new_strand(t)
            self.pq.push(t, done)
            # A new strand carries no ordering from previous strands.
            return done
        if op.kind is OpKind.JOIN_STRAND:
            return self.drain_all(t)
        raise ValueError(f"strandweaver traces use PB/NS/JS, got {op!r}")

    def drain_all(self, t: float) -> float:
        done = max(t, self.pq.drain_time(t), self.store_queue.drain_time(t))
        self._charge("stall_drain", done - t, start=t)
        self._store_gate = 0.0
        return done

    # -- coherence ----------------------------------------------------------

    def _snoop_drain_hook(self, owner_tid: int, line: int, t: float) -> float:
        """Stall a read-exclusive reply until the owner's strand buffers
        drain past the tail index recorded for this line's pending CLWBs
        (Section IV, "Enabling inter-thread persist order")."""
        return self.sbu.line_drain_time(line, t)


class NoPersistQueueDomain(StrandWeaverDomain):
    """Ablation: strand buffers present, CLWBs live in the store queue."""

    name = "no-persist-queue"

    def clwb(self, t: float, line: int):
        slot = self.store_queue.earliest_slot(t)
        self._charge("stall_queue_full", slot - t, start=t)
        issue, retire = self.sbu.clwb(slot, line)
        # The CLWB occupies a store-queue slot until it *issues* into a
        # strand buffer; a full strand buffer delays the issue, and every
        # younger store in the queue retires behind it — the head-of-line
        # blocking the persist queue eliminates (Section VI-B).
        sq_retire = self.store_queue.push(slot, issue)
        self._max_issue = max(self._max_issue, issue)
        self.stats.pm_writes += 1
        if self.tracer.enabled:
            self.tracer.span("clwb", self.clwb_track, slot, retire - slot, line=line)
        return slot + 1, sq_retire

    def fence(self, op: Op, t: float) -> float:
        if op.kind is OpKind.PERSIST_BARRIER:
            self.sbu.persist_barrier(t)
            self._store_gate = max(self._store_gate, self._max_issue)
            return t + 1
        if op.kind is OpKind.NEW_STRAND:
            return self.sbu.new_strand(t)
        if op.kind is OpKind.JOIN_STRAND:
            return self.drain_all(t)
        raise ValueError(f"no-persist-queue traces use PB/NS/JS, got {op!r}")

    def drain_all(self, t: float) -> float:
        done = max(t, self.sbu.drain_time(t), self.store_queue.drain_time(t))
        self._charge("stall_drain", done - t, start=t)
        self._store_gate = 0.0
        return done
