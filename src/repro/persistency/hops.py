"""HOPS design: delegated epoch persistency with ofence/dfence ([19]).

HOPS decouples ordering from durability.  A lightweight **ofence** closes
the current epoch without stalling the core: ordering is delegated to a
per-core persist buffer that drains epochs to PM strictly in order.  A
**dfence** provides durability — it stalls the core until the persist
buffer is empty.  The language runtimes emit one ofence per log→update
pair and one dfence per failure-atomic region commit.

The core therefore stalls only on (a) a full persist buffer and
(b) dfences — far less often than under Intel x86 — but epoch-ordered
draining still serialises independent log→update pairs, which is exactly
the concurrency StrandWeaver recovers (Section VI-B).
"""

from __future__ import annotations

from typing import List

from repro.core.ops import Op, OpKind
from repro.persistency.base import PersistDomain


class HopsDomain(PersistDomain):
    """ofence/dfence semantics over a per-core persist buffer."""

    name = "hops"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._capacity = self.cfg.hops.persist_buffer_entries
        #: completion times of buffered CLWBs, oldest first.
        self._buffered: List[float] = []
        #: completion horizon of the previous epoch: CLWBs of the current
        #: epoch may not issue to PM before this time.
        self._epoch_ready = 0.0
        #: completions within the currently open epoch.
        self._open_epoch: List[float] = []

    def _free_slot_time(self, t: float) -> float:
        self._buffered = [x for x in self._buffered if x > t]
        if len(self._buffered) < self._capacity:
            return t
        ordered = sorted(self._buffered)
        return ordered[len(ordered) - self._capacity]

    def clwb(self, t: float, line: int) -> float:
        slot = self._free_slot_time(t)
        self._charge("stall_queue_full", slot - t, start=t)
        depart = self._flush_line(slot, line)
        # Delegated ordering: the flush may not reach the controller until
        # the previous epoch has fully persisted.
        ticket = self.pm.write(max(depart, self._epoch_ready), line)
        self._buffered.append(ticket.acked)
        self._open_epoch.append(ticket.acked)
        self.durability.line_persisted(line, slot, ticket.accepted)
        self.stats.pm_writes += 1
        if self.tracer.enabled:
            self.tracer.span("clwb", self.clwb_track, slot, ticket.acked - slot, line=line)
        # Ordering is delegated to the persist buffer; the CLWB retires.
        return slot + 1, slot + 1

    def fence(self, op: Op, t: float) -> float:
        if op.kind is OpKind.OFENCE:
            # Close the epoch inside the persist buffer; no core stall.
            if self._open_epoch:
                self._epoch_ready = max(self._epoch_ready, max(self._open_epoch))
                self._open_epoch = []
            if self.tracer.enabled:
                self.tracer.instant("ofence", self.track, t)
            return t + 1
        if op.kind is OpKind.DFENCE:
            return self.drain_all(t)
        raise ValueError(f"hops traces only contain OFENCE/DFENCE, got {op!r}")

    def drain_all(self, t: float) -> float:
        done = max([t] + self._buffered)
        self._charge("stall_drain", done - t, start=t)
        self._buffered = []
        self._open_epoch = []
        self._epoch_ready = max(self._epoch_ready, done)
        return done
