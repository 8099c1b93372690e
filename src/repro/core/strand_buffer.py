"""Strand buffer unit — the drain engine of StrandWeaver (Section IV).

The unit holds an array of strand buffers beside the L1.  Each buffer
manages persist order *within* one strand: persist barriers create
dependencies so that younger CLWBs wait for the completion of all older
CLWBs in the same buffer, while CLWBs in different buffers drain to the
PM controller fully concurrently.  ``NewStrand`` rotates the ongoing
buffer index round-robin; entries retire from each buffer in order.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.durability import NULL_DURABILITY
from repro.sim.memory import PMController

#: signature of the cache-flush front half: (time, line) -> departure time.
FlushFn = Callable[[float, int], float]


class StrandBuffer:
    """One strand buffer: bounded, in-order-retiring CLWB chain."""

    def __init__(
        self,
        capacity: int,
        pm: PMController,
        flush: FlushFn,
        tracer: Tracer = NULL_TRACER,
        track: str = "sbu",
        durability=NULL_DURABILITY,
    ) -> None:
        if capacity <= 0:
            raise ValueError("strand buffer needs at least one entry")
        self.capacity = capacity
        self._pm = pm
        self._flush = flush
        self._tracer = tracer
        self._track = track
        self._durability = durability
        #: retire times of live entries, oldest first (monotone).
        self._retire_times: List[float] = []
        self._last_retire = 0.0
        #: dependency horizon installed by the last persist barrier: CLWBs
        #: appended after the barrier may not issue to PM before this time.
        self._dep_ready = 0.0
        #: line -> retire time of its youngest buffered CLWB (for the
        #: snoop-buffer tail-index stall of Section IV).
        self._line_retire = {}

    def _slot_time(self, t: float) -> float:
        """When a new entry can be appended (full buffer waits on retire)."""
        self._retire_times = [x for x in self._retire_times if x > t]
        if len(self._retire_times) < self.capacity:
            return t
        return self._retire_times[len(self._retire_times) - self.capacity]

    def insert_clwb(self, t: float, line: int) -> Tuple[float, float]:
        """Append a CLWB arriving at ``t``.

        Returns ``(issue_time, retire_time)``: when the entry entered the
        buffer (the point a persist barrier's store gate cares about) and
        when it completed and retired in order.
        """
        issue = self._slot_time(t)
        depart = self._flush(issue, line)
        ticket = self._pm.write(max(depart, self._dep_ready), line)
        self._durability.line_persisted(line, issue, ticket.accepted)
        retire = max(ticket.acked, self._last_retire)
        self._retire_times.append(retire)
        self._last_retire = retire
        self._line_retire[line] = max(self._line_retire.get(line, 0.0), retire)
        tracer = self._tracer
        if tracer.enabled:
            if issue > t:
                tracer.span("sbu.alloc-wait", self._track, t, issue - t, line=line)
            tracer.span("sbu.entry", self._track, issue, retire - issue, line=line)
        return issue, retire

    def insert_barrier(self, t: float) -> float:
        """Append a persist barrier; returns its completion time.

        The barrier completes once every older CLWB in this buffer has
        retired, and from then on gates younger CLWBs' PM issue.
        """
        done = max(t, self._last_retire)
        self._dep_ready = max(self._dep_ready, done)
        return done

    def drain_time(self, t: float) -> float:
        """Time when everything currently buffered has persisted."""
        return max(t, self._last_retire)

    def line_drain_time(self, line: int, t: float) -> float:
        """Time when this line's pending CLWBs (if any) have persisted."""
        retire = self._line_retire.get(line)
        if retire is None:
            return t
        if retire <= t:
            del self._line_retire[line]
            return t
        return retire


class StrandBufferUnit:
    """Round-robin array of strand buffers (one unit per core)."""

    def __init__(
        self,
        n_buffers: int,
        entries_per_buffer: int,
        pm: PMController,
        flush: FlushFn,
        tracer: Tracer = NULL_TRACER,
        track: str = "sbu",
        durability=NULL_DURABILITY,
    ) -> None:
        if n_buffers <= 0:
            raise ValueError("need at least one strand buffer")
        self._tracer = tracer
        self._track = track
        self.buffers = [
            StrandBuffer(entries_per_buffer, pm, flush, tracer, f"{track}/sbu{i}",
                         durability=durability)
            for i in range(n_buffers)
        ]
        self.ongoing = 0

    def clwb(self, t: float, line: int) -> Tuple[float, float]:
        """Route a CLWB to the ongoing buffer; returns (issue, retire)."""
        return self.buffers[self.ongoing].insert_clwb(t, line)

    def persist_barrier(self, t: float) -> float:
        """Apply a persist barrier to the ongoing buffer."""
        done = self.buffers[self.ongoing].insert_barrier(t)
        if self._tracer.enabled:
            self._tracer.instant(
                "sbu.barrier", f"{self._track}/sbu{self.ongoing}", t, strand=self.ongoing
            )
        return done

    def new_strand(self, t: float) -> float:
        """Rotate the ongoing buffer index (round-robin assignment)."""
        self.ongoing = (self.ongoing + 1) % len(self.buffers)
        if self._tracer.enabled:
            self._tracer.instant(
                "sbu.rotate", f"{self._track}/sbu{self.ongoing}", t, strand=self.ongoing
            )
        return t + 1

    def drain_time(self, t: float) -> float:
        """Time when all buffers have fully drained to the controller."""
        return max(buf.drain_time(t) for buf in self.buffers)

    def line_drain_time(self, line: int, t: float) -> float:
        """Snoop stall: wait only for pending CLWBs of ``line`` — the
        per-strand-buffer tail recorded in the snoop buffer (Section IV)."""
        return max(buf.line_drain_time(line, t) for buf in self.buffers)
