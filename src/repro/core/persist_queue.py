"""Persist queue — StrandWeaver's CPU-side tracking structure (Section IV).

The persist queue sits beside the store queue and records in-flight
CLWBs, persist barriers, NewStrand and JoinStrand operations.  Entries
retire in order once completed; a full queue back-pressures dispatch.
Its key effect relative to NO-PERSIST-QUEUE is that long-latency CLWBs no
longer occupy store-queue slots, so younger stores are not blocked behind
them (Section VI-B, "Persist concurrency due to strand buffers").
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.tracer import Tracer


class PersistQueue:
    """Bounded queue of persist operations with completion-based reclaim.

    Unlike the store queue, entries free their slot as soon as their
    ``Completed`` field is set (the queue supports associative lookup, so
    reclamation need not be FIFO) — CLWBs on fast strands do not hold
    slots hostage for slow strands.
    """

    #: instrumentation is opt-in (see :meth:`instrument`).
    _tracer: Optional[Tracer] = None

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("persist queue needs at least one entry")
        self.capacity = capacity
        self._completions: List[float] = []
        self._latest = 0.0

    def instrument(self, tracer: Tracer, track: str) -> None:
        """Attach a tracer: each push emits a ``pq.push`` marker, a
        ``pq.entry`` span until retirement, and a ``pq.occupancy``
        counter sample."""
        self._tracer = tracer
        self._track = track

    def earliest_slot(self, t: float) -> float:
        """When a new entry can be allocated (full queue waits on a
        completion)."""
        self._completions = [x for x in self._completions if x > t]
        if len(self._completions) < self.capacity:
            return t
        ordered = sorted(self._completions)
        return ordered[len(ordered) - self.capacity]

    def push(self, t: float, completion: float) -> float:
        """Record an entry allocated at ``t`` completing at ``completion``."""
        completion = max(completion, t)
        self._completions.append(completion)
        self._latest = max(self._latest, completion)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("pq.push", self._track, t)
            tracer.span("pq.entry", self._track, t, completion - t)
            tracer.counter("pq.occupancy", self._track, t, len(self._completions))
        return completion

    def drain_time(self, t: float) -> float:
        """Time when everything ever queued has completed."""
        return max(t, self._latest)
