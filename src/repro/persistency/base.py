"""Interface between the core model and an ISA-level persistency design.

Each hardware design in the evaluation (Intel x86, HOPS, StrandWeaver,
NO-PERSIST-QUEUE, NON-ATOMIC) supplies one :class:`PersistDomain` per
core.  The core's issue engine (:mod:`repro.sim.cpu`) delegates the
persist-relevant micro-ops to the domain, which decides

* when the op lets dispatch proceed (fences may stall),
* how a CLWB travels to the PM controller and when it acknowledges, and
* which stall bucket the wait is charged to (Figure 8's taxonomy).

Time flows forward only: every method takes the core's current local time
``t`` and returns the time dispatch may continue.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.core.ops import Op
from repro.obs.tracer import NULL_TRACER, Tracer, core_track
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MachineConfig
from repro.sim.durability import NULL_DURABILITY
from repro.sim.engine import InOrderQueue
from repro.sim.memory import PMController
from repro.sim.stats import CoreStats


class PersistDomain(ABC):
    """Per-core persist-ordering hardware of one design."""

    #: human-readable design name (used in reports).
    name = "abstract"

    def __init__(
        self,
        tid: int,
        cfg: MachineConfig,
        hierarchy: CacheHierarchy,
        pm: PMController,
        stats: CoreStats,
        store_queue: InOrderQueue,
        tracer: Tracer = NULL_TRACER,
        durability=NULL_DURABILITY,
    ) -> None:
        self.tid = tid
        self.cfg = cfg
        self.hierarchy = hierarchy
        self.pm = pm
        self.stats = stats
        self.store_queue = store_queue
        self.tracer = tracer
        #: durability tracker fed by this core's persist hardware; the
        #: no-op :data:`~repro.sim.durability.NULL_DURABILITY` unless the
        #: machine runs under a fault plan (see repro.chaos).
        self.durability = durability
        self.track = core_track(tid)
        #: CLWB lifetime spans overlap (many in flight), so they get a
        #: sub-track of the core's group rather than the dispatch row.
        self.clwb_track = self.track + "/clwb"

    # -- hooks the issue engine calls -------------------------------------

    def store_gate(self, t: float) -> float:
        """Earliest time a PM store may issue (persist-order constraint)."""
        return t

    @abstractmethod
    def clwb(self, t: float, line: int):
        """Handle a CLWB dispatched at ``t``.

        Returns ``(next_dispatch_time, rob_completion_time)``.  The second
        component is when the CLWB leaves the reorder buffer: immediately
        for designs that track it elsewhere (Intel's fill buffers, HOPS's
        persist buffer, StrandWeaver's persist queue) but only at its
        *completion* for NO-PERSIST-QUEUE, whose CLWBs occupy store-queue
        slots until acknowledged — the head-of-line blocking of Fig. 7.
        """

    @abstractmethod
    def fence(self, op: Op, t: float) -> float:
        """Handle a fence-kind op; returns next dispatch time."""

    def drain_all(self, t: float) -> float:
        """Time when every persist issued so far has completed."""
        return t

    # -- shared helpers ----------------------------------------------------

    def _flush_line(self, t: float, line: int) -> float:
        """Clean the line out of the caches; returns controller-bound time."""
        return self.hierarchy.flush(self.tid, line, t)

    def _charge(self, bucket: str, amount: float, start: Optional[float] = None) -> None:
        """Charge ``amount`` stall cycles to ``bucket``; when a tracer is
        live and the caller supplied the stall's ``start`` time, the wait
        also becomes a ``stall:<cause>`` span on this core's track."""
        if amount <= 0:
            return
        setattr(self.stats, bucket, getattr(self.stats, bucket) + int(round(amount)))
        if self.tracer.enabled and start is not None:
            self.tracer.stall(bucket, self.track, start, amount, design=self.name)


class OutstandingSet:
    """Bounded set of in-flight CLWB completion times (per core)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._times: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def prune(self, t: float) -> None:
        self._times = [x for x in self._times if x > t]

    def earliest(self) -> float:
        return min(self._times) if self._times else 0.0

    def latest(self) -> float:
        return max(self._times) if self._times else 0.0

    def wait_for_slot(self, t: float) -> float:
        """Time when a new entry fits (completions free slots)."""
        self.prune(t)
        if len(self._times) < self.capacity:
            return t
        times = sorted(self._times)
        return times[len(times) - self.capacity]

    def add(self, completion: float) -> None:
        self._times.append(completion)

    def clear(self) -> None:
        self._times.clear()
