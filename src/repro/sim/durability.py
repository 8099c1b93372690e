"""Machine-state durability tracking for crash injection (repro.chaos).

The timing simulator models *when* each persist reaches the ADR-protected
PM controller, but until this module it threw that information away once
the stall accounting was done.  :class:`DurabilityTracker` records, for
every persistent store the machine replays,

* when the store retired to the cache (it is volatile from then on), and
* when each cache line it touches was accepted by the PM controller —
  via an explicit CLWB (tracked by the design's persist hardware: fill
  buffers, HOPS persist buffer, StrandWeaver strand buffers) or via a
  dirty write-back from the cache hierarchy.

A crash at cycle ``T`` then has a well-defined **durable frontier**: the
stores whose every touched line was accepted at or before ``T``.  The
chaos harness (:mod:`repro.chaos`) materialises that frontier into a
:class:`~repro.pmem.space.PersistentMemory` crash image and validates
recovery against the workload's invariants.

Tracking is opt-in: :data:`NULL_DURABILITY` is installed by default and
makes every hook a no-op, so cycle counts and allocation behaviour with
fault injection disabled are bit-identical to a tracker-free build.

This tracker serves the reference engine.  A crash run on the native
core (any fault plan, media faults included, of a program whose STOREs
each lie inside one cache line) records the same hooks in C, in the same
order, and :mod:`repro.sim.cnative` builds the same records from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.ops import Op, lines_of

INF = float("inf")

#: durability sources, in decreasing order of hardware explicitness.
SOURCE_CLWB = "clwb"
SOURCE_WRITEBACK = "writeback"


class StoreRecord:
    """Durability lifecycle of one persistent store.

    ``durable`` is the cycle at which the PM controller had accepted every
    cache line the store touches with the store's bytes in it (INF until
    then, and for a store that touches no line); ``source`` is
    ``"writeback"`` once any of those lines owes its acceptance to a cache
    eviction rather than an explicit persist operation, else ``"clwb"``.
    """

    __slots__ = ("op", "retire", "durable", "source")

    def __init__(
        self, op: Op, retire: float, durable: float = INF,
        source: str = SOURCE_CLWB,
    ) -> None:
        self.op = op
        self.retire = retire
        self.durable = durable
        self.source = source


class DurabilityTracker:
    """Records persist events so any crash cycle can be materialised.

    The machine owns one tracker per run; the per-core persist domains
    and the cache hierarchy feed it.  All methods are timestamped with
    simulated cycles, so recording is insensitive to the host-side order
    of calls beyond what the simulator itself guarantees.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[StoreRecord] = []
        #: line -> records with that line still uncovered, FIFO by retire.
        self._pending: Dict[int, List[StoreRecord]] = {}
        #: store touching several lines -> (how many, the acceptance
        #: times of those covered so far).
        self._partial: Dict[StoreRecord, Tuple[int, List[float]]] = {}

    # -- event hooks -------------------------------------------------------

    def note_store(self, op: Op, retire: float) -> None:
        """A persistent STORE retired to the cache at ``retire``."""
        lines = lines_of(op.addr, op.size)
        rec = StoreRecord(op, retire)
        self.records.append(rec)
        if len(lines) > 1:
            self._partial[rec] = (len(lines), [])
        for line in lines:
            self._pending.setdefault(line, []).append(rec)

    def line_persisted(
        self, line: int, content_time: float, durable_time: float,
        source: str = SOURCE_CLWB,
    ) -> None:
        """A write of ``line`` was accepted by the PM controller.

        ``content_time`` is when the line's bytes were read out of the
        cache (the flush or eviction point): only stores retired by then
        are part of the written-back content.  ``durable_time`` is the
        controller acceptance — the persist point under ADR.
        """
        pending = self._pending.get(line)
        if not pending:
            return
        remaining: List[StoreRecord] = []
        for rec in pending:
            if rec.retire <= content_time:
                if source == SOURCE_WRITEBACK:
                    rec.source = SOURCE_WRITEBACK
                partial = self._partial.get(rec)
                if partial is None:
                    rec.durable = durable_time
                    continue
                n_lines, covered = partial
                covered.append(durable_time)
                if len(covered) == n_lines:
                    rec.durable = max(covered)
                    del self._partial[rec]
            else:
                remaining.append(rec)
        if remaining:
            self._pending[line] = remaining
        else:
            del self._pending[line]

    # -- queries -----------------------------------------------------------

    def frontier(self, t: float) -> List[StoreRecord]:
        """Stores durable at or before cycle ``t``, in visibility order."""
        out = [rec for rec in self.records if rec.durable <= t]
        out.sort(key=lambda rec: rec.op.gseq)
        return out

    def in_flight(self, t: float) -> List[StoreRecord]:
        """Stores retired by ``t`` but not yet durable: the cached-dirty /
        in-flight-persist window a crash at ``t`` wipes out (unless a
        write-back fault resurrects it)."""
        out = [rec for rec in self.records if rec.retire <= t < rec.durable]
        out.sort(key=lambda rec: rec.op.gseq)
        return out


class _NullDurability:
    """Do-nothing tracker installed when no fault plan is active."""

    enabled = False

    def note_store(self, op: Op, retire: float) -> None:
        pass

    def line_persisted(
        self, line: int, content_time: float, durable_time: float,
        source: str = SOURCE_CLWB,
    ) -> None:
        pass


NULL_DURABILITY = _NullDurability()


@dataclass(frozen=True)
class CrashTrigger:
    """When a :class:`~repro.chaos.plan.FaultPlan` fires.

    ``kind`` is ``"cycle"`` (crash once no core can dispatch before cycle
    ``at``) or ``"ops"`` (crash after the machine dispatched ``at``
    micro-ops in total, at the dispatching core's local clock).
    """

    kind: str
    at: float

    def __post_init__(self) -> None:
        if self.kind not in ("cycle", "ops"):
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"trigger point must be >= 0, got {self.at}")

    def describe(self) -> str:
        if self.kind == "cycle":
            return f"cycle={self.at:g}"
        return f"op-count={int(self.at)}"


@dataclass
class CrashState:
    """What a crash leaves: the cycle power failed at, the stores durable
    by then and the retired stores still volatile, both in gseq order."""

    cycle: float
    durable: List[StoreRecord]
    in_flight: List[StoreRecord]
