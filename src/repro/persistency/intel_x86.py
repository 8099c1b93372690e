"""Intel x86 persistency design: CLWB + SFENCE epoch persistency.

Section II-B: SFENCE orders subsequent CLWBs *and stores* after all prior
CLWBs **complete** (acknowledged by the ADR controller).  The fence is a
bidirectional dispatch stall — this is the strict baseline of Figure 7.
"""

from __future__ import annotations

from repro.core.ops import Op, OpKind
from repro.persistency.base import OutstandingSet, PersistDomain


class IntelX86Domain(PersistDomain):
    """CLWB/SFENCE semantics of Intel's ISA persistency model."""

    name = "intel-x86"

    #: CLWBs in flight are bounded by write-combining/fill-buffer slots.
    CLWB_WINDOW = 16

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._outstanding = OutstandingSet(self.CLWB_WINDOW)

    def clwb(self, t: float, line: int) -> float:
        slot = self._outstanding.wait_for_slot(t)
        self._charge("stall_queue_full", slot - t, start=t)
        depart = self._flush_line(slot, line)
        ticket = self.pm.write(depart, line)
        self._outstanding.add(ticket.acked)
        self.durability.line_persisted(line, slot, ticket.accepted)
        self.stats.pm_writes += 1
        if self.tracer.enabled:
            self.tracer.span("clwb", self.clwb_track, slot, ticket.acked - slot, line=line)
        # CLWB retires into a fill buffer; it does not hold its ROB slot.
        return slot + 1, slot + 1

    def fence(self, op: Op, t: float) -> float:
        if op.kind is not OpKind.SFENCE:
            raise ValueError(f"intel-x86 traces only contain SFENCE, got {op!r}")
        # SFENCE: dispatch blocks until every prior CLWB has completed and
        # the store queue has drained (stores may not become visible, and
        # hence may not write back, before prior CLWBs persist).
        done = max(t, self._outstanding.latest(), self.store_queue.drain_time(t))
        self._charge("stall_fence", done - t, start=t)
        self._outstanding.clear()
        return done

    def drain_all(self, t: float) -> float:
        done = max(t, self._outstanding.latest())
        self._charge("stall_drain", done - t, start=t)
        self._outstanding.clear()
        return done
