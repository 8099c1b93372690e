"""NON-ATOMIC design: the unordered upper bound of Figure 7.

The runtime emits the same stores and CLWBs but no ordering primitives
between logs and updates, so this design shows the best performance
relaxed persist ordering could possibly unlock.  It does **not** provide
correct recovery — the crash-consistency property tests in
``tests/lang/test_crash_consistency.py`` demonstrate that its traces admit
crash states that break failure atomicity.
"""

from __future__ import annotations

from repro.core.ops import Op
from repro.persistency.base import OutstandingSet, PersistDomain


class NonAtomicDomain(PersistDomain):
    """CLWBs drain fully concurrently; fences are no-ops or final drains."""

    name = "non-atomic"

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
        return slot + 1, slot + 1

    def fence(self, op: Op, t: float) -> float:
        # The non-atomic runtime emits no fences; tolerate stray ones as
        # no-ops so shared traces can be replayed for comparison.
        return t

    def drain_all(self, t: float) -> float:
        done = max(t, self._outstanding.latest())
        self._charge("stall_drain", done - t, start=t)
        self._outstanding.clear()
        return done
