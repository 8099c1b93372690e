"""Simulation statistics: cycles, stall taxonomy, CLWB intensity.

The paper reports three derived quantities this module supports directly:

* **speedup** — ratio of total cycles between two designs (Figure 7);
* **persist-order stalls** — cycles the front end is blocked by a
  persist-ordering constraint (Figure 8);
* **CKC** — CLWBs issued per thousand cycles, the write-intensity metric
  of Table II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.sim.durability import CrashState


@dataclass
class CoreStats:
    """Per-core counters accumulated during trace replay."""

    cycles: int = 0
    ops: int = 0
    stores: int = 0
    loads: int = 0
    clwbs: int = 0
    fences: int = 0
    compute_cycles: int = 0
    #: dispatch-blocked cycles attributable to persist ordering, split by
    #: the blocking mechanism.
    stall_fence: int = 0
    stall_queue_full: int = 0
    stall_drain: int = 0
    stall_lock: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    pm_reads: int = 0
    pm_writes: int = 0

    @property
    def persist_stalls(self) -> int:
        """Total persist-ordering stall cycles (Figure 8 numerator)."""
        return self.stall_fence + self.stall_queue_full + self.stall_drain

    def merge(self, other: "CoreStats") -> None:
        self.cycles = max(self.cycles, other.cycles)
        for name in (
            "ops",
            "stores",
            "loads",
            "clwbs",
            "fences",
            "compute_cycles",
            "stall_fence",
            "stall_queue_full",
            "stall_drain",
            "stall_lock",
            "l1_hits",
            "l1_misses",
            "pm_reads",
            "pm_writes",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class MachineStats:
    """Aggregated result of replaying a program on one hardware design."""

    design: str = ""
    per_core: List[CoreStats] = field(default_factory=list)
    #: machine state at the injected crash point when the run was cut
    #: short by a fault plan (see repro.chaos); None on normal completion.
    crash: Optional["CrashState"] = field(default=None, repr=False, compare=False)
    #: media fault/resilience accounting when the run executed under an
    #: enabled :class:`repro.faults.MediaFaultModel`; None otherwise, so
    #: fault-free summaries are byte-identical to pre-fault-layer builds.
    faults: Optional[Dict[str, object]] = field(default=None, compare=False)

    @property
    def cycles(self) -> int:
        """Makespan: completion time of the slowest core."""
        return max((c.cycles for c in self.per_core), default=0)

    @property
    def total(self) -> CoreStats:
        out = CoreStats()
        for core in self.per_core:
            out.merge(core)
        return out

    @property
    def clwbs(self) -> int:
        return sum(c.clwbs for c in self.per_core)

    @property
    def persist_stalls(self) -> int:
        return sum(c.persist_stalls for c in self.per_core)

    @property
    def ckc(self) -> float:
        """CLWBs per thousand cycles (Table II write-intensity metric)."""
        cycles = self.cycles
        if cycles == 0:
            return 0.0
        return 1000.0 * self.clwbs / cycles

    def speedup_over(self, baseline: "MachineStats") -> float:
        """How much faster this run is than ``baseline`` (>1 == faster)."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles

    def stall_ratio_vs(self, baseline: "MachineStats") -> float:
        """Persist-stall cycles normalised to ``baseline`` (Figure 8).

        When the baseline has no persist stalls the normalisation is
        undefined; rather than leaking ``inf`` (which is not valid JSON
        and poisons ``--json`` figure output) the absolute stall count of
        this run is returned as a finite proxy — 0.0 when this run also
        has none.
        """
        if baseline.persist_stalls == 0:
            return float(self.persist_stalls)
        return self.persist_stalls / baseline.persist_stalls

    def summary(self) -> Dict[str, object]:
        """Flat scalar summary (the JSON exporter's per-run record).

        Values are ints and floats plus the ``design`` string — hence the
        ``object`` value type.
        """
        total = self.total
        out: Dict[str, object] = {
            "design": self.design,
            "cycles": self.cycles,
            "ops": total.ops,
            "stores": total.stores,
            "loads": total.loads,
            "clwbs": total.clwbs,
            "fences": total.fences,
            "persist_stalls": self.persist_stalls,
            "stall_fence": total.stall_fence,
            "stall_queue_full": total.stall_queue_full,
            "stall_drain": total.stall_drain,
            "stall_lock": total.stall_lock,
            "l1_hits": total.l1_hits,
            "l1_misses": total.l1_misses,
            "pm_reads": total.pm_reads,
            "pm_writes": total.pm_writes,
            "ckc": round(self.ckc, 2),
        }
        if self.faults is not None:
            out["faults"] = dict(self.faults)
        return out


def geomean(values: List[float]) -> float:
    """Geometric mean, the paper's "average speedup" aggregation.

    Non-positive inputs have no geometric mean; silently dropping them
    (the historical behaviour) skews figure summaries without a trace,
    so they are rejected loudly instead.  An empty list stays 0.0 for
    callers aggregating possibly-empty series.
    """
    bad = [v for v in values if v <= 0]
    if bad:
        raise ValueError(f"geomean is undefined for non-positive values: {bad}")
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
