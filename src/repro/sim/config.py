"""Machine configuration (Table I of the paper).

All latencies are stored in **CPU cycles**.  The paper's machine runs at
2 GHz (:data:`CLOCK_GHZ`), so one cycle is 0.5 ns; Table I's nanosecond
figures are converted accordingly:

==========================  ============  ============
Parameter                   Paper (ns)    Cycles @2GHz
==========================  ============  ============
L1-D hit                    2             4
L2 hit                      16            32
PM read                     346           692
PM write to controller      96            192
PM write to media           500           1000
==========================  ============  ============

The persist-ordering hardware sizes follow Section VI-A: a 16-entry persist
queue and a strand buffer unit with four 4-entry strand buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

#: the paper's core clock, which converts Table I's nanoseconds to cycles.
CLOCK_GHZ = 2.0


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core queue capacities (Table I)."""

    rob_entries: int = 224
    store_queue_entries: int = 64
    #: fraction of a PM/L2 load-miss latency hidden by out-of-order
    #: execution (the ROB overlaps independent work with the miss).
    load_overlap: float = 0.75


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: geometry and hit latency."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class PMConfig:
    """Persistent-memory controller and media timing (Table I, [58])."""

    read_latency: int = 692
    #: CLWB acknowledgement latency: time for a write to reach the
    #: ADR-protected controller, after which it is considered persistent.
    write_to_controller: int = 192
    #: media write time, drained from the controller's write queue.
    write_to_media: int = 1000
    write_queue_entries: int = 64
    #: concurrent media writes the device sustains (bank parallelism);
    #: Optane sustains roughly one 64B line per ~30ns of write bandwidth,
    #: i.e. ~16 lines in flight at the 500ns media latency.
    media_banks: int = 16
    #: minimum controller acceptance interval between writes (cycles);
    #: models the controller's front-end bandwidth.
    accept_interval: int = 8
    #: combine writes to a line still waiting in the write queue (the
    #: Optane write-pending-queue behaviour); disable for ablation.
    coalesce_writes: bool = True
    # -- media-resilience policy (only exercised when a fault model is
    # attached; see repro.faults.MediaFaultModel) --------------------------
    #: media write attempts before the controller gives up retrying a
    #: transiently failing line and falls back to a spare-line remap.
    max_write_retries: int = 4
    #: backoff before the first retry (cycles); doubles per attempt up to
    #: ``retry_backoff_mult ** (attempt - 1)`` times the base.
    retry_backoff_base: int = 128
    retry_backoff_mult: float = 2.0
    #: extra controller latency to redirect a line into the spare region
    #: (metadata update + spare write setup).
    remap_latency: int = 1500
    #: spare lines available for remapping before the device is worn out.
    spare_lines: int = 64
    #: added read latency when the ECC engine corrects a line error.
    ecc_penalty: int = 96


@dataclass(frozen=True)
class StrandConfig:
    """StrandWeaver hardware sizing (Section VI-A, Figure 9 sweeps these)."""

    persist_queue_entries: int = 16
    n_strand_buffers: int = 4
    strand_buffer_entries: int = 4


@dataclass(frozen=True)
class HopsConfig:
    """HOPS per-core persist buffer sizing (per [19])."""

    persist_buffer_entries: int = 16


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine: cores, caches, PM, and persistency hardware."""

    n_cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, assoc=2, line_bytes=64, hit_latency=4
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=28 * 1024 * 1024, assoc=16, line_bytes=64, hit_latency=32
        )
    )
    pm: PMConfig = field(default_factory=PMConfig)
    strand: StrandConfig = field(default_factory=StrandConfig)
    hops: HopsConfig = field(default_factory=HopsConfig)
    #: cross-core dirty-line transfer latency (snoop + data forward).
    coherence_transfer: int = 40

    def with_strand(self, n_buffers: int, entries: int) -> "MachineConfig":
        """Return a copy re-sized for a Figure-9 sensitivity point."""
        return replace(
            self,
            strand=replace(
                self.strand,
                n_strand_buffers=n_buffers,
                strand_buffer_entries=entries,
            ),
        )

    def table1(self) -> Dict[str, str]:
        """Render the configuration in the shape of Table I.

        The clock, the dispatch and commit widths, the load queue, the
        MSHRs and the PM read queue are the paper's figures: no engine
        models them, so they are not parameters.
        """
        ns = 1.0 / CLOCK_GHZ
        return {
            "Core": (
                f"{self.n_cores}-cores, {CLOCK_GHZ:g}GHz OoO, 6-wide dispatch, "
                f"8-wide commit, {self.core.rob_entries}-entry ROB, "
                f"72/{self.core.store_queue_entries}-entry LQ/SQ"
            ),
            "D-Cache": (
                f"{self.l1d.size_bytes // 1024}kB, {self.l1d.assoc}-way, "
                f"{self.l1d.line_bytes}B, {self.l1d.hit_latency * ns:g}ns hit, 6 MSHRs"
            ),
            "L2-Cache": (
                f"{self.l2.size_bytes // (1024 * 1024)}MB, {self.l2.assoc}-way, "
                f"{self.l2.line_bytes}B, {self.l2.hit_latency * ns:g}ns hit, 16 MSHRs"
            ),
            "PM controller": f"{self.pm.write_queue_entries}/32-entry write/read queue",
            "PM": (
                f"{self.pm.read_latency * ns:g}ns read, "
                f"{self.pm.write_to_controller * ns:g}ns write to controller, "
                f"{self.pm.write_to_media * ns:g}ns write to PM"
            ),
            "StrandWeaver": (
                f"{self.strand.persist_queue_entries}-entry persist queue, "
                f"{self.strand.n_strand_buffers} strand buffers x "
                f"{self.strand.strand_buffer_entries} entries"
            ),
        }


#: The default machine of Table I.
TABLE_I = MachineConfig()
