"""Machine model: cores + caches + PM controller under one design.

``Machine.run(program)`` replays a multi-threaded micro-op program on the
selected persistency design and returns :class:`MachineStats`.  Cores are
stepped in minimum-local-clock order so shared-resource reservations are
made approximately in global time order; a core whose next op is a lock
acquisition that is not yet its turn is parked and woken by the release.
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Optional, Type

from repro.core.ops import OpKind, Program
from repro.core.strandweaver import NoPersistQueueDomain, StrandWeaverDomain
from repro.obs.tracer import NULL_TRACER, Tracer, core_track
from repro.persistency.base import PersistDomain
from repro.prof.phases import PhaseProfiler, active_profiler
from repro.persistency.hops import HopsDomain
from repro.persistency.intel_x86 import IntelX86Domain
from repro.persistency.nonatomic import NonAtomicDomain
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MachineConfig, TABLE_I
from repro.sim.cpu import CoreEngine, LockTable
from repro.sim.durability import CrashState, DurabilityTracker
from repro.sim.engine import InOrderQueue
from repro.sim.memory import DRAMController, PMController
from repro.sim.stats import CoreStats, MachineStats

#: dispatched-op period of the resource-pruning sweep.  Every core's
#: future reservation times are bounded below by its local clock, so
#: once per period the machine forgets bandwidth windows and queued-line
#: entries below the minimum clock of all live cores — long runs hold a
#: working set instead of the whole timeline.  Crash-instrumented runs
#: never prune (the snapshot queries occupancy at an earlier cycle).
PRUNE_PERIOD = 4096

#: environment variable: set to any non-empty value to force the
#: reference per-op engine even for uninstrumented runs (debugging and
#: the fast-vs-reference identity property test).
REFERENCE_ENGINE_ENV = "REPRO_SIM_REFERENCE"

#: registry of the hardware designs compared in Figure 7.
DESIGNS: Dict[str, Type[PersistDomain]] = {
    "intel-x86": IntelX86Domain,
    "hops": HopsDomain,
    "no-persist-queue": NoPersistQueueDomain,
    "strandweaver": StrandWeaverDomain,
    "non-atomic": NonAtomicDomain,
}


class SimulationDeadlock(Exception):
    """All unfinished cores are blocked — a replay invariant was broken.

    The message lists every parked core's position (op index, the op it is
    stuck on, its local clock) and the resource it is blocked on, so the
    broken hand-off can be identified without re-running under a tracer.
    """


class Machine:
    """An ``n_cores`` machine running one persistency design."""

    def __init__(
        self,
        design: str,
        cfg: MachineConfig = TABLE_I,
        tracer: Tracer = NULL_TRACER,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}; choose from {sorted(DESIGNS)}")
        self.design = design
        self.cfg = cfg
        self.tracer = tracer
        #: simulated-cycle phase attribution (repro.prof); resolves to the
        #: no-op NULL_PROF unless a profiler was passed explicitly or the
        #: REPRO_PROF_PHASES environment variable is set.
        self.profiler = active_profiler(profiler)

    def run(
        self, program: Program, warm: bool = True, fault_plan=None,
        media_faults=None,
    ) -> MachineStats:
        """Replay ``program``; ``warm`` pre-loads every touched line into
        the L2 to model steady-state measurement (see CacheHierarchy.warm).

        ``fault_plan`` (anything exposing ``.trigger`` with ``kind`` of
        ``"cycle"``/``"ops"`` and a threshold ``at`` — see
        :class:`repro.chaos.FaultPlan`) cuts the replay short at the
        trigger point and attaches a :class:`CrashState` snapshot of the
        machine's durable frontier and persist-structure occupancy to the
        returned stats.  Without a plan the durability tracker is the
        no-op null object, so timing is bit-identical to a plain run.

        ``media_faults`` attaches a :class:`repro.faults.MediaFaultModel`
        to the PM controller (retry/backoff, ECC penalties, spare-line
        remaps — see :mod:`repro.sim.memory`).  A plan carrying a
        ``media`` :class:`~repro.faults.MediaFaultConfig` builds one
        implicitly; ``stats.faults`` then records what the device
        suffered.  With neither, timing is bit-identical to a build
        without the fault layer.
        """
        if program.n_threads > self.cfg.n_cores:
            raise ValueError(
                f"program has {program.n_threads} threads but machine has "
                f"{self.cfg.n_cores} cores"
            )
        tracer = self.tracer
        if media_faults is None and fault_plan is not None:
            media_cfg = getattr(fault_plan, "media", None)
            if media_cfg is not None and media_cfg.enabled:
                from repro.faults.model import MediaFaultModel

                media_faults = MediaFaultModel(media_cfg)
        profiler = self.profiler

        # Uninstrumented runs first try the native replay core — a C port
        # of the compiled fast path loaded via ctypes (repro.sim.cnative).
        # It owns all simulator state itself, so on success the Python
        # hierarchy/controller/domain objects are never built.  Any
        # decline (no compiler, REPRO_SIM_NO_C, replay deadlock, a shape
        # the core doesn't model) falls through to the Python engines,
        # which reproduce the exact result or exception.
        if (
            fault_plan is None
            and media_faults is None
            and not tracer.enabled
            and not profiler.enabled
            and not os.environ.get(REFERENCE_ENGINE_ENV)
        ):
            from repro.sim import cnative

            per_core = cnative.run_native(
                self.design, program, self.cfg, warm, PRUNE_PERIOD
            )
            if per_core is not None:
                stats = MachineStats(design=self.design)
                stats.per_core.extend(per_core)
                return stats

        pm = PMController(self.cfg.pm, tracer, faults=media_faults,
                          profiler=profiler)
        dram = DRAMController()
        hierarchy = CacheHierarchy(self.cfg, pm, dram)
        hierarchy.profiler = profiler
        if warm:
            hierarchy.warm(program.touched_lines())
        locks = LockTable(program.lock_order)
        domain_cls = DESIGNS[self.design]

        trigger = fault_plan.trigger if fault_plan is not None else None
        tracker = None
        if fault_plan is not None:
            tracker = DurabilityTracker()
            # Natural dirty evictions reach PM too; record them so the
            # durable frontier reflects everything the ADR domain holds.
            hierarchy.durability = tracker

        # The compiled fast path replays uninstrumented runs bit-identically
        # an order of magnitude faster (see repro.sim.fastcore).  Any
        # observer that hooks the per-op path — tracer, profiler, crash
        # plan, media faults — falls back to the reference engine.
        use_fast = (
            tracker is None
            and media_faults is None
            and not tracer.enabled
            and not profiler.enabled
            and not os.environ.get(REFERENCE_ENGINE_ENV)
        )

        cores: List[CoreEngine] = []
        domains: List[PersistDomain] = []
        stats = MachineStats(design=self.design)
        if tracer.enabled:
            stats.metrics = tracer.metrics
        for trace in program.threads:
            core_stats = CoreStats()
            if tracer.enabled:
                core_stats.metrics = tracer.metrics.scope(core_track(trace.tid))
            stats.per_core.append(core_stats)
            store_queue = InOrderQueue(self.cfg.core.store_queue_entries)
            kwargs = {} if tracker is None else {"durability": tracker}
            domain = domain_cls(
                trace.tid, self.cfg, hierarchy, pm, core_stats, store_queue,
                tracer=tracer, profiler=profiler, **kwargs,
            )
            domains.append(domain)
            if not use_fast:
                cores.append(
                    CoreEngine(
                        trace, self.cfg, hierarchy, domain, core_stats, locks,
                        tracer
                    )
                )

        if use_fast:
            from repro.sim.fastcore import FastDeadlock, run_fast

            try:
                run_fast(
                    self.design, program, self.cfg, hierarchy, domains,
                    stats.per_core, locks, pm, dram, PRUNE_PERIOD,
                )
            except FastDeadlock as exc:
                raise SimulationDeadlock(str(exc)) from None
            return stats

        # Min-clock stepping with lock parking.
        ready = [(core.clock, core.tid) for core in cores if not core.finished]
        heapq.heapify(ready)
        parked: Dict[int, List[CoreEngine]] = {}  # lock_id -> waiting cores
        crash_cycle: Optional[float] = None
        dispatched = 0

        while ready or parked:
            if not ready:
                detail = "; ".join(
                    waiter.blocked_state(lock_id)
                    for lock_id, waiters in sorted(parked.items())
                    for waiter in waiters
                )
                raise SimulationDeadlock(
                    f"[{self.design}] all unfinished cores are parked with no "
                    f"runnable core: {detail}"
                )
            clock, tid = heapq.heappop(ready)
            core = cores[tid]
            if core.finished:
                continue
            if trigger is not None and trigger.kind == "cycle" and clock >= trigger.at:
                # The minimum runnable clock passed the crash point; parked
                # cores resume no earlier than their releaser, so nothing
                # can dispatch before ``at`` any more.
                crash_cycle = float(trigger.at)
                break
            blocked = core.step()
            if blocked is not None:
                parked.setdefault(blocked.lock_id, []).append(core)
                continue
            dispatched += 1
            if trigger is not None and trigger.kind == "ops" and dispatched >= trigger.at:
                crash_cycle = core.clock
                break
            # A release may wake parked cores (their turn may have come).
            if core.pc > 0 and core.trace[core.pc - 1].kind is OpKind.LOCK_REL:
                lock_id = core.trace[core.pc - 1].lock_id
                for waiter in parked.pop(lock_id, []):
                    heapq.heappush(ready, (max(waiter.clock, core.clock), waiter.tid))
            if not core.finished:
                heapq.heappush(ready, (core.clock, core.tid))
            if tracker is None and dispatched % PRUNE_PERIOD == 0:
                # Low-water mark over *actual* clocks, not heap keys: a
                # woken core's key is max(its clock, releaser clock) and
                # may exceed the clock it will resume stepping from.
                low = min(
                    (c.clock for c in cores if not c.finished),
                    default=core.clock,
                )
                pm.prune(low)
                dram.prune(low)

        if tracker is not None:
            if crash_cycle is None:
                # The program outran the trigger: power fails after the
                # final drain, so the image degrades to full recovery.
                crash_cycle = max((core.clock for core in cores), default=0.0)
            durable = [
                rec
                for domain in domains
                for rec in domain.durable_frontier(crash_cycle)
            ]
            durable.sort(key=lambda rec: rec.op.gseq)
            stats.crash = CrashState(
                cycle=crash_cycle,
                design=self.design,
                durable=durable,
                in_flight=tracker.in_flight(crash_cycle),
                occupancy={
                    "pm_write_queue": pm.write_queue_depth(crash_cycle),
                    "cores": {
                        domain.tid: domain.occupancy(crash_cycle)
                        for domain in domains
                    },
                },
                tracker=tracker,
            )
        if pm.faults is not None:
            stats.faults = pm.faults.summary()
        return stats


def run_design(
    design: str,
    program: Program,
    cfg: MachineConfig = TABLE_I,
    tracer: Tracer = NULL_TRACER,
) -> MachineStats:
    """Convenience wrapper: replay ``program`` on ``design``."""
    return Machine(design, cfg, tracer).run(program)
