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
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.persistency.base import PersistDomain
from repro.persistency.hops import HopsDomain
from repro.persistency.intel_x86 import IntelX86Domain
from repro.persistency.nonatomic import NonAtomicDomain
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MachineConfig, TABLE_I
from repro.sim.cpu import CoreEngine, LockTable
from repro.sim.durability import CrashState, DurabilityTracker
from repro.sim.engine import InOrderQueue
from repro.sim.memory import PMController
from repro.sim.stats import CoreStats, MachineStats

#: dispatched-op period of the resource-pruning sweep.  Every core's
#: future reservation times are bounded below by its local clock, so
#: once per period the machine forgets bandwidth windows and queued-line
#: entries below the minimum clock of all live cores — long runs hold a
#: working set instead of the whole timeline.
PRUNE_PERIOD = 4096

#: environment variable: set to any non-empty value to force the
#: reference per-op engine even for uninstrumented runs (debugging and
#: the native-vs-reference identity property test).
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
    ) -> None:
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}; choose from {sorted(DESIGNS)}")
        self.design = design
        self.cfg = cfg
        self.tracer = tracer

    def run(
        self, program: Program, warm: bool = True, fault_plan=None,
        media_faults=None,
    ) -> MachineStats:
        """Replay ``program``; ``warm`` pre-loads every touched line into
        the L2 to model steady-state measurement (see CacheHierarchy.warm).

        ``fault_plan`` (anything exposing ``.trigger`` with ``kind`` of
        ``"cycle"``/``"ops"`` and a threshold ``at`` — see
        :class:`repro.chaos.FaultPlan`) cuts the replay short at the
        trigger point and attaches the :class:`CrashState` it leaves (the
        durable frontier and the in-flight stores) to the returned stats.
        Without a plan the durability tracker is the no-op null object,
        so timing is bit-identical to a plain run.

        ``media_faults`` attaches a :class:`repro.faults.MediaFaultModel`
        to the PM controller (retry/backoff, ECC penalties, spare-line
        remaps — see :mod:`repro.sim.memory`).  A plan carrying a
        ``media`` :class:`~repro.faults.MediaFaultConfig` builds one
        implicitly; ``stats.faults`` then records what the device
        suffered.  With neither, timing is bit-identical to a build
        without the fault layer.

        Which engine runs: the native C core (:mod:`repro.sim.cnative`)
        replays every run without a tracer, fault plans and media faults
        included, and returns the same stats, crash state and fault
        summary, leaving a passed-in model as the reference would.  The
        reference engine below replays a run with a tracer, with
        ``REPRO_SIM_REFERENCE`` set, a crash run of a program with a
        STORE that does not lie inside one cache line, and every run the
        core declines or cannot be built for.  Either tier seals ``program``.
        """
        if program.n_threads > self.cfg.n_cores:
            raise ValueError(
                f"program has {program.n_threads} threads but machine has "
                f"{self.cfg.n_cores} cores"
            )
        program.seal()
        tracer = self.tracer
        if media_faults is None and fault_plan is not None:
            media_cfg = getattr(fault_plan, "media", None)
            if media_cfg is not None and media_cfg.enabled:
                from repro.faults.model import MediaFaultModel

                media_faults = MediaFaultModel(media_cfg)

        trigger = fault_plan.trigger if fault_plan is not None else None
        # Runs without a tracer first try the native replay core — a C
        # port of the reference engine, its media-fault policy and its
        # durability tracker, loaded via ctypes (repro.sim.cnative).  It
        # owns all simulator state itself, so on success the Python
        # hierarchy/controller/domain objects are never built.  Any
        # decline (no compiler, replay deadlock, a fence foreign to the
        # design) leaves the fault model untouched and falls through to
        # the reference engine below, which reproduces the exact result
        # or exception.
        if not tracer.enabled and not os.environ.get(REFERENCE_ENGINE_ENV):
            from repro.sim import cnative

            if trigger is None or program.one_line_stores():
                stats = cnative.run_native(
                    self.design, program, self.cfg, warm, PRUNE_PERIOD,
                    trigger, media_faults,
                )
                if stats is not None:
                    return stats

        pm = PMController(self.cfg.pm, tracer, faults=media_faults)
        hierarchy = CacheHierarchy(self.cfg, pm)
        if warm:
            hierarchy.warm(program.touched_lines())
        locks = LockTable(program.lock_order)
        domain_cls = DESIGNS[self.design]

        tracker = None
        if fault_plan is not None:
            tracker = DurabilityTracker()
            # Natural dirty evictions reach PM too; record them so the
            # durable frontier reflects everything the ADR domain holds.
            hierarchy.durability = tracker

        cores: List[CoreEngine] = []
        stats = MachineStats(design=self.design)
        for trace in program.threads:
            core_stats = CoreStats()
            stats.per_core.append(core_stats)
            store_queue = InOrderQueue(self.cfg.core.store_queue_entries)
            kwargs = {} if tracker is None else {"durability": tracker}
            domain = domain_cls(
                trace.tid, self.cfg, hierarchy, pm, core_stats, store_queue,
                tracer=tracer, **kwargs,
            )
            cores.append(
                CoreEngine(
                    trace, self.cfg, hierarchy, domain, core_stats, locks, tracer
                )
            )

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
            if core.pc > 0 and core.ops[core.pc - 1].kind is OpKind.LOCK_REL:
                lock_id = core.ops[core.pc - 1].lock_id
                for waiter in parked.pop(lock_id, []):
                    heapq.heappush(ready, (max(waiter.clock, core.clock), waiter.tid))
            if not core.finished:
                heapq.heappush(ready, (core.clock, core.tid))
            if dispatched % PRUNE_PERIOD == 0:
                # Low-water mark over *actual* clocks, not heap keys: a
                # woken core's key is max(its clock, releaser clock) and
                # may exceed the clock it will resume stepping from.
                low = min(
                    (c.clock for c in cores if not c.finished),
                    default=core.clock,
                )
                pm.prune(low)

        if tracker is not None:
            if crash_cycle is None:
                # The program outran the trigger: power fails after the
                # final drain, so the image degrades to full recovery.
                crash_cycle = max((core.clock for core in cores), default=0.0)
            stats.crash = CrashState(
                cycle=crash_cycle,
                durable=tracker.frontier(crash_cycle),
                in_flight=tracker.in_flight(crash_cycle),
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
