"""Fault plans: where a run crashes and which write-back faults fire.

A :class:`FaultPlan` is the concrete, machine-facing object threaded into
``Machine.run``: a :class:`~repro.sim.durability.CrashTrigger` (absolute
crash cycle or micro-op count) plus the fault knobs the image builder
consumes after the crash (seeded delayed-write-back injection, optional
torn writes).

A :class:`CrashSchedule` is the *design-independent* form used by the
differential oracle: crash points are fractions of the run, because the
five designs finish the same program at very different cycle horizons.
``concretise`` turns a schedule into a plan once a design's horizon and
op count are known, so all designs crash "at the same place" in their
own executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.model import MediaFaultConfig
from repro.sim.durability import CrashTrigger

#: default probability that an in-flight dirty line is force-evicted.
DEFAULT_WRITEBACK_PROB = 0.6

#: default probability that a durable store's persist is re-timed past
#: the crash (unbounded CLWB delay absent an ordering fence).
DEFAULT_DROP_PROB = 0.25


@dataclass(frozen=True)
class RecoveryCrash:
    """One power failure scheduled *inside* a recovery pass.

    ``after_writes`` is the number of recovery persists the pass gets to
    issue before power fails (a budget past the pass's total write count
    simply lets it complete).  ``drop_prob`` is the chance each unfenced
    write is still in flight at the failure — fenced epochs always
    survive (see :class:`repro.faults.CrashingRecoveryWriter`).
    """

    after_writes: int
    drop_prob: float = 0.5

    def describe(self) -> str:
        return f"recovery-crash@{self.after_writes}(drop={self.drop_prob:g})"


@dataclass(frozen=True)
class FaultPlan:
    """One crash experiment: trigger + post-crash fault injection.

    ``Machine.run`` reads only ``trigger`` and ``media`` (with media
    faults or without, the plan replays on the native core); the chaos
    image builder reads the rest.  ``seed`` makes the injected faults
    deterministic — it is echoed in every failure message so a run can
    be replayed verbatim.
    """

    trigger: CrashTrigger
    seed: int = 0
    #: inject delayed write-backs: in-flight (retired but not persisted)
    #: stores may reach PM via a cache eviction racing the power failure.
    writeback_faults: bool = True
    writeback_prob: float = DEFAULT_WRITEBACK_PROB
    #: inject delayed persists: a durable store — together with all of
    #: its persist-DAG successors — may be re-timed to *after* the crash,
    #: because nothing short of an ordering primitive bounds how long the
    #: hardware may sit on a CLWB.  For correct designs this is provably
    #: an earlier durable frontier; for NON-ATOMIC it exposes the states
    #: its missing ordering admits (see repro.chaos.image).
    drop_faults: bool = True
    drop_prob: float = DEFAULT_DROP_PROB
    #: tear the latest-accepted durable store to an 8-byte-aligned prefix
    #: (ADR-failure stress; breaks store atomicity, so even correct
    #: designs are expected to fail — used to prove checker sensitivity).
    torn: bool = False
    #: device-level media faults (seeded write failures, ECC errors) the
    #: PM controller must absorb during the run; None = perfect media.
    media: Optional[MediaFaultConfig] = None
    #: power failures scheduled inside recovery: crash the Nth recovery
    #: pass at its ``after_writes``-th persist, re-recover, repeat; the
    #: pass after the last scheduled crash runs to completion.
    recovery_crashes: Tuple[RecoveryCrash, ...] = ()

    def describe(self) -> str:
        parts = [self.trigger.describe(), f"seed={self.seed}"]
        if self.writeback_faults:
            parts.append(f"writeback-faults(p={self.writeback_prob:g})")
        if self.drop_faults:
            parts.append(f"drop-faults(p={self.drop_prob:g})")
        if self.torn:
            parts.append("torn-writes")
        if self.media is not None and self.media.enabled:
            parts.append(self.media.describe())
        parts.extend(rc.describe() for rc in self.recovery_crashes)
        return " ".join(parts)


@dataclass(frozen=True)
class CrashSchedule:
    """Design-independent crash point: a fraction of the run.

    ``kind`` is ``"cycle"`` (fraction of the design's cycle horizon) or
    ``"ops"`` (fraction of the program's total micro-op count); ``frac``
    is in (0, 1].  ``seed`` is this schedule's private fault-injection
    seed, derived deterministically from the master seed.
    """

    kind: str
    frac: float
    seed: int
    writeback_faults: bool = True
    writeback_prob: float = DEFAULT_WRITEBACK_PROB
    drop_faults: bool = True
    drop_prob: float = DEFAULT_DROP_PROB
    torn: bool = False
    media: Optional[MediaFaultConfig] = None
    recovery_crashes: Tuple[RecoveryCrash, ...] = ()

    def concretise(self, horizon: float, total_ops: int) -> FaultPlan:
        """Pin this schedule to one design's measured run length."""
        if self.kind == "cycle":
            at = max(1.0, round(horizon * self.frac, 3))
        else:
            at = max(1, int(total_ops * self.frac))
        return FaultPlan(
            trigger=CrashTrigger(self.kind, at),
            seed=self.seed,
            writeback_faults=self.writeback_faults,
            writeback_prob=self.writeback_prob,
            drop_faults=self.drop_faults,
            drop_prob=self.drop_prob,
            torn=self.torn,
            media=self.media,
            recovery_crashes=self.recovery_crashes,
        )


def sample_schedules(
    n: int,
    seed: int,
    writeback_faults: bool = True,
    drop_faults: bool = True,
    torn: bool = False,
) -> List[CrashSchedule]:
    """Sample ``n`` deterministic crash schedules from a master ``seed``.

    Alternates cycle- and op-count-triggered crashes so both trigger
    paths are exercised; fractions span the whole run, biased nowhere —
    the frontier bias lives in the write-back faults, which resurrect
    in-flight persists near the crash point.  Faults fire at
    :data:`DEFAULT_WRITEBACK_PROB` and :data:`DEFAULT_DROP_PROB`.
    """
    rng = random.Random(seed)
    out: List[CrashSchedule] = []
    for i in range(n):
        kind = "cycle" if i % 2 == 0 else "ops"
        frac = rng.uniform(0.05, 0.95)
        out.append(
            CrashSchedule(
                kind=kind,
                frac=frac,
                seed=rng.getrandbits(32),
                writeback_faults=writeback_faults,
                drop_faults=drop_faults,
                torn=torn,
            )
        )
    return out
