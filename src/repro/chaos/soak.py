"""Randomized soak campaign: fuzz crash points x media faults x re-crash.

``run_soak`` is the long-haul companion to :func:`repro.chaos.harness.
run_crashtest`.  Where crashtest replays a fixed grid of schedules, soak
draws every knob at random per case — crash trigger, write-back and
drop probabilities, a device-level :class:`~repro.faults.MediaFaultConfig`
(so the PM controller's retry/remap machinery runs under fire), and up to
three power failures scheduled *inside* recovery itself — then recovers
and checks invariants.  Any unexpected violation is handed to the
shrinker for a minimal reproducer.

Everything derives from one master seed: case ``i`` uses ``seed + i`` as
its private case seed, so

* the whole campaign is bit-reproducible run-to-run (the ``repro.soak/1``
  summary is byte-identical for the same arguments), and
* a single failing case replays in isolation via the emitted command
  (``--seeds 1 --seed <case-seed> --design <d>``), because case
  generation depends only on the case seed and the media flag — not on
  how many cases ran before it or which designs were in rotation.

Violations on the deliberately unsafe NON-ATOMIC design are recorded as
*expected* (the checker catching it is the point); a clean NON-ATOMIC
case is not a failure either, since no single random crash is guaranteed
to land in its unordered window — checker sensitivity is crashtest's
job, where many samples amortise.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chaos.harness import CrashHarness
from repro.chaos.plan import CrashSchedule, RecoveryCrash
from repro.chaos.shrink import ShrinkResult, shrink_crash_point
from repro.faults.model import MediaFaultConfig
from repro.prof.runlog import CampaignMonitor
from repro.sim.config import TABLE_I, MachineConfig
from repro.sim.machine import DESIGNS
from repro.workloads import WorkloadConfig

SOAK_SCHEMA = "repro.soak/1"

#: probability a soak case attaches a media fault model at all.
MEDIA_CASE_PROB = 0.5
#: cap on power failures scheduled inside one case's recovery.
MAX_RECOVERY_CRASHES = 3
#: upper bound on a recovery crash's write budget.  A chaos-scale
#: recovery pass issues ~12-16 persists, so budgets drawn in [0, 24]
#: mix mid-repair kills, mid-sweep kills and passes that complete.
MAX_RECOVERY_BUDGET = 24


def sample_case_schedule(
    case_seed: int, media: bool = True
) -> CrashSchedule:
    """Draw one soak case's full fault plan from its private seed.

    Pure function of ``(case_seed, media)`` — the replay contract.  The
    design rotation is drawn from a *separate* stream (see
    :func:`pick_design`) so replaying with ``--design`` pinned does not
    shift these draws.
    """
    rng = random.Random(case_seed)
    kind = "cycle" if rng.random() < 0.5 else "ops"
    frac = rng.uniform(0.05, 0.95)
    writeback_prob = rng.uniform(0.3, 0.9)
    drop_prob = rng.uniform(0.1, 0.5)
    fault_seed = rng.getrandbits(32)
    media_cfg: Optional[MediaFaultConfig] = None
    if media and rng.random() < MEDIA_CASE_PROB:
        media_cfg = MediaFaultConfig(
            seed=rng.getrandbits(32),
            write_fail_prob=rng.uniform(0.0, 0.05),
            ecc_correctable_prob=rng.uniform(0.0, 0.02),
            ecc_uncorrectable_prob=(
                rng.uniform(0.0, 0.002) if rng.random() < 0.3 else 0.0
            ),
        )
    n_recovery = rng.randint(0, MAX_RECOVERY_CRASHES)
    recovery = tuple(
        RecoveryCrash(
            after_writes=rng.randint(0, MAX_RECOVERY_BUDGET),
            drop_prob=rng.uniform(0.2, 0.8),
        )
        for _ in range(n_recovery)
    )
    return CrashSchedule(
        kind=kind,
        frac=frac,
        seed=fault_seed,
        writeback_prob=writeback_prob,
        drop_prob=drop_prob,
        media=media_cfg,
        recovery_crashes=recovery,
    )


def pick_design(case_seed: int, designs: Sequence[str]) -> str:
    """Rotate designs from a stream independent of the plan draws.

    Replaying one case with ``--design d`` makes ``designs == [d]`` and
    this returns ``d`` without perturbing :func:`sample_case_schedule`.
    """
    return designs[random.Random(case_seed ^ 0xD151B).randrange(len(designs))]


@dataclass
class SoakCase:
    """One soak case: the drawn plan and what happened under it."""

    index: int
    seed: int  #: this case's private seed (replayable in isolation)
    design: str
    plan_desc: str
    violation: Optional[str] = None
    #: True when the violation is the expected NON-ATOMIC outcome.
    expected: bool = False
    recovery_passes: int = 1
    media_faults: Optional[Dict[str, object]] = None
    shrunk: Optional[ShrinkResult] = None

    @property
    def ok(self) -> bool:
        return self.violation is None or self.expected


@dataclass
class SoakResult:
    """Campaign outcome: every case, plus failure accounting."""

    workload: str
    seed: int
    n_seeds: int
    media: bool
    designs: List[str]
    #: whether the campaign shrank failures — echoed into replay
    #: commands, deliberately absent from ``summary()`` (schema-stable).
    shrink: bool = True
    cases: List[SoakCase] = field(default_factory=list)

    @property
    def failures(self) -> List[SoakCase]:
        return [c for c in self.cases if not c.ok]

    @property
    def expected_violations(self) -> int:
        return sum(1 for c in self.cases if c.violation and c.expected)

    @property
    def ok(self) -> bool:
        return not self.failures

    def replay_command(self, case: SoakCase) -> str:
        """The one-liner that reproduces ``case`` in isolation.

        Must echo every campaign flag that feeds case *generation* or
        reporting: a campaign run with ``--no-media`` draws a different
        plan for the same seed, and one run with ``--no-shrink`` never
        searched for a minimum — replaying without the same flags used
        to chase a different failure than the one reported.
        """
        cmd = (
            f"python -m repro soak {self.workload} --design {case.design} "
            f"--seeds 1 --seed {case.seed}"
        )
        if not self.media:
            cmd += " --no-media"
        if not self.shrink:
            cmd += " --no-shrink"
        return cmd

    def summary(self) -> Dict[str, object]:
        """The ``repro.soak/1`` document — deterministic, no wall-clock."""
        return {
            "schema": SOAK_SCHEMA,
            "workload": self.workload,
            "seed": self.seed,
            "seeds": self.n_seeds,
            "media": self.media,
            "designs": list(self.designs),
            "cases": len(self.cases),
            "failures": len(self.failures),
            "expected_violations": self.expected_violations,
            "recovery_passes": sum(c.recovery_passes for c in self.cases),
            "media_cases": sum(1 for c in self.cases if c.media_faults),
            "media_retries": sum(
                int(c.media_faults.get("retries", 0))
                for c in self.cases
                if c.media_faults
            ),
            "ok": self.ok,
            "failing": [
                {
                    "index": c.index,
                    "seed": c.seed,
                    "design": c.design,
                    "plan": c.plan_desc,
                    "violation": c.violation,
                    "shrunk": None if c.shrunk is None else c.shrunk.describe(),
                    "replay": self.replay_command(c),
                }
                for c in self.failures
            ],
        }

    def render(self) -> str:
        lines = [
            f"soak {self.workload}: {len(self.cases)} cases "
            f"(seed {self.seed}), {len(self.failures)} failure(s), "
            f"{self.expected_violations} expected NON-ATOMIC violation(s)"
        ]
        passes = sum(c.recovery_passes for c in self.cases)
        media_cases = sum(1 for c in self.cases if c.media_faults)
        lines.append(
            f"  {'PASS' if self.ok else 'FAIL'}: {passes} recovery pass(es), "
            f"{media_cases} case(s) under media faults"
        )
        for case in self.failures[:5]:
            lines.append(f"  - case {case.index} [{case.plan_desc}]")
            lines.append(f"    {case.violation}")
            if case.shrunk is not None:
                lines.append(f"    shrunk: {case.shrunk.describe()}")
            lines.append(f"    replay: {self.replay_command(case)}")
        if len(self.failures) > 5:
            lines.append(f"  ... {len(self.failures) - 5} more")
        return "\n".join(lines)


def design_pool_for(designs: Optional[Sequence[str]]) -> List[str]:
    """Canonical rotation pool: pinned list, or every design sorted."""
    return list(designs) if designs else sorted(DESIGNS)


def run_soak_case(
    workload: str,
    case_seed: int,
    index: int,
    design_pool: Sequence[str],
    media: bool = True,
    shrink: bool = True,
    cfg: Optional[WorkloadConfig] = None,
    machine_cfg: MachineConfig = TABLE_I,
    harnesses: Optional[Dict[str, CrashHarness]] = None,
) -> SoakCase:
    """Run exactly one soak case.

    A pure function of ``(workload, case_seed, index, design_pool,
    media, machine knobs)``: which process runs it, and which cases ran
    before it, cannot change the outcome, so a long campaign can be
    split across processes with ``--seed`` and ``--seeds``.
    ``harnesses`` is an optional cache of harnesses (one per design) so
    a run of many cases pays for each design's baseline once.  A case
    never reads the harness's lint: no soak verdict depends on it.
    """
    design = pick_design(case_seed, design_pool)
    schedule = sample_case_schedule(case_seed, media=media)
    harness = None if harnesses is None else harnesses.get(design)
    if harness is None:
        harness = CrashHarness(workload, design, cfg=cfg, machine_cfg=machine_cfg)
        if harnesses is not None:
            harnesses[design] = harness
    sample = harness.crash_schedule(schedule, index=index)
    case = SoakCase(
        index=index,
        seed=case_seed,
        design=design,
        plan_desc=sample.plan.describe(),
        violation=sample.violation,
        expected=bool(sample.violation) and design == "non-atomic",
        recovery_passes=sample.recovery_passes,
        media_faults=sample.media_faults,
    )
    if not case.ok and shrink:
        case.shrunk = shrink_crash_point(harness, sample.plan)
    return case


def run_soak(
    workload: str,
    seeds: int = 50,
    seed: int = 7,
    designs: Optional[Sequence[str]] = None,
    media: bool = True,
    shrink: bool = True,
    cfg: Optional[WorkloadConfig] = None,
    machine_cfg: MachineConfig = TABLE_I,
    runlog=None,
    progress=None,
) -> SoakResult:
    """Run ``seeds`` randomized crash-recover-check cases and shrink failures.

    Each case draws its own crash point, fault probabilities, optional
    media fault model and crash-during-recovery schedule from
    ``seed + index``; the per-design :class:`CrashHarness` (one baseline
    run each, all specializing one functional run of the workload) is
    built lazily and reused across cases.  ``runlog``
    streams ``repro.runlog/1`` campaign telemetry per case; ``progress``
    drives a live status line — both go through one
    :class:`~repro.prof.runlog.CampaignMonitor` and are observation-only.
    """
    design_pool = design_pool_for(designs)
    result = SoakResult(
        workload=workload,
        seed=seed,
        n_seeds=seeds,
        media=media,
        designs=design_pool,
        shrink=shrink,
    )
    harnesses: Dict[str, CrashHarness] = {}
    monitor = CampaignMonitor(runlog=runlog, progress=progress)
    busy = 0.0
    for i in range(seeds):
        case_seed = seed + i
        design = pick_design(case_seed, design_pool)
        label = f"{workload}/{design}/seed{case_seed}"
        t_case = time.perf_counter()
        monitor.started(label, i)
        case = run_soak_case(
            workload, case_seed, i, design_pool,
            media=media, shrink=shrink, cfg=cfg, machine_cfg=machine_cfg,
            harnesses=harnesses,
        )
        result.cases.append(case)
        case_wall = time.perf_counter() - t_case
        busy += case_wall
        monitor.finished(label, i, case.ok, case_wall)
    monitor.close(
        errors=sum(1 for case in result.cases if not case.ok), busy_time_s=busy
    )
    return result
