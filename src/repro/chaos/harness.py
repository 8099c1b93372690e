"""End-to-end crash-injection harness with a differential oracle.

``run_crashtest`` drives one (workload, design) cell through ``N``
seeded crash points: specialize the workload's traced run for the
design, measure the design's clean cycle horizon, then for each schedule
crash the timing simulator mid-run, materialise the machine-state
durable frontier into a PM image, run undo/redo recovery and check the
workload's invariants.  Every design's harness of one workload shares
one functional run (see :func:`canonical_run`), and designs of one
dialect share its program and persist DAG (see :func:`dialect_run`).

``run_differential`` replays the *same* fractional crash schedules
across all five hardware designs.  The four correct designs must recover
on every sample; NON-ATOMIC must violate an invariant at least once —
the harness treats a NON-ATOMIC run with zero violations as a failure,
because it means the checker lost its teeth.

Every failure message echoes the master seed, the per-sample fault seed
and the concrete trigger so the exact crash replays verbatim from the
CLI (``python -m repro crashtest ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import AnalysisReport, analyze
from repro.chaos.image import ImageInfo, build_crash_image
from repro.chaos.plan import CrashSchedule, FaultPlan, sample_schedules
from repro.core.model import PersistDag
from repro.faults.recovery import CrashingRecoveryWriter, RecoveryCrashed
from repro.lang.dialect import dialect_for_design
from repro.lang.recovery import RecoveryReport, recover
from repro.sim.config import TABLE_I, MachineConfig
from repro.sim.machine import DESIGNS, Machine
from repro.workloads import WORKLOADS, CheckFailure, WorkloadConfig
from repro.workloads.base import GeneratedRun, generate_canonical, specialize_run

# Unused here; benchmarks/perf/unit.py spans it by name on the traced soak.
from repro.workloads import generate_for_design  # noqa: F401

#: default workload scale for crash testing: small enough that one cell
#: (horizon run + N crash replays) finishes in seconds, large enough for
#: cross-thread lock hand-offs and log wrap behaviour to appear.
CHAOS_CFG = WorkloadConfig(
    n_threads=4, ops_per_thread=12, log_entries=2048, pm_size=1 << 20
)


@lru_cache(maxsize=1)
def canonical_run(workload: str, cfg: WorkloadConfig) -> GeneratedRun:
    """The one functional run every design's harness of ``workload``
    specializes.

    Crash tests use the conservative commit-durable-before-hand-off
    model variant, matching the DAG-level crash-consistency tests.  A
    specialized program equals direct generation for the design, and
    the functional artefacts it shares (PM image, log layout, workload)
    are only read: crash images and recovery work on copies.  The slot
    holds one run, the most recent: campaigns walk one workload at a
    time, and holding every workload's run would only grow the process.
    """
    return generate_canonical(WORKLOADS[workload], cfg, "txn", durable_commit=True)


#: ``{(workload, cfg, dialect): (run, dag)}``, one entry at most.
_DIALECT_SLOT: Dict[tuple, Tuple[GeneratedRun, PersistDag]] = {}


def dialect_run(
    workload: str, cfg: WorkloadConfig, design: str
) -> Tuple[GeneratedRun, PersistDag]:
    """The specialized run of ``design``'s dialect and its persist DAG.

    Designs of one dialect (no-persist-queue and strandweaver) replay
    the same program, so their harnesses share both.  Like
    :func:`canonical_run`, the slot holds the most recent pair only, and
    it drops the old pair before building the next, so a campaign never
    holds two DAGs of its own at once.
    """
    key = (workload, cfg, dialect_for_design(design).name)
    pair = _DIALECT_SLOT.get(key)
    if pair is None:
        _DIALECT_SLOT.clear()
        run = specialize_run(canonical_run(workload, cfg), design)
        pair = _DIALECT_SLOT[key] = (run, PersistDag(run.program))
    return pair


@dataclass
class CrashSample:
    """Outcome of one injected crash."""

    index: int
    design: str
    plan: FaultPlan
    cycle: float  #: simulated cycle the machine stopped at
    info: ImageInfo
    n_rolled_back: int
    n_replayed: int
    violation: Optional[str] = None  #: failure message, None on success
    #: recovery passes run (1 + crashes injected inside recovery).
    recovery_passes: int = 1
    #: media fault/retry accounting from the run, when a model was active.
    media_faults: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None


class CrashHarness:
    """One (workload, design) cell prepared for repeated crash injection."""

    def __init__(
        self,
        workload: str,
        design: str,
        cfg: Optional[WorkloadConfig] = None,
        machine_cfg: MachineConfig = TABLE_I,
    ) -> None:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
            )
        if design not in DESIGNS:
            raise ValueError(
                f"unknown design {design!r}; choose from {sorted(DESIGNS)}"
            )
        self.workload_name = workload
        self.design = design
        self.cfg = cfg or CHAOS_CFG
        self.machine_cfg = machine_cfg
        self.run, self.dag = dialect_run(workload, self.cfg, design)
        baseline = Machine(design, machine_cfg).run(self.run.program)
        #: clean-run cycle count: the horizon fractional schedules scale to.
        self.horizon = float(baseline.cycles)
        self.total_ops = sum(len(t) for t in self.run.program.threads)

    @cached_property
    def lint(self) -> AnalysisReport:
        """Static pre-flight, run on first read (crashtest reads it, soak
        does not).

        The linter's ERROR findings and the differential oracle must
        agree: a correct design lints clean and recovers; NON-ATOMIC
        lints dirty and violates invariants.  The program is in the
        design's own dialect, so the linter reuses the harness's DAG
        instead of building the same one again.
        """
        return analyze(self.run.program, design=self.design, dag=self.dag)

    def crash_once(self, plan: FaultPlan, index: int = 0) -> CrashSample:
        """Crash under ``plan``, recover, check; returns the sample.

        When the plan schedules crashes *during* recovery, each scheduled
        crash kills one recovery pass at its seeded write budget, the
        torn intermediate image is materialised, and recovery re-runs —
        the pass after the last scheduled crash completes normally.
        """
        stats = Machine(self.design, self.machine_cfg).run(
            self.run.program, fault_plan=plan
        )
        crash = stats.crash
        assert crash is not None  # run() always attaches one under a plan
        image, info = build_crash_image(self.run, crash, plan, self.dag)
        report, passes = self._recover_with_crashes(image, plan)
        violation: Optional[str] = None
        try:
            self.run.check_image(image)
        except CheckFailure as exc:
            violation = (
                f"{self.workload_name}/{self.design}: invariant violated "
                f"after crash [{plan.describe()}] at cycle {crash.cycle:g} "
                f"({len(crash.durable)} durable, {info.n_injected} injected "
                f"write-backs): {exc}"
            )
        return CrashSample(
            index=index,
            design=self.design,
            plan=plan,
            cycle=crash.cycle,
            info=info,
            n_rolled_back=report.n_rolled_back,
            n_replayed=report.n_replayed,
            violation=violation,
            recovery_passes=passes,
            media_faults=stats.faults,
        )

    def _recover_with_crashes(
        self, image, plan: FaultPlan
    ) -> "tuple[RecoveryReport, int]":
        """Run recovery, injecting the plan's crash-during-recovery points.

        Returns the report of the pass that completed plus the total
        number of passes attempted.  A resumed-sweep pass reports no
        rollback/replay work (the repairs were already durable), so the
        completing pass's report is returned as-is.
        """
        layout = self.run.layout
        passes = 0
        for i, rc in enumerate(plan.recovery_crashes):
            writer = CrashingRecoveryWriter(
                image,
                after_writes=rc.after_writes,
                seed=(plan.seed * 0x9E3779B1 + i) & 0xFFFFFFFF,
                drop_prob=rc.drop_prob,
            )
            passes += 1
            try:
                # The pass may outrun its crash budget and complete.
                return recover(image, layout, writer=writer), passes
            except RecoveryCrashed:
                writer.materialise_crash()
        return recover(image, layout), passes + 1

    def crash_schedule(self, schedule: CrashSchedule, index: int = 0) -> CrashSample:
        """Concretise a fractional schedule against this cell and crash."""
        return self.crash_once(
            schedule.concretise(self.horizon, self.total_ops), index=index
        )


@dataclass
class CrashTestResult:
    """All samples of one (workload, design) crashtest."""

    workload: str
    design: str
    seed: int
    expect_failures: bool
    horizon: float
    total_ops: int
    samples: List[CrashSample] = field(default_factory=list)
    #: ERROR-level findings of the static lint pre-flight over the cell.
    lint_errors: int = 0
    #: minimal failing reproducer, when a failure was found and shrunk.
    shrunk: Optional["ShrinkResult"] = None

    @property
    def violations(self) -> List[str]:
        return [s.violation for s in self.samples if s.violation]

    @property
    def lint_consistent(self) -> bool:
        """Static lint and dynamic oracle must agree on the design.

        A correct design must lint without ERROR findings; NON-ATOMIC must
        lint *with* them (its missing ordering is exactly what the
        differential oracle then reproduces as invariant violations).
        Torn-write stress is dynamic-only, so it does not change the
        static expectation.
        """
        return (self.lint_errors > 0) == (self.design == "non-atomic")

    @property
    def ok(self) -> bool:
        """Correct designs must never fail; NON-ATOMIC (and torn-write
        stress runs) must fail at least once or the checker is blind.
        The static lint pre-flight must agree with the dynamic outcome."""
        if not self.lint_consistent:
            return False
        if self.expect_failures:
            return len(self.violations) > 0
        return not self.violations

    def replay_command(self) -> str:
        return (
            f"python -m repro crashtest {self.workload} --design {self.design} "
            f"--crashes {len(self.samples)} --seed {self.seed}"
        )

    def summary(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "design": self.design,
            "seed": self.seed,
            "crashes": len(self.samples),
            "violations": len(self.violations),
            "expect_failures": self.expect_failures,
            "lint_errors": self.lint_errors,
            "lint_consistent": self.lint_consistent,
            "ok": self.ok,
            "horizon_cycles": self.horizon,
            "recovered_ok": sum(1 for s in self.samples if s.ok),
            "injected_writebacks": sum(s.info.n_injected for s in self.samples),
            "guard_blocked": sum(s.info.n_guard_blocked for s in self.samples),
            "recovery_passes": sum(s.recovery_passes for s in self.samples),
            "media_retries": sum(
                int(s.media_faults.get("retries", 0))
                for s in self.samples
                if s.media_faults
            ),
            "shrunk_at": None if self.shrunk is None else self.shrunk.minimal_at,
            "replay": self.replay_command(),
        }

    def render(self) -> str:
        head = (
            f"crashtest {self.workload} on {self.design}: "
            f"{len(self.samples)} crashes (seed {self.seed}), "
            f"{len(self.violations)} violation(s)"
        )
        lines = [head]
        expectation = "expected >=1" if self.expect_failures else "expected 0"
        lines.append(
            f"  {'PASS' if self.ok else 'FAIL'} ({expectation}; horizon "
            f"{self.horizon:g} cycles, {self.total_ops} micro-ops)"
        )
        agree = "agrees" if self.lint_consistent else "DISAGREES"
        lines.append(
            f"  static lint: {self.lint_errors} error(s); {agree} with the "
            f"dynamic oracle"
        )
        for msg in self.violations[:5]:
            lines.append(f"  - {msg}")
        if len(self.violations) > 5:
            lines.append(f"  ... {len(self.violations) - 5} more")
        if self.shrunk is not None:
            lines.append(f"  shrunk: {self.shrunk.describe()}")
        if not self.ok:
            lines.append(f"  replay: {self.replay_command()}")
        return "\n".join(lines)


@dataclass
class DifferentialResult:
    """Same crash schedules replayed across every hardware design."""

    workload: str
    seed: int
    results: Dict[str, CrashTestResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def summary(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "ok": self.ok,
            "designs": {d: r.summary() for d, r in self.results.items()},
        }

    def render(self) -> str:
        lines = [
            f"differential crashtest {self.workload} (seed {self.seed}): "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        for design, result in self.results.items():
            mark = "ok  " if result.ok else "FAIL"
            expect = "must fail" if result.expect_failures else "must recover"
            lines.append(
                f"  [{mark}] {design:<17} {len(result.violations):>3}/"
                f"{len(result.samples)} violations ({expect})"
            )
        for result in self.results.values():
            if not result.ok:
                lines.append("")
                lines.append(result.render())
        return "\n".join(lines)


def run_crashtest(
    workload: str,
    design: str,
    crashes: int = 50,
    seed: int = 7,
    torn: bool = False,
    writeback_faults: bool = True,
    drop_faults: bool = True,
    shrink: bool = True,
    cfg: Optional[WorkloadConfig] = None,
    machine_cfg: MachineConfig = TABLE_I,
) -> CrashTestResult:
    """Crash one (workload, design) cell ``crashes`` times and validate."""
    from repro.chaos.shrink import shrink_crash_point

    harness = CrashHarness(workload, design, cfg=cfg, machine_cfg=machine_cfg)
    schedules = sample_schedules(
        crashes,
        seed,
        writeback_faults=writeback_faults,
        drop_faults=drop_faults,
        torn=torn,
    )
    result = CrashTestResult(
        workload=workload,
        design=design,
        seed=seed,
        expect_failures=(design == "non-atomic") or torn,
        horizon=harness.horizon,
        total_ops=harness.total_ops,
        lint_errors=len(harness.lint.errors),
    )
    for i, schedule in enumerate(schedules):
        result.samples.append(harness.crash_schedule(schedule, index=i))
    if shrink and result.violations:
        first = next(s for s in result.samples if s.violation)
        result.shrunk = shrink_crash_point(harness, first.plan)
    return result


def run_differential(
    workload: str,
    crashes: int = 50,
    seed: int = 7,
    torn: bool = False,
    writeback_faults: bool = True,
    drop_faults: bool = True,
    shrink: bool = False,
    cfg: Optional[WorkloadConfig] = None,
    machine_cfg: MachineConfig = TABLE_I,
    designs: Optional[Sequence[str]] = None,
) -> DifferentialResult:
    """Replay the same crash schedules on every design (the oracle)."""
    out = DifferentialResult(workload=workload, seed=seed)
    for design in designs or DESIGNS:
        out.results[design] = run_crashtest(
            workload,
            design,
            crashes=crashes,
            seed=seed,
            torn=torn,
            writeback_faults=writeback_faults,
            drop_faults=drop_faults,
            shrink=shrink,
            cfg=cfg,
            machine_cfg=machine_cfg,
        )
    return out
