"""End-to-end crash-injection harness tests.

Small crash counts keep this suite fast; the CI smoke job and the CLI
acceptance run exercise the full 50-crash cells.
"""

import gc
import weakref

import pytest

from repro.__main__ import main
from repro.chaos import (
    CrashHarness,
    CrashTrigger,
    FaultPlan,
    run_crashtest,
    run_differential,
    run_soak,
    shrink_crash_point,
)
from repro.chaos import harness as chaos_harness
from repro.chaos.harness import canonical_run
from repro.sim.machine import DESIGNS, Machine
from repro.workloads import WORKLOADS, WorkloadConfig, generate_for_design

FAST_CFG = WorkloadConfig(
    n_threads=3, ops_per_thread=8, log_entries=1024, pm_size=1 << 20
)


def test_strandweaver_recovers_every_crash():
    result = run_crashtest(
        "queue", "strandweaver", crashes=10, seed=7, cfg=FAST_CFG
    )
    assert result.ok
    assert not result.violations
    assert len(result.samples) == 10


def test_nonatomic_violates_and_is_expected_to():
    result = run_crashtest(
        "queue", "non-atomic", crashes=10, seed=7, cfg=FAST_CFG, shrink=False
    )
    assert result.expect_failures
    assert result.violations, "NON-ATOMIC produced no violations: checker is blind"
    assert result.ok  # failures are the expected outcome
    msg = result.violations[0]
    assert "seed=" in msg and "non-atomic" in msg


def test_differential_oracle_all_designs():
    diff = run_differential("queue", crashes=4, seed=11, cfg=FAST_CFG)
    assert set(diff.results) == set(DESIGNS)
    for design, result in diff.results.items():
        if design == "non-atomic":
            assert result.expect_failures and result.violations
        else:
            assert not result.expect_failures and not result.violations
    assert diff.ok
    rendered = diff.render()
    assert "PASS" in rendered and "non-atomic" in rendered


def test_shrink_finds_smaller_failing_crash_point():
    harness = CrashHarness("queue", "non-atomic", cfg=FAST_CFG)
    result = run_crashtest(
        "queue", "non-atomic", crashes=10, seed=7, cfg=FAST_CFG, shrink=False
    )
    failing = next(s for s in result.samples if s.violation)
    shrunk = shrink_crash_point(harness, failing.plan)
    assert shrunk is not None, "failure did not reproduce: determinism lost"
    assert shrunk.minimal_at <= failing.plan.trigger.at
    assert shrunk.violation
    assert "minimal failing crash point" in shrunk.describe()


def test_crash_state_reports_hardware_occupancy():
    harness = CrashHarness("queue", "strandweaver", cfg=FAST_CFG)
    plan = FaultPlan(trigger=CrashTrigger("cycle", harness.horizon * 0.5))
    stats = Machine("strandweaver", harness.machine_cfg).run(
        harness.run.program, fault_plan=plan
    )
    crash = stats.crash
    assert crash is not None
    assert crash.cycle == plan.trigger.at
    assert "pm_write_queue" in crash.occupancy
    per_core = crash.occupancy["cores"]
    assert set(per_core) == {0, 1, 2}
    for occ in per_core.values():
        assert set(occ) == {"persist_queue", "strand_buffers"}
    summary = crash.summary()
    assert summary["design"] == "strandweaver"
    assert summary["durable_stores"] == len(crash.durable)


def test_ops_trigger_crashes_mid_program():
    harness = CrashHarness("queue", "strandweaver", cfg=FAST_CFG)
    plan = FaultPlan(trigger=CrashTrigger("ops", harness.total_ops // 2))
    stats = Machine("strandweaver", harness.machine_cfg).run(
        harness.run.program, fault_plan=plan
    )
    assert stats.crash is not None
    n_stores = len(harness.run.program.pm_stores())
    assert len(stats.crash.durable) < n_stores


def test_cycles_identical_with_and_without_tracking():
    """The durability tracker must be timing-neutral: a fault plan whose
    trigger never fires yields bit-identical cycle counts."""
    run = generate_for_design(
        WORKLOADS["queue"], FAST_CFG, "strandweaver", "txn", durable_commit=True
    )
    clean = Machine("strandweaver").run(run.program)
    never = FaultPlan(trigger=CrashTrigger("cycle", 1e18))
    tracked = Machine("strandweaver").run(run.program, fault_plan=never)
    assert tracked.cycles == clean.cycles
    assert [c.cycles for c in tracked.per_core] == [
        c.cycles for c in clean.per_core
    ]
    assert tracked.crash is not None  # outran trigger: full-recovery image


def test_harness_rejects_unknown_names():
    with pytest.raises(ValueError):
        CrashHarness("queue", "sparc")
    with pytest.raises(ValueError):
        CrashHarness("no-such-workload", "strandweaver")


@pytest.mark.parametrize("argv", [
    ["crashtest", "queue", "--crashes", "1", "--ops", "1024"],
    ["crashtest", "queue", "--crashes", "1", "--ops", "16"],
    ["crashtest", "queue", "--crashes", "1", "--model", "atlas"],
    ["soak", "queue", "--seeds", "1", "--ops", "16"],
    ["soak", "queue", "--seeds", "1", "--model", "redo-txn"],
])
def test_cli_refuses_flags_the_chaos_config_ignores(argv, usage_error, capsys):
    """Crash campaigns always run CHAOS_CFG with the txn model, so their
    parsers have no scale or model flag, and ``--help`` says why."""
    flag = argv[-2]
    assert flag in usage_error(argv)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "CHAOS_CFG" in usage and "txn" in usage


# -- one functional run per workload, lint only where a verdict reads it ------


@pytest.fixture
def calls(monkeypatch):
    """Count the crash harness's generation and lint calls, from an empty
    canonical-run slot."""
    counts = {"generate_canonical": 0, "generate_for_design": 0, "analyze": 0}

    def counting(name):
        real = getattr(chaos_harness, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(chaos_harness, name, wrapper)

    for name in counts:
        counting(name)
    canonical_run.cache_clear()
    yield counts
    canonical_run.cache_clear()


def test_soak_over_every_design_generates_once_and_never_lints(calls):
    result = run_soak("queue", seeds=10, seed=11, designs=None, cfg=FAST_CFG)
    assert len({case.design for case in result.cases}) > 1
    assert calls == {"generate_canonical": 1, "generate_for_design": 0, "analyze": 0}


def test_single_design_soaks_back_to_back_share_one_run(calls):
    for design in sorted(DESIGNS):
        run_soak("queue", seeds=1, seed=3, designs=[design], cfg=FAST_CFG)
    assert calls == {"generate_canonical": 1, "generate_for_design": 0, "analyze": 0}


def test_differential_generates_once_and_lints_each_harness_once(calls):
    diff = run_differential("queue", crashes=1, seed=11, cfg=FAST_CFG)
    assert diff.ok
    assert calls == {
        "generate_canonical": 1,
        "generate_for_design": 0,
        "analyze": len(DESIGNS),
    }


def test_lint_runs_on_first_read_only(calls):
    harness = CrashHarness("queue", "non-atomic", cfg=FAST_CFG)
    assert calls["analyze"] == 0
    assert harness.lint is harness.lint
    assert calls["analyze"] == 1
    assert harness.lint.errors


def test_slot_holds_only_the_latest_workload():
    canonical_run.cache_clear()
    CrashHarness("queue", "strandweaver", cfg=FAST_CFG)
    queue_run = weakref.ref(canonical_run("queue", FAST_CFG))
    CrashHarness("hashmap", "strandweaver", cfg=FAST_CFG)
    gc.collect()
    assert queue_run() is None, "the slot still holds queue's run"
    info = canonical_run.cache_info()
    assert info.currsize == 1
    canonical_run("hashmap", FAST_CFG)
    assert canonical_run.cache_info().hits == info.hits + 1
    canonical_run.cache_clear()

