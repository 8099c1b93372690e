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
from repro.core.ops import OpKind
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


def test_crash_state_holds_the_frontier_at_the_trigger():
    """A cycle trigger stops the machine at that cycle; durable and
    in-flight stores come in gseq order and never overlap.  The op-count
    crash is the one that leaves stores in flight at this scale."""
    harness = CrashHarness("queue", "strandweaver", cfg=FAST_CFG)
    at_cycle = FaultPlan(trigger=CrashTrigger("cycle", harness.horizon * 0.5))
    at_ops = FaultPlan(trigger=CrashTrigger("ops", harness.total_ops // 2))
    machine = Machine("strandweaver", harness.machine_cfg)
    cycle_crash = machine.run(harness.run.program, fault_plan=at_cycle).crash
    assert cycle_crash is not None
    assert cycle_crash.cycle == at_cycle.trigger.at
    ops_crash = machine.run(harness.run.program, fault_plan=at_ops).crash
    assert ops_crash is not None and ops_crash.in_flight
    for crash in (cycle_crash, ops_crash):
        durable = [rec.op.gseq for rec in crash.durable]
        in_flight = [rec.op.gseq for rec in crash.in_flight]
        assert durable and durable == sorted(durable)
        assert in_flight == sorted(in_flight)
        assert not set(durable) & set(in_flight)


def test_ops_trigger_crashes_mid_program():
    harness = CrashHarness("queue", "strandweaver", cfg=FAST_CFG)
    plan = FaultPlan(trigger=CrashTrigger("ops", harness.total_ops // 2))
    stats = Machine("strandweaver", harness.machine_cfg).run(
        harness.run.program, fault_plan=plan
    )
    assert stats.crash is not None
    n_stores = sum(op.kind is OpKind.STORE for op in harness.run.program.all_ops())
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
    chaos_harness._DIALECT_SLOT.clear()
    yield counts
    canonical_run.cache_clear()
    chaos_harness._DIALECT_SLOT.clear()


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
    chaos_harness._DIALECT_SLOT.clear()
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


def test_designs_of_one_dialect_share_one_run_and_dag():
    """no-persist-queue and strandweaver both replay the strand dialect,
    so back-to-back harnesses of the two share its program and DAG."""
    chaos_harness._DIALECT_SLOT.clear()
    npq = CrashHarness("queue", "no-persist-queue", cfg=FAST_CFG)
    sw = CrashHarness("queue", "strandweaver", cfg=FAST_CFG)
    assert sw.run is npq.run and sw.dag is npq.dag
    x86 = CrashHarness("queue", "intel-x86", cfg=FAST_CFG)
    assert x86.dag is not sw.dag
    chaos_harness._DIALECT_SLOT.clear()


def test_differential_builds_one_dag_per_dialect_one_at_a_time(monkeypatch):
    """Five designs, four dialects: a differential builds four DAGs, and
    by the time it builds one, no earlier one is alive."""
    chaos_harness._DIALECT_SLOT.clear()
    real = chaos_harness.PersistDag
    built = []

    def building(program):
        gc.collect()
        assert [ref for ref in built if ref() is not None] == [], "an older DAG is alive"
        dag = real(program)
        built.append(weakref.ref(dag))
        return dag

    monkeypatch.setattr(chaos_harness, "PersistDag", building)
    assert run_differential("queue", crashes=1, seed=11, cfg=FAST_CFG).ok
    assert len(built) == 4
    chaos_harness._DIALECT_SLOT.clear()
