"""Cross-engine and cross-path identity properties.

The simulator has two engine tiers (the reference per-op engine and the
native C replay core) and two trace-production paths (direct
per-dialect generation, generate-once + specialize).  Every pair must be
bit-identical:

* a specialized program is op-for-op identical — every field of every
  op, the lock order, the numbering, the PM image — to one generated
  directly with the concrete dialect, at the figures' scale and at the
  crash harness's (``CHAOS_CFG``, commit-durable txn), whose every
  crash program is specialized;
* the specialized program's replay columns (what the native core
  replays) equal a fresh compile of its built ops;
* the default tier reproduces the reference engine's ``MachineStats``
  exactly, per core and per field, across all five designs.

Engine selection pins: ``REPRO_SIM_REFERENCE=1`` forces the reference
engine; unset, the native core runs when a C compiler is available and
the reference engine runs otherwise — both must agree, so these tests
pass with or without a toolchain.
"""

import warnings
from dataclasses import replace

import pytest

from repro.chaos import CrashTrigger, FaultPlan
from repro.chaos.harness import CHAOS_CFG
from repro.core.ops import CACHE_LINE, Program, TraceCursor
from repro.faults import MediaFaultConfig, MediaFaultModel
from repro.harness.experiment import default_config
from repro.obs import NULL_TRACER, Tracer
from repro.sim import cnative
from repro.sim.config import TABLE_I
from repro.sim.machine import DESIGNS, PRUNE_PERIOD, Machine
from repro.workloads import WORKLOADS
from repro.workloads.base import (
    generate_canonical,
    generate_for_design,
    specialize_run,
)
from tests.sim.test_op_stream_pins import assert_columns_match_ops

#: every Table II benchmark, small: queue exercises locks + logs, rbtree
#: recursion-heavy updates, nstore-wr write back-pressure, tpcc many
#: locks per region.
BENCHMARKS = tuple(WORKLOADS)

CFG = default_config(ops_per_thread=12)

#: generation inputs, (workload config, txn model knobs): the figures'
#: scale, and the crash harness's.
INPUTS = {
    "figures": (CFG, {}),
    "chaos": (CHAOS_CFG, {"durable_commit": True}),
}


def _stats_fields(stats):
    return [dict(c.__dict__) for c in stats.per_core]


@pytest.fixture(scope="module")
def canonical_runs():
    return {
        name: {b: generate_canonical(WORKLOADS[b], cfg, "txn", **kw) for b in BENCHMARKS}
        for name, (cfg, kw) in INPUTS.items()
    }


@pytest.fixture(scope="module")
def canonical(canonical_runs):
    return canonical_runs["figures"]


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("inputs", sorted(INPUTS))
def test_specialized_equals_direct_generation(canonical_runs, inputs, workload, design):
    """Specialize-from-canonical must reproduce direct generation
    op-for-op: all fields, all numbering, the lock order, the PM image."""
    cfg, model_kwargs = INPUTS[inputs]
    spec = specialize_run(canonical_runs[inputs][workload], design)
    direct = generate_for_design(WORKLOADS[workload], cfg, design, "txn", **model_kwargs)
    sp, dp = spec.program, direct.program
    assert sp.n_threads == dp.n_threads
    assert sp.lock_order == dp.lock_order
    assert sp._next_gseq == dp._next_gseq
    for st, dt in zip(sp.threads, dp.threads):
        assert len(st.ops) == len(dt.ops)
        for so, do in zip(st.ops, dt.ops):
            assert so == do, f"{workload}/{design}: {so!r} != {do!r}"
    assert spec.space.snapshot() == direct.space.snapshot()


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_derived_arrays_equal_fresh_compile(canonical, workload, design):
    """The replay columns of a specialized trace (patched/sliced from the
    canonical columns) must equal compiling its built ops from scratch."""
    spec = specialize_run(canonical[workload], design)
    for trace in spec.program.threads:
        assert_columns_match_ops(trace)


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fast_engines_match_reference(monkeypatch, canonical, workload, design):
    """Reference vs default (native when available): identical summary
    and identical per-core stats, field for field.  Where the core is
    available it must also accept the run: a silent decline would
    compare the reference engine with itself."""
    program = specialize_run(canonical[workload], design).program

    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine(design).run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")

    native = Machine(design).run(program)

    assert native.summary() == ref.summary()
    assert _stats_fields(native) == _stats_fields(ref)
    if cnative.available():
        per_core = cnative.run_native(design, program, TABLE_I, True, PRUNE_PERIOD)
        assert per_core is not None, f"native core declined {workload}/{design}"
        assert [c.__dict__ for c in per_core] == _stats_fields(ref)


def test_native_core_declines_cleanly(monkeypatch, tmp_path, canonical):
    """Without a C compiler run_native returns None (it does not raise),
    the first run says why in one RuntimeWarning, and every run replays
    on the reference engine with its exact stats."""
    program = specialize_run(canonical["queue"], "strandweaver").program
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine("strandweaver").run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")

    monkeypatch.setattr(cnative, "_find_cc", lambda: None)
    monkeypatch.setattr(cnative, "_lib", None)
    monkeypatch.setattr(cnative, "_lib_failed", False)
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))

    with warnings.catch_warnings(record=True) as first:
        warnings.simplefilter("always")
        stats = Machine("strandweaver").run(program)
    assert [w.category for w in first] == [RuntimeWarning]
    assert "no C compiler" in str(first[0].message)
    assert stats.summary() == ref.summary()
    assert _stats_fields(stats) == _stats_fields(ref)

    with warnings.catch_warnings(record=True) as second:
        warnings.simplefilter("always")
        again = Machine("strandweaver").run(program)
        assert cnative.run_native("strandweaver", program, TABLE_I, True, 4096) is None
    assert second == []
    assert _stats_fields(again) == _stats_fields(ref)


def parked_core_program(n_lines=256, ahead=2_037_000):
    """Two cores whose live bandwidth-window span outgrows the native
    core's initial window ring (4,096 windows).

    Core 0 flushes a line, then parks on a lock that core 1 is first to
    take.  Core 1 runs ``ahead`` cycles of compute under the lock and
    flushes a burst of ``n_lines`` lines.  The parked core's clock holds
    the prune floor near zero meanwhile, so the burst's PM acceptance
    windows lie about 250,000 windows above it.  Its media windows fill
    faster than its clock moves, and ``ahead`` starts them just below
    2**15: the burst also runs off the end of the grown media ring.
    No fences: the program replays on every design.
    """
    program = Program(2)
    early, hog = TraceCursor(program, 0), TraceCursor(program, 1)
    hog.lock(0)  # first in lock 0's order: core 0 waits for the release
    early.store(0, b"\x01" * 8)
    early.clwb(0)
    early.lock(0)
    hog.compute(ahead)
    for i in range(1, n_lines + 1):
        hog.store(i * CACHE_LINE, i.to_bytes(8, "little"))
        hog.clwb(i * CACHE_LINE)
    hog.unlock(0)
    early.store(0, b"\x02" * 8)
    early.clwb(0)
    early.unlock(0)
    return program


def dirty_handoff_program(n_lines=300):
    """Two cores that lean on the native core's line-map deletions.

    Core 0, first to take the lock, dirties ``n_lines`` lines in its L1
    and flushes every other one, so the dirty-owner map loses entries
    from the middle of its probe runs.  Core 1 then reads every line and
    must steal each one still dirty in core 0's L1.  A deletion that
    broke a probe run would hide an owner, and the steal, and its
    coherence cost.
    """
    program = Program(2)
    owner, reader = TraceCursor(program, 0), TraceCursor(program, 1)
    owner.lock(0)
    for i in range(n_lines):
        owner.store(i * CACHE_LINE, i.to_bytes(8, "little"))
    for i in range(0, n_lines, 2):
        owner.clwb(i * CACHE_LINE)
    owner.unlock(0)
    reader.lock(0)
    for i in range(n_lines):
        reader.load(i * CACHE_LINE, 8)
    reader.unlock(0)
    return program


PROGRAMS = {"parked-core": parked_core_program, "dirty-handoff": dirty_handoff_program}


@pytest.mark.parametrize("name", ("queue", *PROGRAMS))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_prune_period_is_result_neutral(monkeypatch, canonical, design, name):
    """The native core's periodic resource pruning must not perturb
    stats: at prune periods 1, 64 and effectively never it replays
    bit-identically to the reference engine, and so to itself.  The
    queue program runs for over 300,000 cycles: at periods 1 and 64 the
    floor drags its 4,096-window rings round 10 to 30 times, and
    unpruned its PM-acceptance ring grows to 65,536 windows.  The
    parked-core program grows the rings while the floor stays put, and
    the dirty-handoff program deletes from the middle of probe runs."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    if name in PROGRAMS:
        program = PROGRAMS[name]()
    else:
        program = specialize_run(canonical[name], design).program
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = _stats_fields(Machine(design).run(program))
    by_period = {}
    for period in (1, 64, 1 << 30):
        per_core = cnative.run_native(design, program, TABLE_I, True, period)
        assert per_core is not None, f"native core declined at period {period}"
        by_period[period] = [c.__dict__ for c in per_core]
    assert by_period[1] == by_period[64] == by_period[1 << 30] == ref


def test_native_runs_do_not_see_earlier_runs(monkeypatch, canonical):
    """The native core keeps the L2's tag arrays between runs: no run may
    see what an earlier one, of another program or another L2 geometry,
    left in them."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    tiny_l2 = replace(TABLE_I, l2=replace(TABLE_I.l2, size_bytes=16 * 1024))
    queue = specialize_run(canonical["queue"], "strandweaver").program
    tpcc = specialize_run(canonical["tpcc"], "intel-x86").program
    # cold caches, so a line left in the L2 would turn a miss into a hit
    first = Machine("intel-x86", tiny_l2).run(tpcc, warm=False)
    Machine("strandweaver", tiny_l2).run(queue)
    again = Machine("intel-x86", tiny_l2).run(tpcc, warm=False)
    table_i = Machine("intel-x86").run(tpcc, warm=False)
    assert _stats_fields(again) == _stats_fields(first)
    assert _stats_fields(table_i) != _stats_fields(first)  # the L2 matters

    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    for cfg, stats in ((tiny_l2, first), (TABLE_I, table_i)):
        ref = Machine("intel-x86", cfg).run(tpcc, warm=False)
        assert _stats_fields(stats) == _stats_fields(ref)


def test_wrong_fence_exception_identical_across_engines(monkeypatch):
    """A trace carrying a fence foreign to the design must raise the
    same ValueError (message included) from both engine tiers."""
    program = specialize_run(
        generate_canonical(WORKLOADS["queue"], CFG, "txn"), "intel-x86"
    ).program  # SFENCE traces are foreign to strandweaver

    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    with pytest.raises(ValueError) as ref_err:
        Machine("strandweaver").run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")

    with pytest.raises(ValueError) as fast_err:
        Machine("strandweaver").run(program)
    assert str(fast_err.value) == str(ref_err.value)


@pytest.mark.parametrize("how, native", [
    ("plain", True),
    ("prof-phases-env", True),
    ("tracer", False),
    ("fault-plan", False),
    ("media-faults", False),
    ("reference-env", False),
])
def test_only_a_tracer_fault_or_reference_env_skips_the_native_core(
    monkeypatch, canonical, how, native
):
    """A tracer, a fault plan, media faults and REPRO_SIM_REFERENCE send
    a run to the reference engine; every other run reaches the native
    core, REPRO_PROF_PHASES included (no hook reads it)."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
    monkeypatch.delenv("REPRO_PROF_PHASES", raising=False)
    env = {"reference-env": "REPRO_SIM_REFERENCE",
           "prof-phases-env": "REPRO_PROF_PHASES"}.get(how)
    if env is not None:
        monkeypatch.setenv(env, "1")
    calls = []
    run_native = cnative.run_native

    def counting(*args):
        calls.append(args[0])
        return run_native(*args)

    monkeypatch.setattr(cnative, "run_native", counting)
    program = specialize_run(canonical["queue"], "strandweaver").program
    machine = Machine("strandweaver", tracer=Tracer() if how == "tracer" else NULL_TRACER)
    run_kw = {
        "fault-plan": {"fault_plan": FaultPlan(trigger=CrashTrigger("cycle", 1e18))},
        "media-faults": {"media_faults": MediaFaultModel(
            MediaFaultConfig(seed=1, write_fail_prob=0.01))},
    }.get(how, {})
    machine.run(program, **run_kw)
    assert calls == (["strandweaver"] if native else [])
