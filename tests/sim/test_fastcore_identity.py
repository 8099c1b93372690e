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
  replays) equal columns built afresh from its ops;
* the default tier reproduces the reference engine's ``MachineStats``
  exactly, per core and per field, across all five designs;
* under a fault plan the default tier crashes where the reference
  engine does and leaves the same ``CrashState`` and the same partial
  per-core stats;
* under media faults, clean or crashed, the default tier draws the same
  faults as the reference engine, reports the same fault summary and
  leaves a passed-in fault model in the same state.

Engine selection pins: ``REPRO_SIM_REFERENCE=1`` forces the reference
engine; unset, the native core runs when a C compiler is available and
the reference engine runs otherwise — both must agree, so these tests
pass with or without a toolchain.
"""

import random
import warnings
from array import array
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.litmus import LITMUS
from repro.chaos import CrashTrigger, FaultPlan
from repro.chaos.harness import CHAOS_CFG
from repro.chaos.plan import sample_schedules
from repro.chaos.soak import sample_case_schedule
from repro.core.ops import CACHE_LINE, Program, TraceCursor
from repro.core.strand_buffer import StrandBuffer
from repro.faults import MediaFaultConfig, MediaFaultModel
from repro.harness.experiment import default_config
from repro.obs import NULL_TRACER, Tracer
from repro.sim import cnative
from repro.sim.config import TABLE_I
from repro.sim.durability import SOURCE_CLWB, SOURCE_WRITEBACK
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
    canonical columns) must equal columns built from its ops from scratch."""
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
        stats = cnative.run_native(design, program, TABLE_I, True, PRUNE_PERIOD)
        assert stats is not None, f"native core declined {workload}/{design}"
        assert _stats_fields(stats) == _stats_fields(ref)


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
    """Two cores that lean on clearing a line's dirty owner.

    Core 0, first to take the lock, dirties ``n_lines`` lines in its L1
    and flushes every other one, which clears the flushed lines' dirty
    owner and leaves the rest owned.  Core 1 then reads every line and
    must steal each one still dirty in core 0's L1.  An owner cleared
    for the wrong line would hide the steal and its coherence cost, and
    one left set would steal a clean line.
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
    the dirty-handoff program clears dirty owners between its steals."""
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
        stats = cnative.run_native(design, program, TABLE_I, True, period)
        assert stats is not None, f"native core declined at period {period}"
        by_period[period] = _stats_fields(stats)
    assert by_period[1] == by_period[64] == by_period[1 << 30] == ref


def snoop_stall_program(gaps=(50, 160, 400, 1200), n_lines=8):
    """Two cores whose loads snoop lines the other core's strand buffers
    still hold, which no benchmark workload does.

    For each line the owner stores and CLWBs it, starts a new strand,
    stores and CLWBs it again and stores it a third time, so the line is
    dirty in its L1 with a CLWB in flight in one strand buffer, or in
    two.  The reader loads each line after a compute gap from ``gaps``:
    some loads arrive before the line's CLWBs retire (a snoop stall),
    the rest after (the stale entry is deleted), and with two or more
    buffers the 160-cycle gap lands between the two retire times of
    line 1 (one buffer stalls, the other deletes).
    """
    program = Program(2)
    owner, reader = TraceCursor(program, 0), TraceCursor(program, 1)
    for i in range(n_lines):
        owner.store(i * CACHE_LINE, b"\x01" * 8)
        owner.clwb(i * CACHE_LINE)
        owner.new_strand()
        owner.store(i * CACHE_LINE, b"\x02" * 8)
        owner.clwb(i * CACHE_LINE)
        owner.store(i * CACHE_LINE, b"\x03" * 8)
    for i in range(n_lines):
        reader.compute(gaps[i % len(gaps)])
        reader.load(i * CACHE_LINE, 8)
    return program


def snoop_reorder_program(n_rewrites=16, gap=30):
    """Two cores that snoop one line again and again while two of its
    CLWBs are buffered, the younger due first.

    The owner flushes six other lines, sets a persist barrier, and
    stores and CLWBs the line, so that CLWB waits behind the barrier;
    then it starts a new strand and stores and CLWBs the line again,
    which (with two or more buffers) retires first.  It then re-dirties
    the line every ``gap`` cycles while the reader loads it every
    ``gap`` cycles: each load snoops the line's buffered CLWBs, over and
    over before either retires, between the two retire times, and
    after both.  After each load the reader loads two more lines of
    the line's L1 set, which evict it, so every load of the line misses
    the L1 and its stall shows in the reader's clock.
    """
    program = Program(2)
    owner, reader = TraceCursor(program, 0), TraceCursor(program, 1)
    line = 5 * CACHE_LINE
    for i in range(9, 15):
        owner.store(i * CACHE_LINE, b"\x01" * 8)
        owner.clwb(i * CACHE_LINE)
    owner.persist_barrier()
    owner.store(line, b"\x01" * 8)
    owner.clwb(line)
    owner.new_strand()
    owner.store(line, b"\x02" * 8)
    owner.clwb(line)
    for _ in range(n_rewrites):
        owner.store(line, b"\x03" * 8)
        owner.compute(gap)
    reader.compute(400)
    for _ in range(n_rewrites):
        for way in range(3):
            reader.load(line + way * TABLE_I.l1d.n_sets * CACHE_LINE, 8)
        reader.compute(gap)
    return program


SNOOP_PROGRAMS = {"handoff": snoop_stall_program, "reorder": snoop_reorder_program}


@pytest.mark.parametrize("name", sorted(SNOOP_PROGRAMS))
@pytest.mark.parametrize("buffers", (1, 2, 4))
@pytest.mark.parametrize("design", ("no-persist-queue", "strandweaver"))
def test_native_snoop_stalls_match_reference(monkeypatch, design, buffers, name):
    """The strand-buffer snoop stall (Section IV): a load of a line dirty
    in another core's L1 waits for that core's buffered CLWBs of the
    line, and a buffer entry that has retired by then is deleted.  The
    reference run must take at least one stall and one deletion, and
    the native core must match it at prune periods 1, 64 and never."""
    cfg = TABLE_I.with_strand(buffers, 2)
    program = SNOOP_PROGRAMS[name]()
    seen = Counter()
    line_drain_time = StrandBuffer.line_drain_time

    def counting(self, line, t):
        retire = self._line_retire.get(line)
        if retire is not None:
            seen["stall" if retire > t else "deletion"] += 1
        return line_drain_time(self, line, t)

    monkeypatch.setattr(StrandBuffer, "line_drain_time", counting)
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = _stats_fields(Machine(design, cfg).run(program))
    assert seen["stall"] >= 1 and seen["deletion"] >= 1, seen
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    for period in (1, 64, 1 << 30):
        stats = cnative.run_native(design, program, cfg, True, period)
        assert stats is not None, f"native core declined at period {period}"
        assert _stats_fields(stats) == ref, f"prune period {period}"


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
    ("fault-plan", True),
    ("media-plan", True),
    ("line-crossing-store", False),
    ("media-faults", True),
    ("reference-env", False),
])
def test_only_a_tracer_line_crossing_store_or_reference_env_skips_the_native_core(
    monkeypatch, canonical, how, native
):
    """A tracer and REPRO_SIM_REFERENCE send a run to the reference
    engine, and so does a crash run of a program whose STORE crosses a
    cache line (the C core records one line per op, the tracker waits
    for every line a store touches); every other run reaches the native
    core, fault plans, media faults (passed in, or enabled in a fault
    plan) and REPRO_PROF_PHASES included."""
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

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run_native(*args, **kwargs)

    monkeypatch.setattr(cnative, "run_native", counting)
    program = specialize_run(canonical["queue"], "strandweaver").program
    if how == "line-crossing-store":
        # one 128-byte STORE across two lines (on_line_cross="allow")
        program = LITMUS["torn-store"].build()
    machine = Machine("strandweaver", tracer=Tracer() if how == "tracer" else NULL_TRACER)
    trigger = CrashTrigger("cycle", 1e18)
    media = MediaFaultConfig(seed=1, write_fail_prob=0.01)
    run_kw = {
        "fault-plan": {"fault_plan": FaultPlan(trigger=trigger)},
        "media-plan": {"fault_plan": FaultPlan(trigger=trigger, media=media)},
        "line-crossing-store": {"fault_plan": FaultPlan(trigger=trigger)},
        "media-faults": {"media_faults": MediaFaultModel(media)},
    }.get(how, {})
    stats = machine.run(program, **run_kw)
    assert calls == (["strandweaver"] if native else [])
    assert (stats.crash is not None) == ("fault_plan" in run_kw)


def _crash_fields(stats):
    """What a crash run returns: the crash cycle, each durable and
    in-flight record (gseq, retire, durable time, source) in order, and
    the cut run's per-core stats."""
    crash = stats.crash

    def records(recs):
        return [(r.op.gseq, r.retire, r.durable, r.source) for r in recs]

    return (
        crash.cycle, records(crash.durable), records(crash.in_flight),
        _stats_fields(stats),
    )


@pytest.fixture
def native_accepts(monkeypatch):
    """Designs of the runs the native core accepted (returned stats for)."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment: both tiers are the reference")
    accepted = []
    run_native = cnative.run_native

    def counting(*args, **kwargs):
        stats = run_native(*args, **kwargs)
        if stats is not None:
            accepted.append(args[0])
        return stats

    monkeypatch.setattr(cnative, "run_native", counting)
    return accepted


def _assert_crashes_match(
    monkeypatch, accepted, design, program, triggers, cfg=TABLE_I
):
    """Crash ``program`` at each trigger on the default tier and on the
    reference engine: equal crash states and partial stats, and the
    native core accepted every default-tier run.  Returns the crashes."""
    crashes = []
    for trigger in triggers:
        plan = FaultPlan(trigger=trigger)
        monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
        native = Machine(design, cfg).run(program, fault_plan=plan)
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        ref = Machine(design, cfg).run(program, fault_plan=plan)
        assert _crash_fields(native) == _crash_fields(ref), trigger.describe()
        crashes.append(ref.crash)
    assert accepted == [design] * len(triggers)
    return crashes


def _schedule_triggers(design, program, cfg, seeds):
    """The triggers of ``sample_schedules(10, seed)`` concretised on
    ``program`` as a crash harness concretises them."""
    horizon = float(Machine(design, cfg).run(program).cycles)
    total_ops = sum(len(t) for t in program.threads)
    return horizon, [
        schedule.concretise(horizon, total_ops).trigger
        for seed in seeds
        for schedule in sample_schedules(10, seed)
    ]


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_crash_runs_match_reference(
    monkeypatch, canonical_runs, native_accepts, workload, design
):
    """Every crash schedule of a soak or crashtest campaign at
    ``CHAOS_CFG`` (seeds 7 and 11, concretised as a harness does), plus
    the edge triggers (the first op, cycle 1, and one past the end, where
    power fails after the final drain), crashes the native core exactly
    where the reference engine crashes."""
    program = specialize_run(canonical_runs["chaos"][workload], design).program
    horizon, triggers = _schedule_triggers(design, program, TABLE_I, (7, 11))
    native_accepts.clear()
    triggers += [
        CrashTrigger("ops", 1),
        CrashTrigger("cycle", 1.0),
        CrashTrigger("cycle", 2 * horizon),
    ]
    _assert_crashes_match(monkeypatch, native_accepts, design, program, triggers)


#: a machine whose caches are small enough that random traffic over a
#: few hundred lines evicts dirty lines from the L2 all the time.
SMALL_CACHES = replace(
    TABLE_I,
    l1d=replace(TABLE_I.l1d, size_bytes=1024),
    l2=replace(TABLE_I.l2, size_bytes=8 * 1024, assoc=4),
)


def random_program(seed, n_threads=3, n_ops=100, n_lines=400):
    """Fence-free random traffic over ``n_lines`` PM lines, which every
    design replays: stores, CLWBs (half of them of the thread's last
    stored line), loads and compute, in a seeded interleaving."""
    rng = random.Random(seed)
    program = Program(n_threads)
    cursors = [TraceCursor(program, t) for t in range(n_threads)]
    last = [0] * n_threads
    for _ in range(n_ops * n_threads):
        tid = rng.randrange(n_threads)
        cursor = cursors[tid]
        addr = rng.randrange(n_lines) * CACHE_LINE
        roll = rng.random()
        if roll < 0.5:
            cursor.store(addr + 8 * rng.randrange(8), rng.randbytes(8))
            last[tid] = addr
        elif roll < 0.7:
            cursor.clwb(last[tid] if rng.random() < 0.5 else addr)
        elif roll < 0.9:
            cursor.load(addr, 8)
        else:
            cursor.compute(rng.randrange(1, 200))
    return program


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_crash_runs_match_reference_on_random_traffic(
    monkeypatch, native_accepts, design
):
    """The crash workloads flush each store at once, on its own core, so
    two durability paths hardly occur in them.  Random traffic over 400
    lines on 1 KiB L1s and an 8 KiB L2 writes dirty L2 victims back to
    PM all the time, so stores owe durability to write-backs.  Random
    traffic over 8 lines on Table I makes cores store to lines that
    other cores are flushing, so a CLWB's content time (its slot, not
    its departure) decides which stores it covers.  On both, the native
    core's crashes must match the tracker's."""
    crashes = []
    for n_lines, cfg in ((400, SMALL_CACHES), (8, TABLE_I)):
        for seed in range(3):
            program = random_program(seed, n_lines=n_lines)
            horizon, triggers = _schedule_triggers(design, program, cfg, (7,))
            native_accepts.clear()
            crashes += _assert_crashes_match(
                monkeypatch, native_accepts, design, program,
                triggers + [CrashTrigger("cycle", 2 * horizon)], cfg,
            )
    sources = {rec.source for crash in crashes for rec in crash.durable}
    assert sources == {SOURCE_CLWB, SOURCE_WRITEBACK}


def handoff_program(compute=1000):
    """Core 1 holds lock 0 through ``compute`` cycles while core 0 parks
    on it; the release wakes core 0 keyed at the release time, far above
    its own clock (0, as parking commits nothing)."""
    program = Program(2)
    waiter, holder = TraceCursor(program, 0), TraceCursor(program, 1)
    holder.lock(0)  # first in lock 0's order
    holder.compute(compute)
    holder.unlock(0)
    waiter.lock(0)
    waiter.store(0, b"\x01" * 8)
    waiter.clwb(0)
    waiter.unlock(0)
    return program


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_crash_while_a_core_is_parked(monkeypatch, native_accepts, design):
    """Cycle triggers that fire while a core is parked on a lock: on the
    parked-core program at cycles 500 and 1 M (core 1 holds the lock
    through 2 M cycles of compute), and on the hand-off program exactly
    at the release, when the woken core is selected by its key (the
    release time) while its clock is still 0.  Both tiers leave the same
    crash, with the waiting core cut short at its lock acquisition."""
    program = parked_core_program()
    triggers = [CrashTrigger("cycle", at) for at in (500.0, 1_000_000.0)]
    _assert_crashes_match(monkeypatch, native_accepts, design, program, triggers)
    stats = Machine(design).run(program, fault_plan=FaultPlan(trigger=triggers[0]))
    assert stats.crash.cycle == 500.0
    assert [c.ops for c in stats.per_core] == [2, 2]  # store + CLWB; lock + compute
    assert [c.cycles for c in stats.per_core] == [0, 0]
    assert len(stats.crash.durable) == 1

    handoff = handoff_program()
    after_release = FaultPlan(trigger=CrashTrigger("ops", 3))  # core 1's 3 ops
    release = Machine(design).run(handoff, fault_plan=after_release).crash.cycle
    native_accepts.clear()
    trigger = CrashTrigger("cycle", release)
    _assert_crashes_match(monkeypatch, native_accepts, design, handoff, [trigger])
    stats = Machine(design).run(handoff, fault_plan=FaultPlan(trigger=trigger))
    assert stats.crash.cycle == release > 1000
    assert [c.ops for c in stats.per_core] == [0, 3]


# -- core selection -------------------------------------------------------

#: Table I with a one-entry ROB: every op after a load or store waits for
#: it, so each core's lock acquire dispatches behind a ROB stall.
ONE_ENTRY_ROB = replace(TABLE_I, core=replace(TABLE_I.core, rob_entries=1))


def convoy_program(order=(1, 2, 3, 0)):
    """Cores that queue on one lock in FIFO ``order``.  Each core loads
    three lines of its own (L2 hits on a warm machine), then takes the
    lock, stores a line of its own, releases it and computes on.  Every
    release but the last wakes all the cores still waiting, keyed at the
    release time, the releaser's own key; the next in order takes the
    lock and the rest park again, so the last core parks three times.
    The traces differ only in their lines, so each core's dispatch
    stalls are those of its trace run alone."""
    program = Program(len(order))
    cursors = [TraceCursor(program, tid) for tid in range(len(order))]
    for tid, cursor in enumerate(cursors):
        for i in range(3):
            cursor.load((16 * tid + i) * CACHE_LINE, 8)
    for tid in order:
        cursors[tid].lock(0)
        cursors[tid].store((16 * tid + 8) * CACHE_LINE, b"\x01" * 8)
        cursors[tid].unlock(0)
        cursors[tid].compute(40)
    return program


def _release_times(design, program, cfg):
    """Each lock release's time, from a traced reference run."""
    tracer = Tracer()
    Machine(design, cfg, tracer=tracer).run(program)
    return [e.ts for e in tracer.events() if e.name == "lock.release"]


@pytest.mark.parametrize("cfg", (TABLE_I, ONE_ENTRY_ROB), ids=("table-i", "rob-1"))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_lock_convoy_matches_reference(monkeypatch, native_accepts, design, cfg):
    """Parks, wakes and hand-offs with several waiters, the cases the
    native core's core selection must rescan for: the convoy replays
    alike on both tiers plainly, crashed at each release time and
    crashed after every dispatch.  A parked acquire dispatches nothing,
    so each core's ``stall_queue_full`` is its one real ROB stall, that
    of its trace run alone, however often it parked."""
    program = convoy_program()
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine(design, cfg).run(program)
    solo = Machine(design, cfg).run(convoy_program(order=(0,))).per_core[0]
    monkeypatch.delenv("REPRO_SIM_REFERENCE")
    native = Machine(design, cfg).run(program)
    assert _stats_fields(native) == _stats_fields(ref)
    assert native_accepts == [design]
    assert [c.stall_queue_full for c in ref.per_core] == [solo.stall_queue_full] * 4
    assert (solo.stall_queue_full > 0) == (cfg is ONE_ENTRY_ROB)

    releases = _release_times(design, program, cfg)
    assert len(releases) == 4
    total_ops = sum(len(t) for t in program.threads)
    triggers = [CrashTrigger("cycle", at) for at in releases]
    triggers += [CrashTrigger("ops", k) for k in range(1, total_ops + 1)]
    native_accepts.clear()
    _assert_crashes_match(monkeypatch, native_accepts, design, program, triggers, cfg)


def tie_program(n_threads=4, rounds=6):
    """Identical lock-free threads: each stores, CLWBs and reloads lines
    of its own and computes, so the cores' clocks keep tying and many
    selections break a tie.  They share the PM controller's bandwidth
    and the L2, so the order in which tied cores step decides who waits:
    the reference pops the lowest tid first."""
    program = Program(n_threads)
    for tid in range(n_threads):
        cursor = TraceCursor(program, tid)
        for r in range(rounds):
            line = (64 * r + tid) * CACHE_LINE
            cursor.store(line, b"\x01" * 8)
            cursor.clwb(line)
            cursor.load(line, 8)
            cursor.compute(20)
    return program


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_tie_break_matches_reference(monkeypatch, native_accepts, design):
    """Cores whose keys tie step lowest tid first on both tiers: the
    plain run matches, and a crash after each dispatch leaves the same
    per-core progress, so the two tiers stepped the cores in the same
    order.  The ties are real: core 0 runs first and finishes first."""
    program = tie_program()
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine(design).run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")
    native = Machine(design).run(program)
    assert _stats_fields(native) == _stats_fields(ref)
    assert native_accepts == [design]
    cycles = [c.cycles for c in ref.per_core]
    assert cycles == sorted(cycles) and cycles[0] < cycles[-1]

    total_ops = sum(len(t) for t in program.threads)
    triggers = [CrashTrigger("ops", k) for k in range(1, total_ops + 1)]
    native_accepts.clear()
    crashes = _assert_crashes_match(monkeypatch, native_accepts, design, program, triggers)
    assert len({crash.cycle for crash in crashes}) < len(crashes)  # tied clocks


# -- media faults ---------------------------------------------------------


def _soak_media_schedules(n=10):
    """The first ``n`` soak case plans, over case seeds 0, 1, ..., that
    attach a media fault model, as ``sample_case_schedule`` draws them."""
    schedules = (sample_case_schedule(seed, media=True) for seed in range(10 * n))
    return [schedule for schedule in schedules if schedule.media is not None][:n]


SOAK_MEDIA_SCHEDULES = _soak_media_schedules()


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_media_crash_runs_match_reference(
    monkeypatch, canonical_runs, native_accepts, workload, design
):
    """Ten soak case plans that carry media faults, concretised on every
    cell at ``CHAOS_CFG`` as a harness concretises them, crash the native
    core where the reference engine crashes, under the same faults."""
    program = specialize_run(canonical_runs["chaos"][workload], design).program
    horizon = float(Machine(design).run(program).cycles)
    total_ops = sum(len(t) for t in program.threads)
    native_accepts.clear()
    write_faults = 0
    for schedule in SOAK_MEDIA_SCHEDULES:
        plan = schedule.concretise(horizon, total_ops)
        monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
        native = Machine(design).run(program, fault_plan=plan)
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        ref = Machine(design).run(program, fault_plan=plan)
        assert _crash_fields(native) == _crash_fields(ref), plan.describe()
        assert native.faults == ref.faults, plan.describe()
        write_faults += ref.faults["write_faults"]
    assert native_accepts == [design] * len(SOAK_MEDIA_SCHEDULES)
    assert write_faults > 0


#: media far worse than a real device's, so that every policy path fires.
STRESS_MEDIA = MediaFaultConfig(
    seed=3, write_fail_prob=0.6, ecc_correctable_prob=0.3,
    ecc_uncorrectable_prob=0.05,
)


def _stress_cfg(cfg, retries, spares):
    """``cfg`` with a 4-entry PM write queue, ``retries`` write retries
    and ``spares`` spare lines."""
    pm = replace(
        cfg.pm, write_queue_entries=4, max_write_retries=retries,
        spare_lines=spares,
    )
    return replace(cfg, pm=pm)


def _model_state(model):
    """Everything a run leaves in a fault model."""
    return (
        model.summary(), model.backoff_cycles, model.remapped_lines,
        model._rng.getstate(),
    )


def _media_fields(stats):
    """A media-fault run's stats: the crash (with the cut run's per-core
    stats) or the per-core stats, the summary and the fault summary."""
    run = _crash_fields(stats) if stats.crash is not None else _stats_fields(stats)
    return run, stats.summary(), stats.faults


def _media_runs(monkeypatch, design, program, models, cfg=TABLE_I, plan=None):
    """Run ``program`` with ``models[0]`` on the default tier and with
    ``models[1]`` on the reference engine; returns both stats."""
    runs = []
    for model, reference in zip(models, ("", "1")):
        monkeypatch.setenv("REPRO_SIM_REFERENCE", reference)
        runs.append(Machine(design, cfg).run(program, fault_plan=plan, media_faults=model))
    return runs


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_media_policy_matches_reference_under_stress(
    monkeypatch, native_accepts, design
):
    """Random traffic under media faults far worse than the soak's, with
    0 or 4 write retries, 0 or 2 spare lines and a 4-entry write queue,
    clean and crashed: on 1 KiB L1s and an 8 KiB L2, PM reads miss and
    draw ECC errors; on Table I, cores contend for 8 lines.  Each run
    leaves the same stats and the same model on both tiers, and across
    the matrix every counter of the fault summary fires."""
    totals = Counter()
    runs = 0
    for n_lines, base in ((400, SMALL_CACHES), (8, TABLE_I)):
        program = random_program(1, n_lines=n_lines)
        for retries in (0, 4):
            for spares in (0, 2):
                cfg = _stress_cfg(base, retries, spares)
                plans = [None]
                for trigger in (CrashTrigger("ops", 150), CrashTrigger("cycle", 4e4)):
                    plans.append(FaultPlan(trigger=trigger))
                for plan in plans:
                    models = [MediaFaultModel(STRESS_MEDIA) for _ in range(2)]
                    native, ref = _media_runs(monkeypatch, design, program, models, cfg, plan)
                    label = (n_lines, retries, spares, plan and plan.describe())
                    assert _media_fields(native) == _media_fields(ref), label
                    assert _model_state(models[0]) == _model_state(models[1]), label
                    totals.update(ref.faults)
                    runs += 1
    assert native_accepts == [design] * runs
    del totals["seed"]
    assert sorted(name for name, total in totals.items() if not total) == []


@pytest.mark.parametrize("seed", [0, 2**32, 2**70 + 11])
def test_native_media_leaves_the_model_as_the_reference_does(
    monkeypatch, native_accepts, seed
):
    """A passed-in model ends a run with the reference engine's counters,
    backoff total, remapped lines and generator state, for seed 0 and
    for seeds too wide for one 32-bit key word.  Reused for a second run
    (crashed), the model starts from where the first left it: its
    stream, its counters, and its spare lines, both already taken."""
    program = random_program(2, n_lines=400)
    cfg = _stress_cfg(SMALL_CACHES, 4, 2)
    media = replace(STRESS_MEDIA, seed=seed)
    models = [MediaFaultModel(media) for _ in range(2)]
    _media_runs(monkeypatch, "strandweaver", program, models, cfg)
    assert _model_state(models[0]) == _model_state(models[1])
    assert len(models[0].remapped_lines) == 2
    first = _model_state(models[0])

    plan = FaultPlan(trigger=CrashTrigger("ops", 200))
    native, ref = _media_runs(monkeypatch, "strandweaver", program, models, cfg, plan)
    assert _media_fields(native) == _media_fields(ref)
    assert _model_state(models[0]) == _model_state(models[1])
    assert models[0].remaps == 2 and models[0].remap_denied > first[0]["remap_denied"]
    assert models[0]._rng.getstate() != first[3]
    assert native_accepts == ["strandweaver"] * 2


def test_native_decline_leaves_the_media_model_untouched(
    monkeypatch, tmp_path, canonical
):
    """Without a C compiler (as in ``test_native_core_declines_cleanly``)
    ``run_native`` returns None and leaves a passed-in fault model as it
    was: no draw, no counter, no remap.  The run then replays on the
    reference engine, which draws from the model's own stream."""
    program = specialize_run(canonical["queue"], "strandweaver").program
    models = [MediaFaultModel(STRESS_MEDIA) for _ in range(3)]
    untouched = _model_state(models[2])
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine("strandweaver").run(program, media_faults=models[1])
    monkeypatch.delenv("REPRO_SIM_REFERENCE")

    monkeypatch.setattr(cnative, "_find_cc", lambda: None)
    monkeypatch.setattr(cnative, "_lib", None)
    monkeypatch.setattr(cnative, "_lib_failed", False)
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cnative.run_native(
            "strandweaver", program, TABLE_I, True, PRUNE_PERIOD, media=models[0]
        ) is None
        assert _model_state(models[0]) == untouched
        stats = Machine("strandweaver").run(program, media_faults=models[0])
    assert _media_fields(stats) == _media_fields(ref)
    assert _model_state(models[0]) == _model_state(models[1]) != untouched


def test_native_decline_mid_run_leaves_the_media_model_untouched(
    monkeypatch, native_accepts
):
    """A write that fails more often than the backoff table covers makes
    the core decline after it has drawn other faults.  The model is left
    as it was, and the default tier's reference replay draws the same
    faults as a reference run."""
    monkeypatch.setattr(cnative, "MAX_BACKOFF_ATTEMPTS", 1)
    program = random_program(0, n_lines=400)
    cfg = _stress_cfg(SMALL_CACHES, 4, 2)
    models = [MediaFaultModel(STRESS_MEDIA) for _ in range(3)]
    untouched = _model_state(models[2])
    assert cnative.run_native(
        "intel-x86", program, cfg, True, PRUNE_PERIOD, media=models[0]
    ) is None
    assert _model_state(models[0]) == untouched
    native, ref = _media_runs(monkeypatch, "intel-x86", program, models[:2], cfg)
    assert native_accepts == []
    assert _media_fields(native) == _media_fields(ref)
    assert _model_state(models[0]) == _model_state(models[1])
    assert models[0].retries > 0


# -- dense line ids -------------------------------------------------------

#: persistent lines up to 2**45 line numbers apart, six of which share
#: set 0 of :data:`SMALL_CACHES`' 4-way L2, and two far lines that are
#: stored to and loaded but never flushed.
SPARSE_LINES = (
    0, 3, 2**31 - 1, 2**31 + 5, 2**33 + 1, 2**40, 2**40 + 256, 2**40 + 512,
    2**41, 2**42 + 64, 2**45 + 3,
)
FAR_LINES = (2**20, 2**36 + 9)


def sparse_program(seed, n_ops=120):
    """Fence-free random traffic over :data:`SPARSE_LINES`, which the
    native core knows by their index in the sorted touched lines.  Core 0
    walks the lines from the top and core 2 from the bottom, so neither
    meets them in id order; core 1 is empty.  A fifth of the accesses are
    STOREs and LOADs of :data:`FAR_LINES`, which reach PM only as dirty
    write-backs."""
    rng = random.Random(seed)
    program = Program(3)
    cursors = {0: TraceCursor(program, 0), 2: TraceCursor(program, 2)}
    walks = {0: SPARSE_LINES[::-1], 2: SPARSE_LINES}
    for step in range(n_ops):
        for tid, cursor in cursors.items():
            addr = walks[tid][step % len(SPARSE_LINES)] * CACHE_LINE
            roll = rng.random()
            if roll < 0.35:
                cursor.store(addr + 8 * rng.randrange(8), rng.randbytes(8))
            elif roll < 0.5:
                cursor.clwb(addr)
            elif roll < 0.6:
                cursor.load(addr, 8)
            elif roll < 0.8:
                far = rng.choice(FAR_LINES) * CACHE_LINE
                if roll < 0.7:
                    cursor.store(far, bytes(8))
                else:
                    cursor.load(far, 8)
            else:
                cursor.compute(rng.randrange(1, 100))
    return program


@pytest.mark.parametrize("warm", (True, False))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_matches_reference_on_sparse_lines(monkeypatch, native_accepts, design, warm):
    """Lines far apart, visited out of id order, an empty core, and
    lines never flushed: the native core replays them as the reference
    engine does, with warm and with cold caches, and on 1 KiB L1s and an
    8 KiB L2 that evict all the time."""
    runs = 0
    for cfg in (TABLE_I, SMALL_CACHES):
        for seed in range(2):
            program = sparse_program(seed)
            assert len(program.threads[1]) == 0
            assert list(program.touched_lines()) == sorted(SPARSE_LINES + FAR_LINES)
            monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
            ref = Machine(design, cfg).run(program, warm=warm)
            monkeypatch.delenv("REPRO_SIM_REFERENCE")
            native = Machine(design, cfg).run(program, warm=warm)
            assert _stats_fields(native) == _stats_fields(ref), (cfg.l2, seed)
            runs += 1
    assert native_accepts == [design] * runs


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_native_crash_runs_match_reference_on_sparse_lines(
    monkeypatch, native_accepts, design
):
    """Crash runs over far-apart lines: the uncovered stores the core keeps
    per line id cover and leave the same stores as the tracker's."""
    program = sparse_program(1)
    horizon, triggers = _schedule_triggers(design, program, SMALL_CACHES, (7,))
    native_accepts.clear()
    _assert_crashes_match(
        monkeypatch, native_accepts, design, program,
        triggers + [CrashTrigger("cycle", 2 * horizon)], SMALL_CACHES,
    )


@pytest.mark.parametrize("design", ("intel-x86", "strandweaver"))
def test_native_media_run_with_remapped_lines_outside_the_program(
    monkeypatch, native_accepts, design
):
    """A model that already remapped two lines the program never touches
    and one it does: the outside lines only use up spare lines, the inside
    one draws no fault, and both tiers leave the same stats and model."""
    program = sparse_program(3)
    cfg = _stress_cfg(SMALL_CACHES, 4, 5)
    models = [MediaFaultModel(STRESS_MEDIA) for _ in range(2)]
    for model in models:
        model.remapped_lines.update({7, 2**50, SPARSE_LINES[4]})
    native, ref = _media_runs(monkeypatch, design, program, models, cfg)
    assert _media_fields(native) == _media_fields(ref)
    assert _model_state(models[0]) == _model_state(models[1])
    assert ref.faults["remaps"] == 2 and ref.faults["remap_denied"] > 0
    assert native_accepts == [design]


def test_native_raises_on_a_line_outside_the_touched_lines():
    """The ids rest on ``touched_lines()`` holding every addressed line.
    A sealed program cannot grow past its lines, so a stale line set that
    misses one is planted here; the native core raises rather than
    declining into a different run."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    program = sparse_program(0)
    TraceCursor(program, 1).store(99 * CACHE_LINE, b"\x01" * 8)
    program._touched_lines = array("q", (x for x in program.touched_lines() if x != 99))
    with pytest.raises(RuntimeError, match=r"line 99 \(thread 1, op 0\)"):
        cnative.run_native("strandweaver", program, TABLE_I, True, PRUNE_PERIOD)


def test_native_declines_a_negative_line(monkeypatch):
    """A hand-built program may address below zero.  The reference engine
    neither coalesces nor faults a negative line (its ``line >= 0``
    tests), which the native core does not model, so it declines and the
    run replays on the reference engine."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    program = Program(1)
    cursor = TraceCursor(program, 0)
    cursor.store(-CACHE_LINE, b"\x01" * 8)
    cursor.clwb(-CACHE_LINE)
    cursor.store(0, b"\x02" * 8)
    assert cnative.run_native("intel-x86", program, TABLE_I, True, PRUNE_PERIOD) is None
    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine("intel-x86").run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")
    assert _stats_fields(Machine("intel-x86").run(program)) == _stats_fields(ref)
