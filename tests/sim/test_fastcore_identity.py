"""Cross-engine and cross-path identity properties.

The simulator has two engine tiers (the reference per-op engine and the
native C replay core) and two trace-production paths (direct
per-dialect generation, generate-once + specialize).  Every pair must be
bit-identical:

* a specialized program is op-for-op identical — every field of every
  op, the lock order, the numbering — to one generated directly with
  the concrete dialect;
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

from repro.harness.experiment import default_config
from repro.sim import cnative
from repro.sim.config import TABLE_I
from repro.sim.machine import DESIGNS, Machine
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


def _stats_fields(stats):
    return [dict(c.__dict__) for c in stats.per_core]


@pytest.fixture(scope="module")
def canonical():
    return {b: generate_canonical(WORKLOADS[b], CFG, "txn") for b in BENCHMARKS}


@pytest.mark.parametrize("workload", BENCHMARKS)
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_specialized_equals_direct_generation(canonical, workload, design):
    """Specialize-from-canonical must reproduce direct generation
    op-for-op: all fields, all numbering, the lock order."""
    spec = specialize_run(canonical[workload], design)
    direct = generate_for_design(WORKLOADS[workload], CFG, design, "txn")
    sp, dp = spec.program, direct.program
    assert sp.n_threads == dp.n_threads
    assert sp.lock_order == dp.lock_order
    assert sp._next_gseq == dp._next_gseq
    for st, dt in zip(sp.threads, dp.threads):
        assert len(st.ops) == len(dt.ops)
        for so, do in zip(st.ops, dt.ops):
            assert so == do, f"{workload}/{design}: {so!r} != {do!r}"


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
    and identical per-core stats, field for field."""
    program = specialize_run(canonical[workload], design).program

    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine(design).run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")

    native = Machine(design).run(program)

    assert native.summary() == ref.summary()
    assert _stats_fields(native) == _stats_fields(ref)


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


def test_native_prune_period_is_result_neutral():
    """The native core's periodic resource pruning must not perturb
    stats: an aggressive prune period replays bit-identically to an
    effectively-unpruned one."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    program = specialize_run(
        generate_canonical(WORKLOADS["queue"], CFG, "txn"), "strandweaver"
    ).program
    aggressive = cnative.run_native("strandweaver", program, TABLE_I, True, 64)
    unpruned = cnative.run_native(
        "strandweaver", program, TABLE_I, True, 1 << 30
    )
    assert aggressive is not None and unpruned is not None
    assert [c.__dict__ for c in aggressive] == [c.__dict__ for c in unpruned]


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
