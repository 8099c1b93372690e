"""Cross-engine and cross-path identity properties.

The simulator has three engine tiers (reference per-op, compiled Python
fast path, native C replay core) and two trace-production paths
(direct per-dialect generation, generate-once + specialize).  Every
pair must be bit-identical:

* a specialized program is op-for-op identical — every field of every
  op, the lock order, the numbering — to one generated directly with
  the concrete dialect;
* the specialized program's replay columns (what the native core
  replays) equal a fresh compile of its built ops;
* the fast engines reproduce the reference engine's ``MachineStats``
  exactly, per core and per field, across all five designs.

Engine selection pins: ``REPRO_SIM_REFERENCE=1`` forces the reference
engine, ``REPRO_SIM_NO_C=1`` forces the Python fast path; unset, the
native core runs when a C compiler is available and silently falls
back otherwise — all three must agree, so these tests pass with or
without a toolchain.
"""

import pytest

from repro.harness.experiment import default_config
from repro.sim import cnative
from repro.sim.machine import DESIGNS, Machine
from repro.workloads import WORKLOADS
from repro.workloads.base import (
    generate_canonical,
    generate_for_design,
    specialize_run,
)
from tests.sim.test_op_stream_pins import assert_columns_match_ops

#: small but structurally rich: queue exercises locks + logs, rbtree
#: recursion-heavy updates, nstore-wr write back-pressure.
BENCHMARKS = ("queue", "rbtree", "nstore-wr")

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
    """Reference vs Python-fast vs default (native when available):
    identical summary and identical per-core stats, field for field."""
    program = specialize_run(canonical[workload], design).program

    monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    ref = Machine(design).run(program)
    monkeypatch.delenv("REPRO_SIM_REFERENCE")

    monkeypatch.setenv("REPRO_SIM_NO_C", "1")
    pyfast = Machine(design).run(program)
    monkeypatch.delenv("REPRO_SIM_NO_C")

    native = Machine(design).run(program)

    assert pyfast.summary() == ref.summary()
    assert _stats_fields(pyfast) == _stats_fields(ref)
    assert native.summary() == ref.summary()
    assert _stats_fields(native) == _stats_fields(ref)


def test_native_core_declines_cleanly(monkeypatch):
    """REPRO_SIM_NO_C must disable the native core even after it has
    been loaded, and run_native must return None (not raise)."""
    program = specialize_run(
        generate_canonical(WORKLOADS["queue"], CFG, "txn"), "strandweaver"
    ).program
    monkeypatch.setenv("REPRO_SIM_NO_C", "1")
    assert (
        cnative.run_native("strandweaver", program, None, True, 4096) is None
    )


def test_native_prune_period_is_result_neutral():
    """The native core's periodic resource pruning must not perturb
    stats: an aggressive prune period replays bit-identically to an
    effectively-unpruned one."""
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    from repro.sim.config import TABLE_I

    program = specialize_run(
        generate_canonical(WORKLOADS["queue"], CFG, "txn"), "strandweaver"
    ).program
    aggressive = cnative.run_native("strandweaver", program, TABLE_I, True, 64)
    unpruned = cnative.run_native(
        "strandweaver", program, TABLE_I, True, 1 << 30
    )
    assert aggressive is not None and unpruned is not None
    assert [c.__dict__ for c in aggressive] == [c.__dict__ for c in unpruned]


def test_wrong_fence_exception_identical_across_engines(monkeypatch):
    """A trace carrying a fence foreign to the design must raise the
    same ValueError (message included) from every engine tier."""
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
