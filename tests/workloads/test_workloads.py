"""Functional tests for every Table II benchmark."""

import pytest

from repro.core.ops import OpKind
from repro.lang.runtime import DirectAccessor
from repro.sim.machine import run_design
from repro.workloads import (
    MICROBENCHMARKS,
    WORKLOADS,
    generate_for_design,
    make_model,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_functional_invariants_after_run(name, small_cfg):
    run = generate_for_design(WORKLOADS[name], small_cfg, "strandweaver", "txn")
    run.workload.check(DirectAccessor(run.space))  # also done inside generate


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_replays_on_strandweaver(name, small_cfg):
    run = generate_for_design(WORKLOADS[name], small_cfg, "strandweaver", "txn")
    stats = run_design("strandweaver", run.program)
    assert stats.cycles > 0
    assert stats.clwbs > 0


@pytest.mark.parametrize("model", ["txn", "atlas", "sfr"])
def test_all_language_models_generate(model, small_cfg):
    run = generate_for_design(WORKLOADS["queue"], small_cfg, "strandweaver", model)
    assert len(run.program.all_ops()) > 0


def test_generation_deterministic(small_cfg):
    r1 = generate_for_design(WORKLOADS["hashmap"], small_cfg, "strandweaver", "txn")
    r2 = generate_for_design(WORKLOADS["hashmap"], small_cfg, "strandweaver", "txn")
    assert r1.space.snapshot() == r2.space.snapshot()
    k1 = [op.kind for op in r1.program.all_ops()]
    k2 = [op.kind for op in r2.program.all_ops()]
    assert k1 == k2


def test_dialects_share_functional_outcome(small_cfg):
    """The same workload generated for different designs must produce the
    same final PM data (only the ordering primitives differ)."""
    runs = {
        d: generate_for_design(WORKLOADS["arrayswap"], small_cfg, d, "txn")
        for d in ("strandweaver", "intel-x86", "hops", "non-atomic")
    }
    base = runs["strandweaver"]
    heap_start = base.layout.end  # log regions may legitimately differ
    for run in runs.values():
        assert run.space.read(heap_start, 1 << 14) == base.space.read(heap_start, 1 << 14)


def test_ops_per_region_groups_work(small_cfg):
    from dataclasses import replace

    grouped = replace(small_cfg, ops_per_region=4)
    run1 = generate_for_design(WORKLOADS["queue"], small_cfg, "strandweaver", "txn")
    run4 = generate_for_design(WORKLOADS["queue"], grouped, "strandweaver", "txn")
    js1 = sum(op.kind is OpKind.JOIN_STRAND for op in run1.program.all_ops())
    js4 = sum(op.kind is OpKind.JOIN_STRAND for op in run4.program.all_ops())
    assert js4 < js1  # fewer regions => fewer drains


def test_queue_plan_has_pushes_and_pops(small_cfg):
    wl = WORKLOADS["queue"](small_cfg)
    kinds = {k for plan in wl.plan for k in plan}
    assert kinds == {"push", "pop"}


def test_rbtree_shadow_tracks_tree(small_cfg):
    run = generate_for_design(WORKLOADS["rbtree"], small_cfg, "strandweaver", "txn")
    wl = run.workload
    count = run.space.read_u64(wl.meta + 8)
    assert count == len(wl._shadow)


def test_tpcc_orders_recorded(small_cfg):
    run = generate_for_design(WORKLOADS["tpcc"], small_cfg, "strandweaver", "txn")
    wl = run.workload
    total_orders = sum(
        run.space.read_u64(wl._district(d)) for d in range(8)
    )
    assert total_orders == small_cfg.n_threads * small_cfg.ops_per_thread


def test_nstore_mixes_differ(small_cfg):
    rd = WORKLOADS["nstore-rd"](small_cfg)
    wr = WORKLOADS["nstore-wr"](small_cfg)
    def frac(wl):
        writes = sum(1 for plan in wl.plan for kind, _ in plan if kind == "write")
        return writes / (small_cfg.n_threads * small_cfg.ops_per_thread)

    assert frac(rd) < 0.25
    assert frac(wr) > 0.75


def test_microbenchmark_registry():
    assert set(MICROBENCHMARKS) <= set(WORKLOADS)
    assert "nstore-bal" not in MICROBENCHMARKS


def test_make_model_rejects_unknown():
    with pytest.raises(ValueError):
        make_model("epoch")
