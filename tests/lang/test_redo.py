"""Redo logging under strand persistency (Section VII sketch)."""

import random

import pytest

from repro.core.crash import frontier_cut, materialise, random_cut
from repro.core.model import PersistDag
from repro.core.ops import OpKind
from repro.lang import logbuf
from repro.lang.dialect import StrandDialect
from repro.lang.logbuf import LogLayout
from repro.lang.recovery import recover
from repro.lang.redo import RedoTxnModel
from repro.lang.runtime import DirectAccessor, PmRuntime
from repro.pmem.space import PersistentMemory
from repro.workloads import WORKLOADS, WorkloadConfig, generate

CFG = WorkloadConfig(n_threads=3, ops_per_thread=8, log_entries=1024, pm_size=1 << 20)


def make_runtime(group_commit=1):
    layout = LogLayout(base=64, capacity=64, n_threads=1)
    space = PersistentMemory(layout.end + 4096)
    model = RedoTxnModel(group_commit=group_commit)
    rt = PmRuntime(space, layout, StrandDialect(), model, 1)
    return rt, space, layout


def heap(layout):
    return (layout.end + 63) & ~63


def test_redo_defers_inplace_update_to_commit():
    rt, space, layout = make_runtime()
    addr = heap(layout)
    rt.lock(0, 1)
    rt.txn_begin(0)
    rt.store(0, addr, b"\x07" * 8)
    # The functional image already shows the write (thread-local reads)...
    assert space.read(addr, 8) == b"\x07" * 8
    # ...but no in-place STORE op was emitted yet, only the redo entry.
    data_stores = [
        op for op in rt.program.threads[0].ops
        if op.kind is OpKind.STORE and op.addr == addr
    ]
    assert data_stores == []
    rt.txn_end(0)
    rt.unlock(0, 1)
    data_stores = [
        op for op in rt.program.threads[0].ops
        if op.kind is OpKind.STORE and op.addr == addr
    ]
    assert len(data_stores) == 1


def test_redo_entries_hold_new_values():
    rt, space, layout = make_runtime(group_commit=10)  # keep logs valid
    addr = heap(layout)
    rt.lock(0, 1)
    rt.txn_begin(0)
    rt.store(0, addr, b"\x09" * 8)
    rt.txn_end(0)
    rt.unlock(0, 1)
    redo = [e for e in layout.scan(space, 0) if e.type == logbuf.REDO]
    assert len(redo) == 1
    assert redo[0].value == b"\x09" * 8
    # No marker before the group commit — the group commit IS the
    # durability point.
    assert not any(e.commit for e in layout.scan(space, 0))
    rt.finish(0)
    assert any(e.commit for e in layout.scan(space, 0))


def test_group_commit_batches_invalidation():
    rt, space, layout = make_runtime(group_commit=3)
    addr = heap(layout)
    for i in range(2):
        rt.lock(0, 1)
        rt.txn_begin(0)
        rt.store(0, addr + 64 * i, b"\x01" * 8)
        rt.txn_end(0)
        rt.unlock(0, 1)
    assert rt.committed_regions(0) == []  # batch not reached
    rt.lock(0, 1)
    rt.txn_begin(0)
    rt.store(0, addr + 128, b"\x01" * 8)
    rt.txn_end(0)
    rt.unlock(0, 1)
    assert len(rt.committed_regions(0)) == 3


def test_recovery_replays_committed_redo():
    rt, space, layout = make_runtime(group_commit=1)
    addr = heap(layout)
    rt.lock(0, 1)
    rt.txn_begin(0)
    rt.store(0, addr, b"\x0a" * 8)
    rt.txn_end(0)
    rt.unlock(0, 1)
    # Crash image where logs and marker persisted but the deferred
    # in-place update (and everything after it) did not.
    dag = PersistDag(rt.program)
    marker = dag.find("commit-marker")
    cut = dag.downward_close({marker})
    img = materialise(dag, cut, space)
    assert img.read(addr, 8) == b"\x00" * 8  # update genuinely missing
    report = recover(img, layout)
    assert report.n_replayed == 1
    assert img.read(addr, 8) == b"\x0a" * 8


def test_recovery_discards_uncommitted_redo():
    layout = LogLayout(base=0, capacity=16, n_threads=1)
    img = PersistentMemory(layout.end + 1024)
    layout.init_region(img, 0)
    raw = logbuf.encode_entry(logbuf.REDO, 0, layout.end, b"\x0b" * 8, seq=5)
    img.write(layout.entry_addr(0, 0), raw)  # redo entry, no marker anywhere
    report = recover(img, layout)
    assert report.n_replayed == 0
    assert img.read(layout.end, 8) == b"\x00" * 8


@pytest.mark.parametrize("workload_name", ["arrayswap", "hashmap", "tpcc"])
def test_redo_crash_consistency(workload_name):
    run = generate(
        WORKLOADS[workload_name], CFG, StrandDialect(),
        RedoTxnModel(group_commit=1, durable_commit=True),
    )
    dag = PersistDag(run.program)
    rng = random.Random(11)
    for i in range(14):
        cut = random_cut(dag, rng, 0.5) if i % 2 else frontier_cut(dag, rng, 0.3)
        image = materialise(dag, cut, run.space)
        recover(image, run.layout)
        run.workload.check(DirectAccessor(image))


def test_redo_group_commit_single_thread_crash_consistency():
    cfg = WorkloadConfig(n_threads=1, ops_per_thread=12, log_entries=1024,
                         pm_size=1 << 20)
    run = generate(WORKLOADS["queue"], cfg, StrandDialect(),
                   RedoTxnModel(group_commit=4))
    dag = PersistDag(run.program)
    rng = random.Random(3)
    for _ in range(15):
        image = materialise(dag, random_cut(dag, rng, 0.5), run.space)
        recover(image, run.layout)
        run.workload.check(DirectAccessor(image))


def test_redo_rejects_bad_group_commit():
    with pytest.raises(ValueError):
        RedoTxnModel(group_commit=0)
