"""Crash-consistency property tests.

For every benchmark and every *correct* dialect we sample consistent cuts
of the persist DAG (random, frontier-biased, and prefix cuts), materialise
the crash image, run recovery, and assert the workload's invariants hold.
The NON-ATOMIC dialect must *fail* on some cut — proving the checker has
teeth.  A two-word undo-logged transaction is small enough to check on
*every* consistent cut.

Crash tests use the conservative language-model variants whose commits
are durable before lock hand-off (``durable_commit=True`` /
``safe_handoff=True``); see DESIGN.md, "Correctness story".
"""

import random

import pytest

from repro.core.crash import (
    enumerate_cuts,
    frontier_cut,
    materialise,
    prefix_cut,
    random_cut,
)
from repro.core.model import PersistDag
from repro.core.ops import Program, TraceCursor
from repro.lang.dialect import (
    HopsDialect,
    NonAtomicDialect,
    StrandDialect,
    X86Dialect,
)
from repro.lang.logbuf import LogLayout
from repro.lang.recovery import recover
from repro.lang.runtime import DirectAccessor, PmRuntime
from repro.lang.sfr import SfrModel
from repro.lang.txn import TxnModel
from repro.pmem.space import PersistentMemory
from repro.workloads import WORKLOADS, CheckFailure, WorkloadConfig, generate

CRASH_CFG = WorkloadConfig(
    n_threads=3, ops_per_thread=10, log_entries=1024, pm_size=1 << 20
)

N_CUTS = 12


def crash_and_recover(run, dag, cut):
    image = materialise(dag, cut, run.space)
    recover(image, run.layout)
    run.workload.check(DirectAccessor(image))


def exercise(workload_name, dialect, model, seed=1234):
    run = generate(WORKLOADS[workload_name], CRASH_CFG, dialect, model)
    dag = PersistDag(run.program)
    rng = random.Random(seed)
    for i in range(N_CUTS):
        crash_and_recover(run, dag, random_cut(dag, rng, density=0.4 + 0.05 * (i % 5)))
        crash_and_recover(run, dag, frontier_cut(dag, rng, drop=0.25))
    for k in (0, len(dag) // 3, len(dag) // 2, len(dag)):
        crash_and_recover(run, dag, prefix_cut(dag, k))


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_strand_dialect_crash_consistent(workload_name):
    exercise(workload_name, StrandDialect(), TxnModel(durable_commit=True))


@pytest.mark.parametrize("workload_name", ["queue", "hashmap", "tpcc", "nstore-bal"])
def test_x86_dialect_crash_consistent(workload_name):
    exercise(workload_name, X86Dialect(), TxnModel(durable_commit=True))


@pytest.mark.parametrize("workload_name", ["queue", "arrayswap", "rbtree"])
def test_hops_dialect_crash_consistent(workload_name):
    exercise(workload_name, HopsDialect(), TxnModel(durable_commit=True))


@pytest.mark.parametrize("workload_name", ["queue", "hashmap", "rbtree"])
def test_sfr_safe_handoff_crash_consistent(workload_name):
    exercise(
        workload_name,
        StrandDialect(),
        SfrModel(commit_batch=3, safe_handoff=True),
    )


def test_sfr_single_thread_batching_crash_consistent():
    cfg = WorkloadConfig(n_threads=1, ops_per_thread=16, log_entries=1024, pm_size=1 << 20)
    run = generate(WORKLOADS["queue"], cfg, StrandDialect(), SfrModel(commit_batch=4))
    dag = PersistDag(run.program)
    rng = random.Random(7)
    for _ in range(15):
        crash_and_recover(run, dag, random_cut(dag, rng, 0.5))


def test_nonatomic_dialect_breaks_recovery():
    """The unordered upper bound must be crash-inconsistent on some cut —
    otherwise the whole checking apparatus proves nothing."""
    run = generate(
        WORKLOADS["arrayswap"], CRASH_CFG, NonAtomicDialect(), TxnModel()
    )
    dag = PersistDag(run.program)
    rng = random.Random(99)
    failures = 0
    for _ in range(60):
        try:
            crash_and_recover(run, dag, random_cut(dag, rng, 0.5))
        except CheckFailure:
            failures += 1
    assert failures > 0, "non-atomic traces never broke an invariant"


def test_full_cut_recovers_to_final_state():
    """If everything persisted, recovery must leave the final state."""
    run = generate(WORKLOADS["hashmap"], CRASH_CFG, StrandDialect(),
                   TxnModel(durable_commit=True))
    dag = PersistDag(run.program)
    image = materialise(dag, set(range(len(dag))), run.space)
    report = recover(image, run.layout)
    assert report.n_rolled_back == 0
    run.workload.check(DirectAccessor(image))


def test_empty_cut_recovers_to_baseline():
    run = generate(WORKLOADS["rbtree"], CRASH_CFG, StrandDialect(),
                   TxnModel(durable_commit=True))
    dag = PersistDag(run.program)
    image = materialise(dag, set(), run.space)
    recover(image, run.layout)
    run.workload.check(DirectAccessor(image))


# -- every cut of one undo-logged transaction -----------------------------


def paired_update(dialect):
    """A two-word failure-atomic update under ``dialect``: returns its
    persist DAG, baseline PM, log layout, and a predicate that holds when
    the two words are both old or both new."""
    layout = LogLayout(base=64, capacity=16, n_threads=1)
    space = PersistentMemory(layout.end + 1024)
    rt = PmRuntime(space, layout, dialect, TxnModel(durable_commit=True), 1)
    addr = (layout.end + 63) & ~63
    space.mark_clean()
    rt.lock(0, 1)
    rt.txn_begin(0)
    rt.store(0, addr, b"\x01" * 8)
    rt.store(0, addr + 8, b"\x01" * 8)
    rt.txn_end(0)
    rt.unlock(0, 1)
    rt.finish(0)

    def atomic(image):
        pair = (image.read_u64(addr), image.read_u64(addr + 8))
        return pair in ((0, 0), (0x0101010101010101,) * 2)

    return PersistDag(rt.program), space, layout, atomic


def recovered(dag, cut, space, layout):
    image = materialise(dag, cut, space)
    recover(image, layout)
    return image


def test_every_cut_of_a_paired_update_recovers_atomically():
    dag, space, layout, atomic = paired_update(StrandDialect())
    cuts = list(enumerate_cuts(dag))
    assert len(cuts) > 10
    for cut in cuts:
        assert atomic(recovered(dag, cut, space, layout)), sorted(cut)


def test_nonatomic_dialect_tears_a_paired_update_on_some_cut():
    dag, space, layout, atomic = paired_update(NonAtomicDialect())
    assert not all(
        atomic(recovered(dag, cut, space, layout)) for cut in enumerate_cuts(dag)
    )


def test_sampled_cuts_of_a_paired_update_recover_atomically():
    dag, space, layout, atomic = paired_update(StrandDialect())
    rng = random.Random(0)
    for i in range(30):
        if i % 3 == 0:
            cut = frontier_cut(dag, rng, drop=0.25)
        elif i % 3 == 1:
            cut = random_cut(dag, rng, density=0.5)
        else:
            cut = prefix_cut(dag, rng.randrange(len(dag) + 1))
        assert atomic(recovered(dag, cut, space, layout)), (i, sorted(cut))


def test_every_cut_respects_a_persist_barrier_without_recovery():
    """No log layout: the raw crash images of a barrier-ordered pair of
    stores never hold the second store without the first."""
    program = Program(1)
    cur = TraceCursor(program, 0)
    space = PersistentMemory(1024)
    space.mark_clean()
    cur.store(0, b"\x01" * 8, label="A")
    cur.persist_barrier()
    cur.store(64, b"\x01" * 8, label="B")
    dag = PersistDag(program)
    for cut in enumerate_cuts(dag):
        image = materialise(dag, cut, space)
        assert not (image.read_u64(0) == 0 and image.read_u64(64) != 0), sorted(cut)
