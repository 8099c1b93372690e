"""Property-based tests over randomly generated strand programs.

Hypothesis drives random multi-threaded programs of stores and strand
primitives, and we check global invariants of the formal model:

* every sampled cut is consistent, and every visibility-order prefix too;
* materialised images respect strong persist atomicity — each location
  holds the value of some visibility-prefix of the writes to it;
* the persist DAG is acyclic by construction (edges point backwards);
* recovery is idempotent on crash images of real workloads.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crash import frontier_cut, materialise, prefix_cut, random_cut
from repro.core.model import STORE, PersistDag
from repro.core.ops import Program, TraceCursor
from repro.lang.dialect import StrandDialect
from repro.lang.recovery import recover
from repro.lang.runtime import DirectAccessor
from repro.lang.txn import TxnModel
from repro.pmem.space import PersistentMemory
from repro.workloads import WORKLOADS, WorkloadConfig, generate

# One random "instruction" per element: (kind, slot) pairs.
_op = st.tuples(
    st.sampled_from(["store", "pb", "ns", "js", "lock", "unlock"]),
    st.integers(0, 3),
)


def build_program(per_thread_ops):
    """Materialise a random instruction list into a legal program."""
    prog = Program(len(per_thread_ops))
    value = 1
    for tid, ops in enumerate(per_thread_ops):
        cur = TraceCursor(prog, tid)
        held = []
        for kind, slot in ops:
            if kind == "store":
                cur.store(slot * 32, bytes([value % 255 + 1]) * 8)
                value += 1
            elif kind == "pb":
                cur.persist_barrier()
            elif kind == "ns":
                cur.new_strand()
            elif kind == "js":
                cur.join_strand()
            elif kind == "lock" and slot not in held:
                cur.lock(slot)
                held.append(slot)
            elif kind == "unlock" and held:
                cur.unlock(held.pop())
        for lock in reversed(held):
            cur.unlock(lock)
    return prog


@given(
    st.lists(st.lists(_op, max_size=12), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_random_cuts_of_random_programs_are_consistent(threads, seed):
    prog = build_program(threads)
    dag = PersistDag(prog)
    rng = random.Random(seed)
    assert dag.is_consistent_cut(random_cut(dag, rng, 0.5))
    assert dag.is_consistent_cut(frontier_cut(dag, rng, 0.3))
    for k in range(len(dag) + 1):
        assert dag.is_consistent_cut(prefix_cut(dag, k))


@given(
    st.lists(st.lists(_op, max_size=12), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_edges_always_point_backwards(threads):
    dag = PersistDag(build_program(threads))
    for idx in range(len(dag)):
        assert all(pred < idx for pred in dag.preds(idx))


@given(
    st.lists(st.lists(_op, max_size=10), min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_spa_prefix_per_location(threads, seed):
    """Each location's value in a crash image must be a visibility-prefix
    of the writes to it (strong persist atomicity)."""
    prog = build_program(threads)
    dag = PersistDag(prog)
    pm = PersistentMemory(1 << 12)
    pm.mark_clean()
    cut = random_cut(dag, random.Random(seed), 0.5)
    image = materialise(dag, cut, pm)
    # Group store nodes by address in visibility order.
    by_addr = {}
    for idx, op in enumerate(dag.ops):
        if dag.kinds[idx] == STORE:
            by_addr.setdefault(op.addr, []).append(idx)
    for addr, writers in by_addr.items():
        observed = image.read(addr, 8)
        candidates = [b"\x00" * 8] + [dag.ops[w].data for w in writers]
        assert observed in candidates
        # The observed value must be the LAST included writer's value.
        included = [w for w in writers if w in cut]
        expected = dag.ops[included[-1]].data if included else b"\x00" * 8
        assert observed == expected


@pytest.mark.parametrize("workload_name", ["queue", "arrayswap"])
def test_recovery_is_idempotent(workload_name):
    cfg = WorkloadConfig(n_threads=2, ops_per_thread=8, log_entries=512,
                         pm_size=1 << 20)
    run = generate(WORKLOADS[workload_name], cfg, StrandDialect(),
                   TxnModel(durable_commit=True))
    dag = PersistDag(run.program)
    rng = random.Random(17)
    for _ in range(6):
        image = materialise(dag, random_cut(dag, rng, 0.5), run.space)
        recover(image, run.layout)
        once = image.snapshot()
        recover(image, run.layout)
        assert image.snapshot() == once
        run.workload.check(DirectAccessor(image))
