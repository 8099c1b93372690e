"""Unit tests for the formal strand persistency model (Eqs. 1-4)."""

import random

import pytest

from repro.chaos import CrashTrigger, FaultPlan
from repro.chaos.harness import CHAOS_CFG
from repro.chaos.image import _DROP_SALT, _apply_drops
from repro.core.model import STORE, PersistDag, annotate_thread
from repro.core.ops import Program, TraceCursor
from repro.workloads import WORKLOADS, generate_for_design


def build(emit):
    prog = Program(1)
    emit(TraceCursor(prog, 0))
    return PersistDag(prog)


def test_annotate_thread_strands_and_epochs():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x00")  # strand 0, epoch 0
    cur.persist_barrier()
    cur.store(64, b"\x00")  # strand 0, epoch 1
    cur.new_strand()
    cur.store(128, b"\x00")  # strand 1, epoch 0
    labels = [lab for lab in annotate_thread(prog.threads[0].ops) if lab is not None]
    assert (labels[0].strand, labels[0].sub_epoch) == (0, 0)
    assert (labels[1].strand, labels[1].sub_epoch) == (0, 1)
    assert (labels[2].strand, labels[2].sub_epoch) == (1, 0)


def test_annotate_join_strand_bumps_js_epoch():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x00")
    cur.join_strand()
    cur.store(64, b"\x00")
    labels = [lab for lab in annotate_thread(prog.threads[0].ops) if lab is not None]
    assert labels[0].js_epoch == 0
    assert labels[1].js_epoch == 1


def test_sfence_acts_as_barrier_and_drain():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x00")
    cur.sfence()
    cur.store(64, b"\x00")
    labels = [lab for lab in annotate_thread(prog.threads[0].ops) if lab is not None]
    assert labels[1].sub_epoch == labels[0].sub_epoch + 1
    assert labels[1].js_epoch == labels[0].js_epoch + 1


def test_persist_barrier_orders_within_strand():
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.persist_barrier(),
                           c.store(64, b"\x01", label="B")))
    a, b = dag.find("A"), dag.find("B")
    assert dag.ordered_before(a, b)
    assert not dag.ordered_before(b, a)


def test_new_strand_clears_ordering():
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.persist_barrier(),
                           c.new_strand(),
                           c.store(64, b"\x01", label="B")))
    assert not dag.ordered_before(dag.find("A"), dag.find("B"))


def test_no_barrier_no_order():
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.store(64, b"\x01", label="B")))
    assert not dag.ordered_before(dag.find("A"), dag.find("B"))


def test_barrier_does_not_order_across_strands():
    # A ; NS ; B ; PB ; C  — the barrier orders B before C, not A before C.
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.new_strand(),
                           c.store(64, b"\x01", label="B"),
                           c.persist_barrier(),
                           c.store(128, b"\x01", label="C")))
    assert dag.ordered_before(dag.find("B"), dag.find("C"))
    assert not dag.ordered_before(dag.find("A"), dag.find("C"))


def test_join_strand_orders_across_strands():
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.new_strand(),
                           c.store(64, b"\x01", label="B"),
                           c.join_strand(),
                           c.store(128, b"\x01", label="C")))
    assert dag.ordered_before(dag.find("A"), dag.find("C"))
    assert dag.ordered_before(dag.find("B"), dag.find("C"))
    assert not dag.ordered_before(dag.find("A"), dag.find("B"))


def test_spa_orders_same_location(pm=None):
    dag = build(lambda c: (c.store(0, b"\x01", label="A1"),
                           c.new_strand(),
                           c.store(0, b"\x02", label="A2")))
    assert dag.ordered_before(dag.find("A1"), dag.find("A2"))


def test_spa_partial_overlap():
    dag = build(lambda c: (c.store(0, b"\x01" * 8, label="A"),
                           c.new_strand(),
                           c.store(4, b"\x02" * 8, label="B")))
    assert dag.ordered_before(dag.find("A"), dag.find("B"))


def test_spa_no_overlap_no_order():
    dag = build(lambda c: (c.store(0, b"\x01" * 4, label="A"),
                           c.new_strand(),
                           c.store(4, b"\x02" * 4, label="B")))
    assert not dag.ordered_before(dag.find("A"), dag.find("B"))


def test_transitivity_through_spa_and_barrier():
    # Fig. 2(e): St A (strand 0); NS; St A; PB; St B  =>  A0 <=p B.
    dag = build(lambda c: (c.store(0, b"\x01", label="A0"),
                           c.new_strand(),
                           c.store(0, b"\x02", label="A1"),
                           c.persist_barrier(),
                           c.store(64, b"\x01", label="B")))
    assert dag.ordered_before(dag.find("A0"), dag.find("B"))


def test_loads_do_not_create_spa_order():
    # Fig. 2(g): a load of A on strand 1 does not order B after A.
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.new_strand(),
                           c.load(0, 8),
                           c.persist_barrier(),
                           c.store(64, b"\x01", label="B")))
    assert not dag.ordered_before(dag.find("A"), dag.find("B"))


def test_inter_thread_spa():
    # Fig. 2(i): conflicting stores to B across threads, visibility order
    # thread0 first, then thread1's PB orders C after it.
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    t0.store(0, b"\x01", label="A")
    t0.new_strand()
    t0.store(64, b"\x01", label="B0")
    t1.store(64, b"\x02", label="B1")
    t1.persist_barrier()
    t1.store(128, b"\x01", label="C")
    dag = PersistDag(prog)
    assert dag.ordered_before(dag.find("B0"), dag.find("B1"))
    assert dag.ordered_before(dag.find("B0"), dag.find("C"))
    assert not dag.ordered_before(dag.find("A"), dag.find("C"))


def test_durability_transfer_through_lock_handoff():
    # Thread 0 drains (JS) then releases; thread 1 acquires and stores.
    # Thread 1's store in a cut forces thread 0's pre-drain store in.
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    t0.lock(1)
    t0.store(0, b"\x01", label="A")
    t0.join_strand()
    t0.unlock(1)
    t1.lock(1)
    t1.store(64, b"\x01", label="B")
    t1.unlock(1)
    dag = PersistDag(prog)
    assert dag.ordered_before(dag.find("A"), dag.find("B"))


def test_no_durability_transfer_without_drain():
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    t0.lock(1)
    t0.store(0, b"\x01", label="A")
    t0.unlock(1)  # no JoinStrand before release
    t1.lock(1)
    t1.store(64, b"\x01", label="B")
    t1.unlock(1)
    dag = PersistDag(prog)
    assert not dag.ordered_before(dag.find("A"), dag.find("B"))


def test_undrained_tail_not_transferred():
    # Only persists before the *last* drain are durable at hand-off.
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    t0.lock(1)
    t0.store(0, b"\x01", label="A")
    t0.join_strand()
    t0.store(64, b"\x01", label="T")  # after the drain
    t0.unlock(1)
    t1.lock(1)
    t1.store(128, b"\x01", label="B")
    t1.unlock(1)
    dag = PersistDag(prog)
    assert dag.ordered_before(dag.find("A"), dag.find("B"))
    assert not dag.ordered_before(dag.find("T"), dag.find("B"))


def test_consistent_cut_checks_predecessors():
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.persist_barrier(),
                           c.store(64, b"\x01", label="B")))
    a, b = dag.find("A"), dag.find("B")
    assert dag.is_consistent_cut({a})
    assert dag.is_consistent_cut({a, b})
    assert not dag.is_consistent_cut({b})


def test_downward_close():
    dag = build(lambda c: (c.store(0, b"\x01", label="A"),
                           c.persist_barrier(),
                           c.store(64, b"\x01", label="B"),
                           c.persist_barrier(),
                           c.store(128, b"\x01", label="C")))
    cut = dag.downward_close({dag.find("C")})
    assert dag.find("A") in cut
    assert dag.find("B") in cut
    assert dag.is_consistent_cut(cut)


def test_find_raises_on_missing_label():
    dag = build(lambda c: c.store(0, b"\x01", label="A"))
    with pytest.raises(KeyError):
        dag.find("missing")


def test_edges_point_to_lower_indices():
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    for i in range(6):
        (t0 if i % 2 else t1).store(i * 64, bytes([i]))
        (t0 if i % 2 else t1).persist_barrier()
    dag = PersistDag(prog)
    for idx in range(len(dag)):
        assert all(p < idx for p in dag.preds(idx))


# -- index-bounded queries and derived indexes --------------------------------

#: (benchmark, design) programs the index-bound checks run on.
WORKLOAD_CELLS = (
    ("queue", "strandweaver"),
    ("tpcc", "intel-x86"),
    ("rbtree", "hops"),
    ("hashmap", "non-atomic"),
)


@pytest.fixture(scope="module", params=WORKLOAD_CELLS, ids="/".join)
def workload_dag(request):
    bench, design = request.param
    run = generate_for_design(
        WORKLOADS[bench], CHAOS_CFG, design, "txn", durable_commit=True
    )
    return PersistDag(run.program)


def test_workload_edges_point_to_lower_indices(workload_dag):
    for idx in range(len(workload_dag)):
        preds = list(workload_dag.preds(idx))
        assert preds == sorted(set(preds))
        assert all(p < idx for p in preds)


def test_downward_close_floor_is_the_restricted_closure(workload_dag):
    rng = random.Random(3)
    n = len(workload_dag)
    for _ in range(60):
        seed = rng.sample(range(n), rng.randrange(1, 4))
        full = workload_dag.downward_close(seed)
        for floor in (0, rng.randrange(n), min(seed), max(seed), max(seed) + 1, n):
            want = {i for i in full if i >= floor}
            assert workload_dag.downward_close(seed, floor) == want, (seed, floor)


def test_ordered_before_matches_the_full_ancestor_closure(workload_dag):
    rng = random.Random(5)
    n = len(workload_dag)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    # Near pairs are where pruning and real ordering meet.
    pairs += [(b - rng.randrange(1, 40), b) for b in rng.sample(range(40, n), 100)]
    pairs += [(b, b) for b in rng.sample(range(n), 5)]
    hits = 0
    for a, b in pairs:
        want = a != b and a in workload_dag.downward_close([b])
        assert workload_dag.ordered_before(a, b) == want, (a, b)
        hits += want
    assert hits > 0


def test_op_indexes_are_built_once(workload_dag):
    stores = [i for i in range(len(workload_dag)) if workload_dag.kinds[i] == STORE]
    ops = workload_dag.ops
    by_gseq = workload_dag.node_of_gseq
    assert workload_dag.node_of_gseq is by_gseq
    assert by_gseq == {ops[i].gseq: i for i in stores}
    by_key = workload_dag.node_of
    assert workload_dag.node_of is by_key
    assert by_key == {(ops[i].tid, ops[i].seq): i for i in stores}


def _reverse_edge_walk(dag, seeds):
    """Every node reachable from ``seeds`` along reversed edges."""
    succs = [[] for _ in range(len(dag))]
    for pred, succ in dag.edges():
        succs[pred].append(succ)
    reached = set()
    frontier = list(seeds)
    while frontier:
        idx = frontier.pop()
        if idx not in reached:
            reached.add(idx)
            frontier.extend(succs[idx])
    return reached


def test_drop_closure_matches_a_reverse_edge_walk(workload_dag):
    """The one ascending pass of ``upward_close``, and the image
    builder's drop faults built on it, against a walk over successors."""
    rng = random.Random(13)
    n = len(workload_dag)
    for _ in range(40):
        seeds = rng.sample(range(n), rng.randrange(0, 6))
        assert workload_dag.upward_close(seeds) == _reverse_edge_walk(workload_dag, seeds)
    stores = sorted(workload_dag.node_of_gseq.values())
    for seed in range(20):
        included = set(rng.sample(stores, rng.randrange(1, len(stores) + 1)))
        plan = FaultPlan(CrashTrigger("ops", 1), seed=seed, drop_prob=rng.uniform(0.005, 0.5))
        draws = random.Random(plan.seed ^ _DROP_SALT)
        dropped = [idx for idx in sorted(included) if draws.random() < plan.drop_prob]
        want = included - _reverse_edge_walk(workload_dag, dropped)
        _apply_drops(workload_dag, included, plan)
        assert included == want


@pytest.mark.parametrize("seed", range(4))
def test_spa_edges_match_a_byte_owner_oracle(seed):
    """Barrier- and lock-free stores on two threads: every edge is an
    Eq. 3 edge, so each node's preds are exactly the previous writers of
    its bytes.  Sizes up to 150 bytes cross one or two line boundaries."""
    rng = random.Random(seed)
    prog = Program(2)
    cursors = [TraceCursor(prog, 0), TraceCursor(prog, 1)]
    for _ in range(120):
        size = rng.choice((1, 8, 40, 64, rng.randrange(1, 151)))
        addr = rng.randrange(0, 6 * 64)
        rng.choice(cursors).store(addr, bytes(size), on_line_cross="allow")
    dag = PersistDag(prog)
    owner = {}
    for idx, op in enumerate(dag.ops):
        want = {owner[b] for b in range(op.addr, op.addr + op.size) if b in owner}
        assert list(dag.preds(idx)) == sorted(want)
        for b in range(op.addr, op.addr + op.size):
            owner[b] = idx
