"""Figure 2 litmus tests: allowed and forbidden crash states.

Every sub-figure of Figure 2 is encoded as a program; we enumerate all
consistent cuts of its persist DAG and check that the paper's forbidden
PM state is unreachable while representative allowed states are reachable.
"""

from repro.core.crash import reachable_values
from repro.core.model import PersistDag
from repro.core.ops import Program, TraceCursor
from repro.pmem.space import PersistentMemory

A, B, C = 0, 64, 128
ONE = b"\x01" + b"\x00" * 7
TWO = b"\x02" + b"\x00" * 7


def states(prog):
    pm = PersistentMemory(4096)
    pm.mark_clean()
    dag = PersistDag(prog)
    return reachable_values(
        dag,
        pm,
        lambda img: (img.read_u64(A), img.read_u64(B), img.read_u64(C)),
    )


def test_fig2ab_intra_strand_barrier():
    # St A; PB; St B; NS; St C — forbidden: B without A.
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.persist_barrier()
    c.store(B, ONE)
    c.new_strand()
    c.store(C, ONE)
    out = states(prog)
    assert all(not (a == 0 and b == 1) for a, b, _ in out)
    assert (0, 0, 1) in out  # C persists alone: strands are independent
    assert (1, 0, 0) in out
    assert (1, 1, 1) in out


def test_fig2cd_join_strand():
    # St A; NS; St B; JS; St C — forbidden: C without A and B.
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.new_strand()
    c.store(B, ONE)
    c.join_strand()
    c.store(C, ONE)
    out = states(prog)
    for a, b, cc in out:
        if cc == 1:
            assert a == 1 and b == 1
    assert (1, 0, 0) in out
    assert (0, 1, 0) in out
    assert (1, 1, 1) in out


def test_fig2ef_spa_with_transitivity():
    # St A; NS; St A(=2); PB; St B — forbidden: B persists without first A.
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.new_strand()
    c.store(A, TWO)
    c.persist_barrier()
    c.store(B, ONE)
    out = states(prog)
    for a, b, _ in out:
        if b == 1:
            assert a == 2  # both stores of A persisted before B
    assert (1, 0, 0) in out
    assert (2, 1, 0) in out


def test_fig2gh_loads_do_not_order():
    # St A; NS; Ld A; PB; St B — state (A=0, B=1) is ALLOWED.
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.new_strand()
    c.load(A, 8)
    c.persist_barrier()
    c.store(B, ONE)
    out = states(prog)
    assert (0, 1, 0) in out


def test_fig2ij_inter_thread_spa():
    # Thread 0: St A; NS; St B.  Thread 1 (later in VMO): St B(=2); PB; St C.
    # Forbidden: C persisted while thread 0's B did not.
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    t0.store(A, ONE)
    t0.new_strand()
    t0.store(B, ONE)
    t1.store(B, TWO)
    t1.persist_barrier()
    t1.store(C, ONE)
    out = states(prog)
    for a, b, cc in out:
        if cc == 1:
            assert b == 2  # both B stores persisted (SPA + transitivity)
        assert not (b == 2 and a == 0 and cc == 1) or b == 2
    # A remains independent of thread 1 entirely:
    assert any(a == 0 and cc == 1 for a, b, cc in out)


def test_fig2ij_thread0_strands_concurrent():
    prog = Program(2)
    t0 = TraceCursor(prog, 0)
    t1 = TraceCursor(prog, 1)
    t0.store(A, ONE)
    t0.new_strand()
    t0.store(B, ONE)
    t1.store(B, TWO)
    t1.persist_barrier()
    t1.store(C, ONE)
    out = states(prog)
    assert (0, 1, 0) in out  # B without A on thread 0
    assert (1, 0, 0) in out  # A without B


def test_sfence_litmus_total_order():
    # Intel dialect: St A; CLWB; SFENCE; St B — forbidden: B without A.
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.clwb(A)
    c.sfence()
    c.store(B, ONE)
    out = states(prog)
    assert all(not (a == 0 and b == 1) for a, b, _ in out)


def test_hops_ofence_orders_dfence_drains():
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.ofence()
    c.store(B, ONE)
    c.dfence()
    c.store(C, ONE)
    out = states(prog)
    for a, b, cc in out:
        if b == 1:
            assert a == 1
        if cc == 1:
            assert a == 1 and b == 1


def test_nonatomic_everything_reachable():
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE)
    c.store(B, ONE)
    c.store(C, ONE)
    out = states(prog)
    assert len(out) == 8  # every subset of {A, B, C}


def test_commit_marker_ordering_litmus():
    """The Figure 6 commit protocol shape: marker must never be exposed
    without the drained updates, and invalidations never without the
    marker."""
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(A, ONE, label="update")
    c.join_strand()
    c.store(B, ONE, label="marker")
    c.persist_barrier()
    c.store(C, ONE, label="invalidate")
    out = states(prog)
    for a, b, cc in out:
        if b == 1:  # marker persisted => update durable
            assert a == 1
        if cc == 1:  # invalidation persisted => marker durable
            assert b == 1
