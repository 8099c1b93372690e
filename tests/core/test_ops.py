"""Unit tests for the micro-op IR."""

from dataclasses import replace

from repro.core.ops import (
    ADDRESSED_KINDS,
    Op,
    OpKind,
    Program,
    TraceCursor,
    line_of,
    lines_of,
)


def test_kind_numbering_is_fixed():
    """A kinds column holds each op's kind as its int value, and the native
    core reads those values raw, so the numbering is part of the IR."""
    assert [(kind.name, kind.value) for kind in OpKind] == [
        ("STORE", 0), ("LOAD", 1), ("CLWB", 2), ("SFENCE", 3),
        ("PERSIST_BARRIER", 4), ("NEW_STRAND", 5), ("JOIN_STRAND", 6),
        ("OFENCE", 7), ("DFENCE", 8), ("LOCK_ACQ", 9), ("LOCK_REL", 10),
        ("COMPUTE", 11),
    ]


def test_only_stores_loads_and_clwbs_address_memory():
    """STORE, LOAD and CLWB name a PM line; a program's touched lines are
    theirs alone, whatever else it holds."""
    assert ADDRESSED_KINDS == {OpKind.STORE, OpKind.LOAD, OpKind.CLWB}
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0x40, b"\x01")
    cur.lock(3)
    cur.load(0x80, 8)
    cur.sfence()
    cur.persist_barrier()
    cur.new_strand()
    cur.clwb(0xC0)
    cur.join_strand()
    cur.ofence()
    cur.dfence()
    cur.compute(5)
    cur.unlock(3)
    assert {op.kind for op in prog.all_ops()} == set(OpKind)
    assert list(prog.touched_lines()) == [1, 2, 3]


def test_line_of():
    assert line_of(0) == 0
    assert line_of(63) == 0
    assert line_of(64) == 1
    assert line_of(129) == 2


def test_lines_of_within_one_line():
    assert lines_of(0, 8) == (0,)
    assert lines_of(56, 8) == (0,)


def test_lines_of_spanning_lines():
    assert lines_of(60, 8) == (0, 1)
    assert lines_of(0, 129) == (0, 1, 2)


def test_lines_of_empty():
    assert lines_of(10, 0) == ()


def test_store_op_roundtrip():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    op = cur.store(0x100, b"\x01\x02")
    assert op.kind is OpKind.STORE
    assert op.addr == 0x100
    assert op.size == 2
    assert op.data == b"\x01\x02"
    assert op.tid == 0
    assert op.seq == 0
    assert op.gseq == 0


def test_gseq_is_global_across_threads():
    prog = Program(2)
    a = TraceCursor(prog, 0)
    b = TraceCursor(prog, 1)
    op0 = a.store(0, b"\x00")
    op1 = b.store(64, b"\x00")
    op2 = a.load(0, 8)
    assert [op0.gseq, op1.gseq, op2.gseq] == [0, 1, 2]
    assert [op.gseq for op in prog.all_ops()] == [0, 1, 2]


def test_lock_order_recorded():
    prog = Program(2)
    a = TraceCursor(prog, 0)
    b = TraceCursor(prog, 1)
    a.lock(7)
    b.lock(7)
    a.lock(9)
    assert prog.lock_order == {7: [0, 1], 9: [0]}


def test_cursor_emits_all_strand_primitives():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    assert cur.persist_barrier().kind is OpKind.PERSIST_BARRIER
    assert cur.new_strand().kind is OpKind.NEW_STRAND
    assert cur.join_strand().kind is OpKind.JOIN_STRAND
    assert cur.ofence().kind is OpKind.OFENCE
    assert cur.dfence().kind is OpKind.DFENCE
    assert cur.compute(10).cycles == 10


def test_region_tag_propagates():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.region = 5
    op = cur.store(0, b"\x00")
    assert op.region == 5


def test_emit_leaves_the_callers_op_untouched():
    prog = Program(2)
    prog.emit(0, Op(OpKind.SFENCE))
    op = Op(OpKind.STORE, addr=0x40, size=2, data=b"\x01\x02", region=3, label="x")
    before = replace(op)
    prog.emit(1, op)
    assert op == before
    assert (op.tid, op.seq, op.gseq) == (-1, -1, -1)


def test_emit_returns_the_traces_own_op_numbered():
    prog = Program(2)
    prog.emit(0, Op(OpKind.SFENCE))
    op = Op(OpKind.STORE, addr=0x40, size=2, data=b"\x01\x02", region=3, label="x")
    out = prog.emit(1, op)
    trace = prog.threads[1]
    assert out is trace.ops[-1] and out is not op
    assert (out.tid, out.seq, out.gseq) == (1, 0, 1)
    assert out == Op(OpKind.STORE, 0x40, 2, b"\x01\x02", -1, 0, 1, 0, 1, 3, "x")
    assert list(trace.kinds) == [OpKind.STORE] and list(trace.lines) == [1]


def test_emit_records_a_lock_acquire():
    prog = Program(2)
    prog.emit(1, Op(OpKind.LOCK_ACQ, lock_id=7))
    prog.emit(0, Op(OpKind.LOCK_ACQ, lock_id=7))
    prog.emit(1, Op(OpKind.LOCK_REL, lock_id=7))
    assert prog.lock_order == {7: [1, 0]}
    assert list(prog.threads[1].lock_ids) == [7, 7]
    assert list(prog.threads[0].lock_ids) == [7]


def test_cursor_returns_the_op_the_trace_holds():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    trace = prog.threads[0]
    calls = [
        lambda: cur.store(0x100, b"\x01" * 8),
        lambda: cur.load(0x100, 8),
        lambda: cur.clwb(0x100, size=32),
        cur.sfence, cur.persist_barrier, cur.new_strand, cur.join_strand,
        cur.ofence, cur.dfence,
        lambda: cur.lock(2), lambda: cur.unlock(2), lambda: cur.compute(5),
    ]
    for seq, call in enumerate(calls):
        op = call()
        assert op is trace.ops[seq] and op.seq == seq
        assert trace.kinds[seq] == op.kind
    assert len(trace.ops) == len(calls)
    assert trace.ops[2].size == 32 and trace.ops[-1].cycles == 5
