"""The runtime's emission blocks against an op-by-op oracle.

A logged store is one :meth:`ColumnCursor.logged_store` call, a log
entry one :meth:`ColumnCursor.store_and_flush` call and a commit's
invalidations one :meth:`ColumnCursor.store_run` call.  The op-stream
pins cover every generated workload, but no workload stores a payload
that crosses a cache line or is empty, so the block paths for those are
checked here: each store is compared, op for op and field for field,
with the sequence the runtime emitted one op at a time before the blocks
(log entry and its CLWB, pair fence, update pieces and their CLWBs,
separator fence), built here from :class:`TraceCursor`-style ops.
"""

import pytest

from repro.core.ops import CACHE_LINE, ColumnCursor, Op, OpKind, Program
from repro.lang import logbuf
from repro.lang.dialect import DIALECTS, ORDERING_POINTS
from repro.lang.logbuf import LogError, LogLayout
from repro.lang.redo import RedoTxnModel
from repro.lang.runtime import PmRuntime
from repro.lang.specialize import MARK_PREFIX, SPECIALIZE_MAP, MarkerDialect
from repro.lang.txn import TxnModel
from repro.pmem.space import PersistentMemory, PmError

#: the marker rewrite as it was written out by hand before the dialects
#: held fence tables; the derived map must equal it.
LITERAL_SPECIALIZE_MAP = {
    "strand": {
        "mark:pair": OpKind.PERSIST_BARRIER,
        "mark:sep": OpKind.NEW_STRAND,
        "mark:drain": OpKind.JOIN_STRAND,
        "mark:commit": OpKind.PERSIST_BARRIER,
        "mark:region-end": OpKind.JOIN_STRAND,
    },
    "x86": {
        "mark:pair": OpKind.SFENCE,
        "mark:sep": OpKind.SFENCE,
        "mark:drain": OpKind.SFENCE,
        "mark:commit": OpKind.SFENCE,
        "mark:region-end": OpKind.SFENCE,
    },
    "hops": {
        "mark:pair": OpKind.OFENCE,
        "mark:sep": OpKind.OFENCE,
        "mark:drain": OpKind.DFENCE,
        "mark:commit": OpKind.OFENCE,
        "mark:region-end": OpKind.OFENCE,
    },
    "non-atomic": {
        "mark:pair": None,
        "mark:sep": None,
        "mark:drain": None,
        "mark:commit": None,
        "mark:region-end": None,
    },
}

#: every dialect the runtime can emit for, by name.
ALL_DIALECTS = {**DIALECTS, "marker": MarkerDialect}

LOG_BASE = 64
CAPACITY = 8


def test_specialize_map_is_derived_from_the_dialect_tables():
    assert SPECIALIZE_MAP == LITERAL_SPECIALIZE_MAP
    for cls in DIALECTS.values():
        assert set(cls.fences) == set(ORDERING_POINTS)


def _oracle_fence(dialect_name, point):
    """The fence op the per-point dialect methods emitted, or None."""
    if dialect_name == "marker":
        return Op(OpKind.SFENCE, label=MARK_PREFIX + point)
    kind = LITERAL_SPECIALIZE_MAP[dialect_name][MARK_PREFIX + point]
    return None if kind is None else Op(kind)


def _oracle_store_and_flush(addr, data, label, region, own):
    """The op-by-op ``store_and_flush``: STORE pieces split at line
    boundaries, then one CLWB per touched line."""
    ops = []
    offset = 0
    while True:
        cur = addr + offset
        room = CACHE_LINE - cur % CACHE_LINE
        piece = data[offset : offset + room]
        ops.append(Op(OpKind.STORE, addr=cur, size=len(piece), data=piece,
                      region=region, label=label))
        offset += room
        if offset >= len(data):
            break
    if data:
        first, last = addr // CACHE_LINE, (addr + len(data) - 1) // CACHE_LINE
        for line in range(first, last + 1):
            ops.append(Op(OpKind.CLWB, addr=line * CACHE_LINE, size=CACHE_LINE,
                          region=own, label=label))
    return ops


def _oracle_logged_store(rt, dialect_name, tid, addr, data, label):
    """Ops and PM writes of one ``PmRuntime.store``, as the runtime made
    them one op at a time."""
    state = rt._threads[tid]
    region = state.cursor.region
    slot = state.tail
    entry_addr = rt.layout.entry_addr(tid, slot)
    if rt.model.logging_style == "redo":
        entry = logbuf.encode_entry(logbuf.REDO, tid, addr, data, rt.seq_counter)
        ops = _oracle_store_and_flush(entry_addr, entry, "log:redo", region, region)
        return ops, [(entry_addr, entry), (addr, data)]
    old = rt.space.read(addr, len(data))
    entry = logbuf.encode_entry(logbuf.STORE, tid, addr, old, rt.seq_counter)
    ops = _oracle_store_and_flush(entry_addr, entry, "log:store", region, region)
    for point, payload in (("pair", None), ("update", data), ("sep", None)):
        if payload is None:
            fence = _oracle_fence(dialect_name, point)
            if fence is not None:
                fence.region = region
                ops.append(fence)
        else:
            ops += _oracle_store_and_flush(addr, data, label or "update", region, region)
    return ops, [(entry_addr, entry), (addr, data)]


def _runtime(dialect_name, style, capacity=CAPACITY):
    layout = LogLayout(base=LOG_BASE, capacity=capacity, n_threads=1)
    # PM ends 20 bytes into a line, so its last bytes can cross one
    space = PersistentMemory(layout.end + 8 * CACHE_LINE + 20)
    model = RedoTxnModel() if style == "redo" else TxnModel()
    rt = PmRuntime(space, layout, ALL_DIALECTS[dialect_name](), model, 1)
    rt.lock(0, 1)
    rt.txn_begin(0)
    return rt


def _heap(rt):
    return rt.layout.end + CACHE_LINE  # line-aligned, past the log


#: name -> (address of the payload relative to the heap's first line, or
#: None for the last bytes of PM; payload)
EDGE_CASES = {
    "crosses-a-line": (CACHE_LINE - 4, b"\x11" * 12),
    "ends-at-a-line-end": (CACHE_LINE - 8, b"\x22" * 8),
    "fills-a-line-part": (0, b"\x33" * 40),
    "zero-length": (24, b""),
    "zero-length-at-a-line-end": (CACHE_LINE, b""),
    "last-bytes-of-pm": (None, b"\x44" * 16),
    "last-bytes-crossing": (None, b"\x55" * 40),
}


def _addr(rt, where, data):
    if where is None:
        return rt.space.size - len(data)
    return _heap(rt) + where


def _state(rt, tid=0):
    """Everything a store may change, copied."""
    trace = rt.program.threads[tid]
    return (
        [list(col) for col in (trace.kinds, trace.lines, trace.cycles, trace.lock_ids)],
        list(trace.record),
        list(trace.marker_sites),
        rt.program._next_gseq,
        rt._threads[tid].live_entries,
        rt.seq_counter,
        rt.space.snapshot(),
    )


@pytest.mark.parametrize("style", ["undo", "redo"])
@pytest.mark.parametrize("dialect_name", sorted(ALL_DIALECTS))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_store_block_matches_op_by_op_oracle(case, dialect_name, style):
    rt = _runtime(dialect_name, style)
    where, data = EDGE_CASES[case]
    addr = _addr(rt, where, data)
    # a first ordinary store, so the case starts mid-trace and mid-log
    rt.store(0, _heap(rt) + 2 * CACHE_LINE, b"\x01" * 8)
    trace = rt.program.threads[0]
    start, gseq0 = len(trace), rt.program._next_gseq
    sites0 = list(trace.marker_sites)
    expect, writes = _oracle_logged_store(rt, dialect_name, 0, addr, data, "")
    image = PersistentMemory(rt.space.size)
    image.restore(rt.space.snapshot())
    for waddr, wdata in writes:
        image.write(waddr, wdata)

    rt.store(0, addr, data)

    for i, op in enumerate(expect):
        op.tid, op.seq, op.gseq = 0, start + i, gseq0 + i
    assert trace.ops[start:] == expect
    assert rt.program._next_gseq == gseq0 + len(expect)
    assert trace.marker_sites == sites0 + [
        (start + i, op.label) for i, op in enumerate(expect)
        if op.label.startswith(MARK_PREFIX)
    ]
    assert rt.space.snapshot() == image.snapshot()


@pytest.mark.parametrize("style", ["undo", "redo"])
@pytest.mark.parametrize("dialect_name", sorted(ALL_DIALECTS))
def test_full_log_raises_before_any_write_or_emit(dialect_name, style):
    rt = _runtime(dialect_name, style, capacity=4)  # TX_BEGIN holds one
    heap = _heap(rt)
    for i in range(3):
        rt.store(0, heap + 8 * i, bytes([i + 1]) * 8)
    before = _state(rt)
    assert before[4] == 4  # live entries: the log is full
    with pytest.raises(LogError):
        rt.store(0, heap + 2 * CACHE_LINE - 4, b"\x09" * 12)
    assert _state(rt) == before


@pytest.mark.parametrize("dialect_name", sorted(ALL_DIALECTS))
def test_oversized_value_and_out_of_bounds_change_nothing(dialect_name):
    rt = _runtime(dialect_name, "undo")
    rt.store(0, _heap(rt), b"\x01" * 8)
    before = _state(rt)
    with pytest.raises(LogError):
        rt.store(0, _heap(rt), b"\x02" * (logbuf.MAX_VALUE + 1))
    assert _state(rt) == before
    with pytest.raises(PmError):
        rt.store(0, rt.space.size - 4, b"\x03" * 8)
    assert _state(rt) == before


def test_store_run_matches_one_store_and_flush_per_address():
    block, oracle = Program(1), Program(1)
    run, single = ColumnCursor(block, 0), ColumnCursor(oracle, 0)
    run.region = single.region = 3
    addrs = [0x1001, 0x1041, 0x2001, 0x1081]
    run.store_run(addrs, b"\x00", "invalidate")
    for addr in addrs:
        single.store_and_flush(addr, b"\x00", "invalidate")
    assert block.threads[0].ops == oracle.threads[0].ops
    assert block._next_gseq == oracle._next_gseq == 2 * len(addrs)
    run.store_run([], b"\x00", "invalidate")
    assert len(block.threads[0]) == 2 * len(addrs)


def test_store_run_refuses_a_line_crossing_store():
    program = Program(1)
    cur = ColumnCursor(program, 0)
    with pytest.raises(ValueError):
        cur.store_run([0x1000, 0x103F], b"\x00\x00", "invalidate")
    assert len(program.threads[0]) == 0 and program._next_gseq == 0


def test_log_base_must_be_line_aligned():
    with pytest.raises(LogError):
        LogLayout(base=LOG_BASE + 8, capacity=CAPACITY, n_threads=1)
