"""Generated traces are born as replay columns and build ops only on read.

The runtime writes every trace through :class:`ColumnCursor` into a
:class:`ColumnTrace`, and hand-built programs are column traces too;
``.ops`` builds :class:`Op` objects from those columns when (and only
when) something reads it.  The sweep path must never read it: these
tests fail if a sim-only cell starts building ops.
"""

import pickle

import pytest

from repro.core.ops import (
    CACHE_LINE,
    ColumnCursor,
    ColumnTrace,
    OpKind,
    Program,
    TraceCursor,
)
from repro.harness import experiment
from repro.sim import cnative
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_canonical, specialize_run


def _built(program) -> int:
    return sum(len(trace._ops) for trace in program.threads)


@pytest.mark.parametrize("design", ["intel-x86", "strandweaver", "non-atomic"])
def test_sim_only_cell_builds_no_ops(design):
    if not cnative.available():
        pytest.skip("no C compiler in this environment")
    experiment.clear_cache()
    try:
        stats = experiment.run_cell("queue", design, "sfr", ops_per_thread=8)
        runs = [*experiment._CANONICAL.values(), *experiment._PROGRAMS.values()]
        assert len(runs) == 2  # the canonical run and its specialization
        for run in runs:
            assert all(isinstance(t, ColumnTrace) for t in run.program.threads)
            assert _built(run.program) == 0
        spec = next(iter(experiment._PROGRAMS.values())).program
        assert sum(len(t) for t in spec.threads) == stats.total.ops
        for run in runs:
            assert _built(run.program) == 0  # len(trace) builds none
    finally:
        experiment.clear_cache()


def _emit_mix(cur):
    """The same emission sequence through either cursor."""
    cur.lock(3)
    cur.load(0x1000, 8)
    cur.compute(120)
    cur.region = 5
    cur.sfence()
    cur.persist_barrier()
    cur.new_strand()
    cur.join_strand()
    cur.ofence()
    cur.dfence()
    cur.region = -1
    cur.unlock(3)


def _store_and_flush(cur, addr, data, label, region=None):
    """What the runtime emits for one store, through a TraceCursor: the
    STORE pieces carry ``region`` (default: the cursor's), the CLWBs the
    cursor's.  The columns are what the trace holds, so the region is
    set on the cursor before the call, not on the ops it returns."""
    own = cur.region
    if region is not None:
        cur.region = region
    cur.store(addr, data, label=label)
    cur.region = own
    for line in range(addr // CACHE_LINE, (addr + len(data) - 1) // CACHE_LINE + 1):
        cur.clwb(line * CACHE_LINE, label=label)


def test_column_cursor_matches_trace_cursor_field_for_field():
    ref = Program(2)
    col = Program(2)
    stores = [
        (0x1000, b"\x01" * 8, "log:STORE", None),
        (0x1000 + CACHE_LINE - 4, b"\x22" * 12, "update", None),  # splits
        (0x2000 - 3, b"\x33" * (2 * CACHE_LINE), "update", None),  # 3 pieces
        (0x3002, b"\x01", "commit-marker", 9),  # region override
        (0x4000, b"", "empty", None),  # one empty piece, no CLWB
    ]
    for tid in (0, 1):
        tc, cc = TraceCursor(ref, tid), ColumnCursor(col, tid)
        _emit_mix(tc)
        _emit_mix(cc)
        for addr, data, label, region in stores:
            tc.region = cc.region = 4
            _store_and_flush(tc, addr, data, label, region)
            cc.store_and_flush(addr, data, label, region)
    assert col.lock_order == ref.lock_order
    assert col._next_gseq == ref._next_gseq
    for rt, ct in zip(ref.threads, col.threads):
        assert len(ct) == len(rt)
        assert ct.ops == rt.ops
        assert all(type(op.kind) is OpKind for op in ct.ops)
        # replay columns and op-mix totals: written op by op, and in blocks
        assert (ct.kinds, ct.lines, ct.cycles, ct.lock_ids) == (
            rt.kinds, rt.lines, rt.cycles, rt.lock_ids
        )
        assert cnative._op_mix(ct.kinds, ct.cycles) == cnative._op_mix(rt.kinds, rt.cycles)


def test_ops_are_correct_whenever_read_while_emitting():
    program = Program(1)
    cur = ColumnCursor(program, 0)
    trace = program.threads[0]
    cur.load(0x80, 8)
    first = trace.ops
    assert [op.kind for op in first] == [OpKind.LOAD]
    head = first[0]
    cur.compute(7)
    cur.store_and_flush(0x100, b"\x05" * 4, "x")
    ops = trace.ops
    assert ops is first and ops[0] is head  # extended, never rebuilt
    assert [op.kind for op in ops] == [
        OpKind.LOAD, OpKind.COMPUTE, OpKind.STORE, OpKind.CLWB,
    ]
    assert [op.seq for op in ops] == [0, 1, 2, 3]
    assert [op.gseq for op in ops] == [0, 1, 2, 3]
    assert ops[1].cycles == 7 and ops[2].data == b"\x05" * 4


def test_hand_built_traces_replay_their_own_columns():
    """A hand-built trace is replay columns from its first op, so the
    native core's streams are the trace's own arrays: nothing compiles."""
    program = Program(1)
    cur = TraceCursor(program, 0)
    cur.store(0x1000 + CACHE_LINE - 4, b"\x07" * 12)  # two pieces
    cur.clwb(0x1000)
    cur.compute(9)
    trace = program.threads[0]
    assert list(trace.kinds) == [OpKind.STORE, OpKind.STORE, OpKind.CLWB, OpKind.COMPUTE]
    assert list(trace.lines) == [0x1000 // CACHE_LINE + i for i in (0, 1, 0)] + [0]
    static = cnative._op_mix(trace.kinds, trace.cycles)
    assert static["stores"] == 2 and static["compute_cycles"] == 9


def test_touched_lines_match_an_op_scan():
    canonical = generate_canonical(
        WORKLOADS["queue"], experiment.default_config(ops_per_thread=4), "txn"
    )
    program = canonical.program
    expect = sorted(
        {
            op.addr // CACHE_LINE
            for trace in program.threads
            for op in trace.ops
            if op.kind in (OpKind.STORE, OpKind.LOAD, OpKind.CLWB)
        }
    )
    assert list(program.touched_lines()) == expect
    spec = specialize_run(canonical, "strandweaver").program
    assert spec.touched_lines() is program.touched_lines()


@pytest.mark.parametrize("design", ["strandweaver", "non-atomic"])
def test_specialized_programs_pickle(design):
    canonical = generate_canonical(
        WORKLOADS["queue"], experiment.default_config(ops_per_thread=4), "txn"
    )
    program = specialize_run(canonical, design).program
    clone = pickle.loads(pickle.dumps(program))
    for a, b in zip(program.threads, clone.threads):
        assert a.ops == b.ops
        assert list(a.kinds) == list(b.kinds)
