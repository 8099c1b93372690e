"""The program lifecycle contract: a program grows until it is sealed,
and every cache derived from it is built from the sealed program.

Generation ends by sealing, and so does every derived read (a replay on
either tier, ``touched_lines()``, a persist DAG, the declarative model,
the linter).  Emitting into a sealed program raises
:class:`SealedProgramError` before anything is written.
"""

import pytest

from repro.analysis import analyze
from repro.analysis.pmo import DeclarativePmo
from repro.core.model import PersistDag
from repro.core.ops import (
    CACHE_LINE,
    ColumnCursor,
    Op,
    OpKind,
    Program,
    SealedProgramError,
    TraceCursor,
)
from repro.harness.experiment import default_config
from repro.obs import Tracer
from repro.sim.machine import DESIGNS, REFERENCE_ENGINE_ENV, Machine
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_canonical, generate_for_design, specialize_run

MARK = (int(OpKind.SFENCE), "mark:x")


def _state(program):
    """Everything an emitter writes: the columns, the record, the marker
    sites, the lock order and the next visibility slot."""
    return (
        [
            (list(t.kinds), list(t.lines), list(t.cycles), list(t.lock_ids),
             list(t.record), list(t.marker_sites))
            for t in program.threads
        ],
        {lock: list(tids) for lock, tids in program.lock_order.items()},
        program._next_gseq,
    )


def _stats(stats):
    return stats.cycles, [dict(core.__dict__) for core in stats.per_core]


def _flushed_store(cursor, addr, byte):
    cursor.store(addr, bytes([byte]) * 8)
    cursor.clwb(addr)
    cursor.sfence()


@pytest.mark.parametrize("reference", (False, True), ids=("native", "reference"))
def test_a_replayed_program_refuses_to_grow(monkeypatch, reference):
    """A one-thread STORE/CLWB/SFENCE program replayed and then extended
    by three ops used to replay its old streams on the native core and
    its old warm set on the reference engine, each a wrong answer.  The
    extension now raises and leaves the program as it was, and the six
    ops built in one go replay to the same stats on both tiers."""
    if reference:
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
    program = Program(1)
    cursor = TraceCursor(program, 0)
    _flushed_store(cursor, 0, 1)
    first = Machine("intel-x86").run(program)
    before = _state(program)
    with pytest.raises(SealedProgramError):
        _flushed_store(cursor, CACHE_LINE, 2)
    assert _state(program) == before
    assert _stats(Machine("intel-x86").run(program)) == _stats(first)

    whole = Program(1)
    cursor = TraceCursor(whole, 0)
    _flushed_store(cursor, 0, 1)
    _flushed_store(cursor, CACHE_LINE, 2)
    monkeypatch.delenv(REFERENCE_ENGINE_ENV, raising=False)
    native = Machine("intel-x86").run(whole)
    monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
    assert _stats(Machine("intel-x86").run(whole)) == _stats(native)
    assert native.per_core[0].ops == 6


def _strand_program():
    program = Program(1)
    cursor = TraceCursor(program, 0)
    cursor.store(0, b"\x01" * 8)
    cursor.clwb(0)
    cursor.persist_barrier()
    cursor.store(CACHE_LINE, b"\x02" * 8)
    cursor.clwb(CACHE_LINE)
    cursor.join_strand()
    return program


DERIVED_READS = {
    "touched_lines": lambda p: p.touched_lines(),
    "PersistDag": PersistDag,
    "DeclarativePmo": lambda p: DeclarativePmo(p, "strandweaver"),
    "analyze": lambda p: analyze(p, "strandweaver"),
    "cold-native-run": lambda p: Machine("strandweaver").run(p, warm=False),
    # a tracer forces the reference engine
    "cold-reference-run": lambda p: Machine("strandweaver", tracer=Tracer()).run(
        p, warm=False
    ),
}


@pytest.mark.parametrize("read", sorted(DERIVED_READS))
def test_a_derived_read_seals_the_program(read):
    program = _strand_program()
    DERIVED_READS[read](program)
    before = _state(program)
    with pytest.raises(SealedProgramError):
        TraceCursor(program, 0).store(2 * CACHE_LINE, b"\x03" * 8)
    assert _state(program) == before


def test_reading_the_ops_does_not_seal():
    """Hand-built programs are read while they are being built."""
    program = Program(1)
    cursor = TraceCursor(program, 0)
    cursor.load(0, 8)
    assert [op.kind for op in program.threads[0].ops] == [OpKind.LOAD]
    assert len(program.all_ops()) == 1
    cursor.load(CACHE_LINE, 8)
    assert len(program.threads[0]) == 2


def test_generated_and_specialized_programs_are_sealed():
    cfg = default_config(ops_per_thread=2)
    canonical = generate_canonical(WORKLOADS["queue"], cfg, "txn")
    programs = {
        "generate": generate_for_design(WORKLOADS["queue"], cfg, "strandweaver").program,
        "generate_canonical": canonical.program,
    }
    for design in DESIGNS:
        programs[design] = specialize_run(canonical, design).program
    for name, program in programs.items():
        before = _state(program)
        with pytest.raises(SealedProgramError):
            ColumnCursor(program, 0).compute(1)
        assert _state(program) == before, name


def test_seal_is_idempotent():
    program = _strand_program()
    program.seal()
    lines = program.touched_lines()
    assert list(lines) == [0, 1]
    program.seal()
    assert program.touched_lines() is lines


#: one call of every emitter, each of its paths: name -> call on a cursor.
EMITTERS = {
    "load": lambda c: c.load(0, 8),
    "sfence": lambda c: c.sfence(),
    "persist_barrier": lambda c: c.persist_barrier(),
    "new_strand": lambda c: c.new_strand(),
    "join_strand": lambda c: c.join_strand(),
    "ofence": lambda c: c.ofence(),
    "dfence": lambda c: c.dfence(),
    "lock": lambda c: c.lock(7),
    "unlock": lambda c: c.unlock(7),
    "compute": lambda c: c.compute(5),
    "fence": lambda c: c.fence(MARK),
    "store_and_flush": lambda c: c.store_and_flush(0, b"\x01" * 8, "s"),
    "store_and_flush-crossing": lambda c: c.store_and_flush(60, b"\x01" * 8, "s"),
    "logged_store": lambda c: c.logged_store(
        0, b"\x00" * CACHE_LINE, "log", MARK, 128, b"\x01" * 8, "u", MARK
    ),
    "logged_store-no-fences": lambda c: c.logged_store(
        0, b"\x00" * CACHE_LINE, "log", None, 128, b"\x01" * 8, "u", None
    ),
    "store_run": lambda c: c.store_run([0, 128], b"\x00" * 8, "inv"),
}
TRACE_EMITTERS = {
    "store": lambda c: c.store(0, b"\x01" * 8),
    "store-split": lambda c: c.store(60, b"\x01" * 8),
    "clwb": lambda c: c.clwb(0),
}


@pytest.mark.parametrize(
    "cursor_cls,emitter",
    [(ColumnCursor, name) for name in EMITTERS]
    + [(TraceCursor, name) for name in [*EMITTERS, *TRACE_EMITTERS]],
)
def test_every_emitter_refuses_a_sealed_program_before_writing(cursor_cls, emitter):
    """Each emitter works on an open program, and on a sealed one raises
    before it writes a column, the record, a marker site or the lock order."""
    emit = {**EMITTERS, **TRACE_EMITTERS}[emitter]
    program = Program(1)
    cursor = cursor_cls(program, 0)
    emit(cursor)
    cursor.lock(7)
    cursor.fence(MARK)
    program.seal()
    before = _state(program)
    with pytest.raises(SealedProgramError):
        emit(cursor)
    assert _state(program) == before


def test_a_refused_lock_acquire_leaves_the_lock_order():
    program = Program(2)
    program.emit(0, Op(OpKind.LOCK_ACQ, lock_id=7))
    program.seal()
    before = _state(program)
    with pytest.raises(SealedProgramError):
        program.emit(1, Op(OpKind.LOCK_ACQ, lock_id=7))
    assert program.lock_order == {7: [0]}
    assert _state(program) == before
