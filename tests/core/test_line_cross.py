"""Cache-line atomicity validation of ``TraceCursor.store``."""

import pytest

from repro.core.ops import (
    CACHE_LINE,
    LineCrossError,
    OpKind,
    Program,
    TraceCursor,
    split_at_lines,
)


def _cursor():
    prog = Program(1)
    return prog, TraceCursor(prog, 0)


def test_split_at_lines_respects_boundaries():
    pieces = split_at_lines(CACHE_LINE - 8, b"\xab" * 24)
    assert [(a, len(d)) for a, d in pieces] == [(CACHE_LINE - 8, 8), (CACHE_LINE, 16)]
    assert b"".join(d for _, d in pieces) == b"\xab" * 24


def test_aligned_store_stays_single_op():
    prog, c = _cursor()
    op = c.store(0x1000, b"\x01" * CACHE_LINE)
    assert op.size == CACHE_LINE
    assert len(prog.threads[0].ops) == 1


def test_crossing_store_splits_by_default():
    prog, c = _cursor()
    first = c.store(0x1000 + CACHE_LINE - 4, b"\x22" * 12)
    ops = prog.threads[0].ops
    assert [op.kind for op in ops] == [OpKind.STORE, OpKind.STORE]
    assert first is ops[0]
    assert (ops[0].addr, ops[0].size) == (0x1000 + CACHE_LINE - 4, 4)
    assert (ops[1].addr, ops[1].size) == (0x1000 + CACHE_LINE, 8)
    assert ops[0].data + ops[1].data == b"\x22" * 12
    # every split piece is persist-atomic
    for op in ops:
        assert op.addr // CACHE_LINE == (op.addr + op.size - 1) // CACHE_LINE


def test_crossing_store_can_raise():
    _, c = _cursor()
    with pytest.raises(LineCrossError, match="spans 2 cache lines"):
        c.store(CACHE_LINE - 1, b"\x00\x01", on_line_cross="raise")


def test_crossing_store_can_be_allowed_for_torn_write_seeding():
    prog, c = _cursor()
    op = c.store(CACHE_LINE - 1, b"\x00\x01", on_line_cross="allow")
    assert op.size == 2
    assert len(prog.threads[0].ops) == 1


def test_bogus_policy_rejected():
    _, c = _cursor()
    with pytest.raises(ValueError, match="on_line_cross"):
        c.store(CACHE_LINE - 1, b"\x00\x01", on_line_cross="maybe")


def test_bogus_policy_rejected_even_when_the_store_fits_one_line():
    """The policy is validated before the payload is split, so a bad value
    cannot hide behind a store that happens not to cross a line."""
    prog, c = _cursor()
    with pytest.raises(ValueError, match="on_line_cross"):
        c.store(0, b"x" * 8, on_line_cross="bogus")
    with pytest.raises(ValueError, match="on_line_cross"):
        c.store(0, b"\x00", on_line_cross="maybe")
    assert len(prog.threads[0].ops) == 0
