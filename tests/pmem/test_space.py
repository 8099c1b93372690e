"""PersistentMemory functional tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ops import Op, OpKind
from repro.pmem.space import PersistentMemory, PmError


def test_read_write_roundtrip():
    pm = PersistentMemory(1024)
    pm.write(10, b"hello")
    assert pm.read(10, 5) == b"hello"


def test_u64_roundtrip():
    pm = PersistentMemory(1024)
    pm.write_u64(8, 0xDEADBEEF)
    assert pm.read_u64(8) == 0xDEADBEEF


def test_out_of_range_rejected():
    pm = PersistentMemory(64)
    with pytest.raises(PmError):
        pm.read(60, 8)
    with pytest.raises(PmError):
        pm.write(-1, b"x")


@pytest.mark.parametrize("addr", [-8, -1, 57, 64, 1 << 20])
def test_typed_u64_read_out_of_range_rejected(addr):
    """A negative address must not wrap to the end of PM, and a read past
    the end must raise PmError rather than struct.error."""
    pm = PersistentMemory(64)
    pm.write(56, b"\xff" * 8)
    with pytest.raises(PmError):
        pm.read_u64(addr)


def test_typed_reads_at_the_last_word_succeed():
    pm = PersistentMemory(64)
    pm.write_u64(56, 7)
    assert pm.read_u64(56) == 7


def test_zero_size_rejected():
    with pytest.raises(PmError):
        PersistentMemory(0)


def test_mark_clean_and_baseline():
    pm = PersistentMemory(128)
    pm.write(0, b"\x11" * 8)
    pm.mark_clean()
    pm.write(0, b"\x22" * 8)
    base = pm.baseline_image()
    assert base.read(0, 8) == b"\x11" * 8


def test_crash_image_applies_persists_in_gseq_order():
    pm = PersistentMemory(128)
    pm.mark_clean()
    older = Op(OpKind.STORE, addr=0, size=1, data=b"\x01", gseq=1)
    newer = Op(OpKind.STORE, addr=0, size=1, data=b"\x02", gseq=2)
    img = pm.crash_image([newer, older])
    assert img.read(0, 1) == b"\x02"


def test_crash_image_rejects_non_stores():
    pm = PersistentMemory(128)
    pm.mark_clean()
    with pytest.raises(PmError):
        pm.crash_image([Op(OpKind.CLWB, addr=0, size=64)])


def test_snapshot_restore():
    pm = PersistentMemory(64)
    pm.write(0, b"abc")
    snap = pm.snapshot()
    pm.write(0, b"xyz")
    pm.restore(snap)
    assert pm.read(0, 3) == b"abc"


@given(st.integers(0, 1000), st.binary(min_size=1, max_size=24))
@settings(max_examples=50, deadline=None)
def test_write_read_property(addr, data):
    pm = PersistentMemory(2048)
    pm.write(addr, data)
    assert pm.read(addr, len(data)) == data
