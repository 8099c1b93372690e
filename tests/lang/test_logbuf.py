"""Log entry codec and layout tests."""

import random

import pytest

from repro.chaos.harness import CrashHarness
from repro.chaos.image import build_crash_image
from repro.chaos.plan import sample_schedules
from repro.lang import logbuf
from repro.lang.logbuf import LogError, LogLayout, decode_entry, encode_entry
from repro.pmem.space import PersistentMemory
from repro.sim.machine import Machine


def test_entry_roundtrip():
    raw = encode_entry(logbuf.STORE, tid=3, addr=0x1234, value=b"\xab" * 8, seq=77)
    assert len(raw) == logbuf.ENTRY_SIZE
    e = decode_entry(raw, slot=5)
    assert e.type == logbuf.STORE
    assert e.valid and not e.commit
    assert e.tid == 3
    assert e.addr == 0x1234
    assert e.value == b"\xab" * 8
    assert e.seq == 77
    assert e.slot == 5
    assert e.type_name == "store"


def test_entry_commit_flag():
    raw = encode_entry(logbuf.TX_END, 0, 0, b"", 1, commit=True)
    assert decode_entry(raw, 0).commit


def test_oversized_value_rejected():
    with pytest.raises(LogError):
        encode_entry(logbuf.STORE, 0, 0, b"\x00" * 41, 1)


def test_layout_addresses():
    layout = LogLayout(base=64, capacity=8, n_threads=2)
    assert layout.header_addr(0) == 64
    assert layout.entry_addr(0, 0) == 64 + 64
    assert layout.entry_addr(0, 7) == 64 + 64 + 7 * 64
    assert layout.region_base(1) == 64 + layout.region_size
    assert layout.end == 64 + 2 * layout.region_size


def test_layout_slot_bounds():
    layout = LogLayout(base=0, capacity=4, n_threads=1)
    with pytest.raises(LogError):
        layout.entry_addr(0, 4)


def test_init_and_head():
    layout = LogLayout(base=0, capacity=4, n_threads=1)
    pm = PersistentMemory(layout.end)
    layout.init_region(pm, 0)
    assert layout.read_head(pm, 0) == 0
    pm.write(layout.header_addr(0), layout.encode_head(3))
    assert layout.read_head(pm, 0) == 3


def test_scan_skips_untouched_slots():
    layout = LogLayout(base=0, capacity=4, n_threads=1)
    pm = PersistentMemory(layout.end)
    layout.init_region(pm, 0)
    pm.write(layout.entry_addr(0, 2), encode_entry(logbuf.STORE, 0, 8, b"\x01", 9))
    entries = layout.scan(pm, 0)
    assert len(entries) == 1
    assert entries[0].slot == 2


# -- scan equivalence ---------------------------------------------------------


def scan_by_slot(layout, space, tid):
    """Oracle: the per-slot decode loop ``LogLayout.scan`` replaced."""
    out = []
    for slot in range(layout.capacity):
        entry = layout.read_entry(space, tid, slot)
        if entry.type != logbuf.FREE or entry.valid or entry.seq:
            out.append(entry)
    return out


def _slot_bytes(rng, kind):
    """64 bytes for one slot of a synthetic log image."""
    full = encode_entry(
        rng.choice([logbuf.STORE, logbuf.REDO, logbuf.TX_END, logbuf.ACQUIRE]),
        rng.randrange(4),
        rng.randrange(1 << 20),
        bytes(rng.randrange(256) for _ in range(rng.randrange(41))),
        rng.randrange(1, 1 << 32),
        commit=rng.random() < 0.3,
    )
    zero = bytearray(logbuf.ENTRY_SIZE)
    if kind == "entry":
        return full
    if kind == "torn":  # an 8-byte-aligned prefix over a stale entry or zeros
        keep = 8 * rng.randrange(logbuf.ENTRY_SIZE // 8)
        return full[:keep] + _slot_bytes(rng, rng.choice(("entry", "zero")))[keep:]
    if kind == "invalidated":  # a swept entry: valid byte cleared
        return full[:1] + b"\x00" + full[2:]
    if kind == "only-type":
        zero[0] = rng.randrange(1, 256)
    elif kind == "only-valid":
        zero[1] = rng.randrange(1, 256)
    elif kind == "only-seq":
        zero[56:] = rng.randrange(1, 1 << 64).to_bytes(8, "little")
    elif kind == "free-payload":  # FREE, invalid, seq 0: still unwritten
        zero[2:56] = bytes(rng.randrange(256) for _ in range(54))
    elif kind == "garbage":
        return bytes(rng.randrange(256) for _ in range(logbuf.ENTRY_SIZE))
    return bytes(zero)


SLOT_KINDS = (
    "entry", "torn", "invalidated", "only-type", "only-valid", "only-seq",
    "free-payload", "garbage", "zero",
)


@pytest.mark.parametrize("seed", range(6))
def test_scan_matches_per_slot_decode_on_random_images(seed):
    rng = random.Random(seed)
    layout = LogLayout(base=64 * rng.randrange(1, 4), capacity=48, n_threads=3)
    # The PM ends exactly where the last thread's region does.
    pm = PersistentMemory(layout.end)
    for tid in range(layout.n_threads):
        layout.init_region(pm, tid)
        for slot in range(layout.capacity):
            kind = rng.choice(SLOT_KINDS)
            pm.write(layout.entry_addr(tid, slot), _slot_bytes(rng, kind))
    # Pin the edge slots and every special case on the last thread.
    last = layout.n_threads - 1
    for slot, kind in enumerate(SLOT_KINDS):
        pm.write(layout.entry_addr(last, slot), _slot_bytes(rng, kind))
    pm.write(layout.entry_addr(last, layout.capacity - 1), _slot_bytes(rng, "only-seq"))
    for tid in range(layout.n_threads):
        assert layout.scan(pm, tid) == scan_by_slot(layout, pm, tid)
    slots = {e.slot for e in layout.scan(pm, last)}
    # The torn slot (1) may be blank; every other kind is decided.
    assert {0, 2, 3, 4, 5, 7, layout.capacity - 1} <= slots
    assert 6 not in slots and 8 not in slots  # free-payload and zero slots


@pytest.mark.parametrize("capacity", (64, 200))
def test_scan_skips_zero_blocks_exactly(capacity):
    """``scan`` skips 64-slot blocks whose bytes are all zero.  Entries at
    slot 0, at the last slot and on either side of each block edge are
    found, an all-zero region holds none, and a block made non-zero only
    by a slot with no type, valid flag or sequence is scanned and yields
    nothing.  With capacity 200 the last block is a partial one."""
    rng = random.Random(capacity)
    layout = LogLayout(base=64, capacity=capacity, n_threads=2)
    pm = PersistentMemory(layout.end)
    for tid in range(layout.n_threads):
        layout.init_region(pm, tid)
    assert layout.scan(pm, 0) == [] == scan_by_slot(layout, pm, 0)
    written = sorted({0, 63, 64, 127, 128, capacity - 1} & set(range(capacity)))
    for slot in written:
        pm.write(layout.entry_addr(0, slot), _slot_bytes(rng, "entry"))
    lone = 150 if capacity > 150 else 30  # alone in its block, or not
    pm.write(layout.entry_addr(0, lone), _slot_bytes(rng, "free-payload"))
    assert layout.scan(pm, 0) == scan_by_slot(layout, pm, 0)
    assert [entry.slot for entry in layout.scan(pm, 0)] == written
    assert layout.scan(pm, 1) == []


def test_scan_matches_per_slot_decode_on_crash_images():
    """Torn and untorn crash images of a real run, every thread's log."""
    harness = CrashHarness("queue", "non-atomic")
    layout = harness.run.layout
    schedules = sample_schedules(4, 5) + sample_schedules(4, 9, torn=True)
    written = 0
    for schedule in schedules:
        plan = schedule.concretise(harness.horizon, harness.total_ops)
        crash = Machine("non-atomic").run(harness.run.program, fault_plan=plan).crash
        image, _info = build_crash_image(harness.run, crash, plan, harness.dag)
        for tid in range(layout.n_threads):
            entries = layout.scan(image, tid)
            assert entries == scan_by_slot(layout, image, tid)
            written += len(entries)
    assert written > 0
