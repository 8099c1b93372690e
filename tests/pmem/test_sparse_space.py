"""The sparse page image against a dense ``bytearray`` oracle.

:class:`DensePm` is the flat image ``PersistentMemory`` used to be: one
``bytearray`` of the whole PM plus a ``bytes`` baseline.  It is kept here
only as the oracle — every random access sequence must leave the sparse
image byte-for-byte equal to it, raise :class:`PmError` exactly where it
does, and build the same crash images and snapshots.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ops import Op, OpKind
from repro.harness.experiment import default_config
from repro.lang.logbuf import LogLayout
from repro.pmem.space import PAGE_SIZE, PersistentMemory, PmError
from repro.sim.machine import Machine
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_for_design
from tests.sim.test_op_stream_pins import program_digest

#: three whole pages and a partial fourth: the last byte of PM is not
#: the last byte of a page.
SIZE = 3 * PAGE_SIZE + 100


class DensePm:
    """The dense reference image (the pre-sparse implementation)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise PmError(f"PM size must be positive, got {size}")
        self.size = size
        self.bytes = bytearray(size)
        self.baseline = bytes(size)

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise PmError(f"access [{addr:#x}, {addr + size:#x}) outside PM")

    def read(self, addr, size):
        self._check(addr, size)
        return bytes(self.bytes[addr : addr + size])

    def write(self, addr, data):
        self._check(addr, len(data))
        self.bytes[addr : addr + len(data)] = data

    def read_u64(self, addr):
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr, value):
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))

    def mark_clean(self):
        self.baseline = bytes(self.bytes)

    def crash_image(self, persists):
        image = DensePm(self.size)
        image.bytes = bytearray(self.baseline)
        for op in sorted(persists, key=lambda o: o.gseq):
            if op.kind is not OpKind.STORE:
                raise PmError(f"crash image can only apply STOREs, got {op!r}")
            image.write(op.addr, op.data)
        image.baseline = bytes(image.bytes)
        return image

    def snapshot(self):
        return bytes(self.bytes)

    def restore(self, snapshot):
        self.bytes = bytearray(snapshot)


def _contents(pm: PersistentMemory) -> bytes:
    return pm.read(0, pm.size)


def _baseline(pm: PersistentMemory) -> bytes:
    return _contents(pm.baseline_image())


# -- strategies ------------------------------------------------------------

#: addresses that matter: page boundaries, the end of PM and either side
#: of it, plus anywhere at all.
_EDGES = [0, SIZE - 8, SIZE - 4, SIZE - 1, SIZE] + [
    k * PAGE_SIZE for k in range(1, 4)
]
addrs = st.one_of(
    st.builds(lambda e, d: e + d, st.sampled_from(_EDGES), st.integers(-12, 12)),
    st.integers(0, SIZE),
    st.integers(-16, -1),
)
payloads = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.binary(min_size=PAGE_SIZE - 64, max_size=PAGE_SIZE + 64),
    st.integers(0, 2 * PAGE_SIZE + 16).map(bytes),  # zeros
)
accesses = st.one_of(
    st.tuples(st.just("write"), addrs, payloads),
    st.tuples(st.just("read"), addrs, st.integers(-2, PAGE_SIZE + 64)),
    st.tuples(st.just("write_u64"), addrs, st.integers(0, 2**64 - 1)),
    st.tuples(st.just("read_u64"), addrs, st.none()),
    st.tuples(st.just("mark_clean"), st.none(), st.none()),
    st.tuples(st.just("snapshot"), st.none(), st.none()),
    st.tuples(st.just("restore"), st.integers(0, 7), st.none()),
)


def _apply(pm, name, a, b):
    """Run one access; returns its result or the PmError type."""
    method = getattr(pm, name)
    args = [x for x in (a, b) if x is not None]
    try:
        return method(*args)
    except PmError:
        return PmError


# -- the property ---------------------------------------------------------


@given(st.lists(accesses, max_size=40))
@settings(max_examples=300, deadline=None)
def test_sparse_image_matches_the_dense_oracle(steps):
    sparse, dense = PersistentMemory(SIZE), DensePm(SIZE)
    snaps = []  # (sparse snapshot, dense snapshot)
    for name, a, b in steps:
        if name == "snapshot":
            snaps.append((sparse.snapshot(), dense.snapshot()))
            continue
        if name == "restore":
            if snaps:
                s_snap, d_snap = snaps[a % len(snaps)]
                sparse.restore(s_snap)
                dense.restore(d_snap)
            continue
        assert _apply(sparse, name, a, b) == _apply(dense, name, a, b), (name, a, b)
    assert _contents(sparse) == bytes(dense.bytes)
    assert _baseline(sparse) == dense.baseline
    # Snapshots compare like the contents they hold.
    for s_snap, d_snap in snaps:
        assert (sparse.snapshot() == s_snap) == (bytes(dense.bytes) == d_snap)


stores = st.lists(
    st.tuples(st.integers(0, SIZE - 1), st.binary(min_size=1, max_size=96)),
    max_size=24,
)


@given(st.lists(accesses, max_size=12), stores, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_crash_image_applies_persists_over_the_baseline_in_gseq_order(
    setup, writes, rng
):
    sparse, dense = PersistentMemory(SIZE), DensePm(SIZE)
    for name, a, b in setup:
        if name not in ("snapshot", "restore"):
            _apply(sparse, name, a, b)
            _apply(dense, name, a, b)
    sparse.mark_clean()
    dense.mark_clean()
    sparse.write(0, b"\xee" * 16)  # live contents never reach the image
    persists = [
        Op(OpKind.STORE, addr=addr, size=len(data), data=data[: SIZE - addr], gseq=g)
        for g, (addr, data) in enumerate(writes)
    ]
    rng.shuffle(persists)
    s_img, d_img = sparse.crash_image(persists), dense.crash_image(persists)
    assert _contents(s_img) == bytes(d_img.bytes)
    assert _baseline(s_img) == d_img.baseline
    assert _baseline(sparse) == dense.baseline


# -- the sparse contract ----------------------------------------------------


@pytest.mark.parametrize(
    "addr,size",
    [(0, 8), (PAGE_SIZE - 3, 8), (0, 3 * PAGE_SIZE), (SIZE - 1, 1), (5, 0)],
)
def test_zero_writes_into_untouched_pages_create_no_page(addr, size):
    pm = PersistentMemory(SIZE)
    pm.write(addr, bytes(size))
    pm.write(addr, bytearray(size))
    assert pm._pages == {}
    assert pm.read(addr, size) == bytes(size)


def test_a_page_straddling_write_creates_only_the_nonzero_page():
    pm = PersistentMemory(SIZE)
    pm.write(PAGE_SIZE - 4, bytes(4) + b"\x01\x02\x03\x04")
    assert sorted(pm._pages) == [1]
    assert pm.read(PAGE_SIZE - 4, 8) == bytes(4) + b"\x01\x02\x03\x04"


def test_log_regions_fill_in_only_their_header_pages():
    layout = LogLayout(base=64, capacity=4096, n_threads=8)
    pm = PersistentMemory(1 << 23)
    pm.write(layout.entry_addr(3, 7), b"\x01" * 64)  # a stale entry
    for tid in range(layout.n_threads):
        layout.init_region(pm, tid)
    headers = {layout.header_addr(tid) // PAGE_SIZE for tid in range(layout.n_threads)}
    assert set(pm._pages) == headers | {layout.entry_addr(3, 7) // PAGE_SIZE}
    assert layout.scan(pm, 3) == []
    assert layout.read_head(pm, 5) == 0


def test_a_page_written_then_zeroed_snapshots_like_an_untouched_one():
    touched, fresh = PersistentMemory(SIZE), PersistentMemory(SIZE)
    touched.write(2 * PAGE_SIZE + 7, b"\x5a" * 9)
    touched.write(2 * PAGE_SIZE + 7, bytes(9))
    touched.mark_clean()
    assert touched.snapshot() == fresh.snapshot() == {}
    assert touched._baseline == {}


def test_snapshot_is_a_copy():
    pm = PersistentMemory(SIZE)
    pm.write(10, b"abc")
    snap = pm.snapshot()
    pm.write(10, b"xyz")
    pm.restore(snap)
    pm.write(11, b"Q")
    assert pm.read(10, 3) == b"aQc"
    pm.restore(snap)
    assert pm.read(10, 3) == b"abc"


def test_restore_rejects_a_snapshot_of_a_larger_pm():
    big = PersistentMemory(8 * PAGE_SIZE)
    big.write(7 * PAGE_SIZE, b"\x01")
    with pytest.raises(PmError):
        PersistentMemory(SIZE).restore(big.snapshot())


# -- out-of-range accesses (the cases tests/pmem/test_space.py covers) -------


def _out_of_range_cases():
    yield 64, "read", (60, 8)
    yield 64, "write", (-1, b"x")
    for addr in (-8, -1, 57, 64, 1 << 20):
        yield 64, "read_u64", (addr,)
    yield 64, "read", (0, -1)
    yield SIZE, "write_u64", (SIZE - 7, 1)
    yield SIZE, "read", (SIZE - PAGE_SIZE, PAGE_SIZE + 1)


@pytest.mark.parametrize("size,name,args", list(_out_of_range_cases()))
def test_out_of_range_raises_like_the_oracle(size, name, args):
    for pm in (PersistentMemory(size), DensePm(size)):
        with pytest.raises(PmError):
            getattr(pm, name)(*args)


def test_bad_sizes_and_non_store_persists_raise():
    for cls in (PersistentMemory, DensePm):
        with pytest.raises(PmError):
            cls(0)
        with pytest.raises(PmError):
            cls(128).crash_image([Op(OpKind.CLWB, addr=0, size=64)])


# -- PM size costs no memory -------------------------------------------------


def test_a_terabyte_pm_constructs_and_reads_zeros():
    pm = PersistentMemory(1 << 40)
    assert pm.read_u64((1 << 40) - 8) == 0
    assert pm.read((1 << 39) - 5, 10) == bytes(10)
    pm.write((1 << 39) - 2, b"\x01\x02\x03\x04")
    pm.mark_clean()
    assert len(pm.snapshot()) == 2
    image = pm.crash_image([])
    assert image.read((1 << 39) - 2, 4) == b"\x01\x02\x03\x04"


def test_pm_size_does_not_change_a_generated_run():
    cfg = default_config(ops_per_thread=4)
    huge = replace(cfg, pm_size=1 << 36)
    small_run = generate_for_design(WORKLOADS["queue"], cfg, "strandweaver")
    huge_run = generate_for_design(WORKLOADS["queue"], huge, "strandweaver")
    assert program_digest(huge_run.program) == program_digest(small_run.program)
    assert huge_run.space.snapshot() == small_run.space.snapshot()
    small_stats = Machine("strandweaver").run(small_run.program)
    huge_stats = Machine("strandweaver").run(huge_run.program)
    assert huge_stats == small_stats
