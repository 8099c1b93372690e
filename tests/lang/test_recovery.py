"""Recovery tests: the Figure 6 walkthrough and edge cases."""

from repro.lang import logbuf
from repro.lang.dialect import StrandDialect
from repro.lang.logbuf import LogLayout, encode_entry
from repro.lang.recovery import recover
from repro.lang.runtime import PmRuntime
from repro.lang.txn import TxnModel
from repro.pmem.space import PersistentMemory


def fresh(capacity=16):
    layout = LogLayout(base=0, capacity=capacity, n_threads=1)
    pm = PersistentMemory(layout.end + 1024)
    layout.init_region(pm, 0)
    return pm, layout


def put_entry(pm, layout, slot, *, type_=logbuf.STORE, addr=0, value=b"",
              seq=1, commit=False, valid=True):
    raw = bytearray(encode_entry(type_, 0, addr, value, seq, commit=commit))
    if not valid:
        raw[1] = 0
    pm.write(layout.entry_addr(0, slot), bytes(raw))


def test_rollback_of_uncommitted_store():
    pm, layout = fresh()
    data_addr = layout.end
    pm.write(data_addr, b"\x02" * 8)  # the (partial) new value
    put_entry(pm, layout, 0, addr=data_addr, value=b"\x01" * 8, seq=5)
    report = recover(pm, layout)
    assert pm.read(data_addr, 8) == b"\x01" * 8
    assert report.n_rolled_back == 1


def test_reverse_order_rollback():
    pm, layout = fresh()
    addr = layout.end
    pm.write(addr, b"\x03")  # latest value
    put_entry(pm, layout, 0, addr=addr, value=b"\x01", seq=1)
    put_entry(pm, layout, 1, addr=addr, value=b"\x02", seq=2)
    recover(pm, layout)
    # seq 2 rolls back first (-> 0x02), then seq 1 (-> 0x01).
    assert pm.read(addr, 1) == b"\x01"


def test_committed_entries_not_rolled_back():
    pm, layout = fresh()
    addr = layout.end
    pm.write(addr, b"\x02")
    put_entry(pm, layout, 0, addr=addr, value=b"\x01", seq=1)
    put_entry(pm, layout, 1, type_=logbuf.TX_END, seq=2, commit=True)
    report = recover(pm, layout)
    assert pm.read(addr, 1) == b"\x02"  # the region was committed
    assert report.n_rolled_back == 0
    assert report.committed_upto[0] == 2
    assert len(report.skipped_committed) == 2


def test_interrupted_commit_repair_fig6b():
    """Crash between the marker flush and the invalidations (Fig. 6b):
    entries at or below the marker sequence survive valid but must not be
    rolled back."""
    pm, layout = fresh()
    addr = layout.end
    pm.write(addr, b"\x02")
    put_entry(pm, layout, 0, addr=addr, value=b"\x01", seq=1, valid=False)  # invalidated
    put_entry(pm, layout, 1, addr=addr + 8, value=b"\x09", seq=2)  # still valid
    put_entry(pm, layout, 2, type_=logbuf.TX_END, seq=3, commit=True)
    report = recover(pm, layout)
    assert report.n_rolled_back == 0
    assert pm.read(addr + 8, 1) == b"\x00"  # untouched


def test_mixed_committed_and_uncommitted():
    pm, layout = fresh()
    a, b = layout.end, layout.end + 8
    pm.write(a, b"\x02")
    pm.write(b, b"\x04")
    put_entry(pm, layout, 0, addr=a, value=b"\x01", seq=1)
    put_entry(pm, layout, 1, type_=logbuf.TX_END, seq=2, commit=True)
    put_entry(pm, layout, 2, addr=b, value=b"\x03", seq=3)  # next region, uncommitted
    recover(pm, layout)
    assert pm.read(a, 1) == b"\x02"  # committed region preserved
    assert pm.read(b, 1) == b"\x03"  # uncommitted region rolled back


def test_sync_entries_never_written_back():
    pm, layout = fresh()
    put_entry(pm, layout, 0, type_=logbuf.ACQUIRE, addr=123, seq=1)
    report = recover(pm, layout)
    assert report.n_rolled_back == 0


def test_recovery_resets_log():
    pm, layout = fresh()
    put_entry(pm, layout, 0, addr=layout.end, value=b"\x01", seq=1)
    recover(pm, layout)
    assert all(not e.valid for e in layout.scan(pm, 0))
    assert layout.read_head(pm, 0) == 0


def test_recovery_idempotent_on_clean_image():
    pm, layout = fresh()
    before = pm.snapshot()
    report = recover(pm, layout)
    assert report.n_rolled_back == 0
    assert pm.snapshot() == before


def test_end_to_end_runtime_then_recover():
    layout = LogLayout(base=0, capacity=64, n_threads=1)
    pm = PersistentMemory(layout.end + 4096)
    rt = PmRuntime(pm, layout, StrandDialect(), TxnModel(), 1)
    addr = layout.end
    rt.lock(0, 1)
    rt.txn_begin(0)
    rt.store(0, addr, b"\x55" * 8)
    rt.txn_end(0)
    rt.unlock(0, 1)
    # Simulate a crash where everything persisted: recovery is a no-op on
    # the data.
    report = recover(pm, layout)
    assert report.n_rolled_back == 0
    assert pm.read(addr, 8) == b"\x55" * 8
