"""Redo logging under strand persistency (Section VII, future-work sketch).

The paper outlines how redo logging maps onto strand persistency:

    "Under strand persistency, each failure-atomic transaction may be
    performed on a separate strand.  Within each strand, transactions can
    create redo logs, issue a persist barrier and then perform in-place
    updates.  A group commit operation can merge strands and commit prior
    transactions."

Transactions append redo entries (new values) on their own strand; the
in-place updates are deferred entirely.  Every ``group_commit``
transactions, the group commit merges the strands and commits them::

    JoinStrand                        # every redo log durable
    commit marker on last TX_END ; CLWB
    <pair barrier>                    # marker persists before updates
    all deferred in-place updates ; CLWBs
    JoinStrand                        # updates durable
    invalidate entries ; advance head

The **group commit is the durability point**: transactions that crash
before their group commit vanish atomically (their logs are discarded by
recovery), and once the marker persists, recovery replays the group's
redo entries — in-place updates can never appear in a crash image without
the marker, because the marker precedes them in persist order.

With ``group_commit > 1`` the model is single-thread-safe only: another
thread could otherwise observe data whose durability is still pending
(the paper's sketch leaves the cross-thread protocol open).  The crash
tests therefore use ``group_commit=1`` for multi-threaded runs and larger
batches single-threaded.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lang import logbuf
from repro.lang.runtime import COMMIT_MARKER_LABEL, PersistencyModel, PmRuntime, _Region


class RedoTxnModel(PersistencyModel):
    """Failure-atomic transactions over redo logs with group commit."""

    name = "redo-txn"
    enclose_regions = False  # region edges are managed explicitly below
    logging_style = "redo"

    def __init__(self, group_commit: int = 1, durable_commit: bool = False) -> None:
        if group_commit <= 0:
            raise ValueError("group_commit must be positive")
        self.group_commit = group_commit
        self.durable_commit = durable_commit
        #: deferred write sets of pending (closed, uncommitted) txns.
        self._pending_writes: Dict[int, List[List[Tuple[int, bytes]]]] = {}

    def on_lock(self, rt: PmRuntime, tid: int, lock_id: int) -> None:
        pass

    def on_unlock(self, rt: PmRuntime, tid: int, lock_id: int) -> None:
        pass

    def on_txn_begin(self, rt: PmRuntime, tid: int) -> None:
        if self.group_commit > 1 and rt.program.n_threads > 1:
            raise logbuf.LogError(
                "redo group commit defers in-place updates past lock "
                "hand-off, so batches larger than 1 are single-thread "
                "only (the paper's sketch leaves the cross-thread "
                "protocol open)"
            )
        state = rt._threads[tid]
        # Each transaction runs on its own strand (NewStrand under the
        # strand dialect; a fence that closes the epoch elsewhere).
        rt.dialect.pair_separator(state.cursor)
        rt._open_region(tid, logbuf.TX_BEGIN)

    def on_txn_end(self, rt: PmRuntime, tid: int) -> None:
        state = rt._threads[tid]
        if not state.region_open:
            raise logbuf.LogError(f"thread {tid} committed with no open transaction")
        terminator = rt._append_entry(tid, logbuf.TX_END)
        state.pending.append(
            _Region(state.region_id, list(state.region_slots), terminator)
        )
        self._pending_writes.setdefault(tid, []).append(list(state.write_set))
        state.write_set = []
        state.region_open = False
        state.region_slots = []
        state.cursor.region = -1
        if len(state.pending) >= self.group_commit:
            self._group_commit(rt, tid)
        if self.durable_commit:
            rt.dialect.region_end(state.cursor)

    def on_finish(self, rt: PmRuntime, tid: int) -> None:
        self._group_commit(rt, tid)

    def _group_commit(self, rt: PmRuntime, tid: int) -> None:
        """Merge pending transaction strands and commit them (durability
        point)."""
        state = rt._threads[tid]
        if not state.pending:
            return
        cur = state.cursor
        # 1. Every redo log of the group is durable.
        rt.dialect.region_drain(cur)
        # 2. Commit marker on the group's last TX_END entry.
        terminator = state.pending[-1].terminator_slot
        marker_addr = rt.layout.entry_addr(tid, terminator) + 2
        rt._plain_store(
            tid, marker_addr, b"\x01", label=COMMIT_MARKER_LABEL,
            region=state.pending[-1].region_id,
        )
        # 3. Marker persists before any in-place update.
        rt.dialect.commit_barrier(cur)
        # 4. Apply the group's deferred updates (concurrent sub-epoch).
        for write_set in self._pending_writes.get(tid, []):
            for addr, data in write_set:
                rt._plain_store(tid, addr, data, label="redo-update")
        self._pending_writes[tid] = []
        # 5. Updates durable before the logs are retired.
        rt.dialect.region_drain(cur)
        # 6. Publish the retired-sequence watermark (with the new head),
        # and only then invalidate entries: replaying a *subset* of a
        # group's entries over newer in-place data would corrupt it, so
        # recovery must be able to tell "retired" from "uncommitted" even
        # when the per-entry invalidations persisted partially.
        head = (terminator + 1) % rt.layout.capacity
        retired = rt.layout.read_entry(rt.space, tid, terminator).seq
        rt._plain_store(
            tid,
            rt.layout.header_addr(tid),
            rt.layout.encode_head(head, retired),
            label="head",
        )
        rt.dialect.commit_barrier(cur)
        for region in state.pending:
            for slot in region.slots:
                valid_addr = rt.layout.entry_addr(tid, slot) + 1
                rt._plain_store(tid, valid_addr, b"\x00", label="invalidate")
                state.live_entries -= 1
        state.committed_regions.extend(r.region_id for r in state.pending)
        state.pending = []
