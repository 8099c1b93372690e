"""Undo-logging runtime mapping language persistency models onto ISA
primitives (Section V, Figures 5 and 6).

:class:`PmRuntime` is what the workloads program against.  Every
persistent store inside a failure-atomic region is instrumented as::

    append undo-log entry ; CLWB(entry)
    <pair barrier>                      # log persists before update
    store ; CLWB(update)
    <pair separator>                    # pairs are independent (NewStrand)

and region commit follows Figure 6::

    <region drain>                      # every update of the region durable
    set commit marker on terminating entry ; CLWB
    <commit barrier>                    # marker persists before invalidation
    invalidate region entries ; CLWBs
    <commit barrier>
    store + CLWB head pointer

Which primitive implements each ordering point is decided by the
:class:`~repro.lang.dialect.IsaDialect`; where regions begin and end is
decided by the :class:`PersistencyModel` (TXN / ATLAS / SFR).

The runtime simultaneously (a) updates the functional PM image, so data
structures really live in simulated PM, and (b) emits the micro-op trace
consumed by the timing simulator and the formal persistency model.
"""

from __future__ import annotations

import struct

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.ops import ColumnCursor, ColumnTrace, Program
from repro.lang import logbuf
from repro.lang.logbuf import LogError, LogLayout
from repro.pmem.space import PersistentMemory

#: label every runtime stamps on its commit-intent marker store.  The
#: static analyzer (:mod:`repro.analysis`) keys on it: a commit marker is
#: the durability anchor every earlier persist of the thread must have an
#: ordering path to (Figure 6's crash-consistency obligation).
COMMIT_MARKER_LABEL = "commit-marker"


@dataclass
class _Region:
    """A closed failure-atomic region awaiting commit."""

    region_id: int
    slots: List[int]
    terminator_slot: int


@dataclass
class _ThreadState:
    cursor: ColumnCursor
    tail: int = 0
    live_entries: int = 0
    region_open: bool = False
    region_id: int = -1
    region_slots: List[int] = field(default_factory=list)
    pending: List[_Region] = field(default_factory=list)
    lock_depth: int = 0
    committed_regions: List[int] = field(default_factory=list)
    #: deferred in-place updates of an open redo-logged region.
    write_set: List[Tuple[int, bytes]] = field(default_factory=list)


class PersistencyModel(ABC):
    """Where failure-atomic regions begin/end for one language model."""

    name = "abstract"
    #: enclose regions in JoinStrand / dfence / sfence at begin and end.
    enclose_regions = True
    #: stall at region end until the commit chain (marker, invalidations,
    #: head pointer) is durable.  The paper's runtimes only drain *updates*
    #: before the marker and let the chain drain asynchronously; the
    #: conservative variant is used by the crash-consistency tests, whose
    #: sequence-number recovery needs commits durable at lock hand-off.
    durable_commit = False
    #: "undo" records old values and rolls back at recovery; "redo"
    #: records new values, defers in-place updates to commit, and replays
    #: committed logs at recovery (the paper's future-work sketch, VII).
    logging_style = "undo"

    @abstractmethod
    def on_lock(self, rt: "PmRuntime", tid: int, lock_id: int) -> None: ...

    @abstractmethod
    def on_unlock(self, rt: "PmRuntime", tid: int, lock_id: int) -> None: ...

    def on_txn_begin(self, rt: "PmRuntime", tid: int) -> None:
        pass

    def on_txn_end(self, rt: "PmRuntime", tid: int) -> None:
        pass

    def on_finish(self, rt: "PmRuntime", tid: int) -> None:
        """End of the thread's workload: everything must commit."""
        rt._commit_pending(tid)


class PmRuntime:
    """Programmer-facing persistent-memory runtime."""

    def __init__(
        self,
        space: PersistentMemory,
        layout: LogLayout,
        dialect,
        model: PersistencyModel,
        n_threads: int,
    ) -> None:
        self.space = space
        self.layout = layout
        self.dialect = dialect
        self.model = model
        self.program = Program(n_threads, trace=ColumnTrace)
        self._threads = [
            _ThreadState(cursor=ColumnCursor(self.program, tid)) for tid in range(n_threads)
        ]
        self._next_seq = 1
        self._next_region = 0
        for tid in range(n_threads):
            layout.init_region(space, tid)

    # ------------------------------------------------------------------
    # workload-facing API
    # ------------------------------------------------------------------

    def lock(self, tid: int, lock_id: int) -> None:
        state = self._threads[tid]
        state.cursor.lock(lock_id)
        state.lock_depth += 1
        self.model.on_lock(self, tid, lock_id)

    def unlock(self, tid: int, lock_id: int) -> None:
        state = self._threads[tid]
        if state.lock_depth <= 0:
            raise LogError(f"thread {tid} unlocking without a held lock")
        self.model.on_unlock(self, tid, lock_id)
        state.lock_depth -= 1
        state.cursor.unlock(lock_id)

    def txn_begin(self, tid: int) -> None:
        self.model.on_txn_begin(self, tid)

    def txn_end(self, tid: int) -> None:
        self.model.on_txn_end(self, tid)

    def store(self, tid: int, addr: int, data: bytes, label: str = "") -> None:
        """Failure-atomically update PM.

        Undo logging (Fig. 5): log the old value, order it before the
        in-place update, separate pairs onto fresh strands.  Redo logging
        (Section VII sketch): log the new value now, defer the in-place
        update to commit time — logs of one transaction share a strand
        and need no intra-transaction ordering.
        """
        state = self._threads[tid]
        if not state.region_open:
            raise LogError(
                f"thread {tid} stored to PM outside a failure-atomic region"
            )
        if self.model.logging_style == "redo":
            self._append_entry(tid, logbuf.REDO, addr=addr, value=data)
            self.space.write(addr, data)  # visible to the thread's reads
            state.write_set.append((addr, data))
            return
        old = self.space.read(addr, len(data))
        self._append_entry(tid, logbuf.STORE, addr=addr, value=old)
        self.dialect.pair_barrier(state.cursor)
        self._plain_store(tid, addr, data, label=label or "update")
        self.dialect.pair_separator(state.cursor)

    def store_u64(self, tid: int, addr: int, value: int, label: str = "") -> None:
        self.store(tid, addr, struct.pack("<Q", value & (2**64 - 1)), label=label)

    def load(self, tid: int, addr: int, size: int) -> bytes:
        self._threads[tid].cursor.load(addr, size)
        return self.space.read(addr, size)

    def load_u64(self, tid: int, addr: int) -> int:
        self._threads[tid].cursor.load(addr, 8)
        return self.space.read_u64(addr)

    def compute(self, tid: int, cycles: int) -> None:
        self._threads[tid].cursor.compute(cycles)

    def vload(self, tid: int, addr: int, size: int = 8) -> None:
        self._threads[tid].cursor.vload(addr, size)

    def vstore(self, tid: int, addr: int, size: int = 8) -> None:
        self._threads[tid].cursor.vstore(addr, size)

    def finish(self, tid: int) -> None:
        """Flush the thread's pending commits at workload end."""
        self.model.on_finish(self, tid)

    # ------------------------------------------------------------------
    # introspection used by tests and recovery checks
    # ------------------------------------------------------------------

    def committed_regions(self, tid: int) -> List[int]:
        return list(self._threads[tid].committed_regions)

    def region_of(self, tid: int) -> int:
        return self._threads[tid].region_id

    @property
    def seq_counter(self) -> int:
        return self._next_seq

    # ------------------------------------------------------------------
    # region machinery (driven by the PersistencyModel)
    # ------------------------------------------------------------------

    def _open_region(self, tid: int, entry_type: int) -> None:
        state = self._threads[tid]
        if state.region_open:
            raise LogError(f"thread {tid} opened a region inside a region")
        state.region_open = True
        state.region_id = self._next_region
        self._next_region += 1
        state.region_slots = []
        state.cursor.region = state.region_id
        if self.model.enclose_regions:
            self.dialect.region_begin(state.cursor)
        self._append_entry(tid, entry_type)

    def _close_region(self, tid: int, entry_type: int, commit_now: bool) -> None:
        state = self._threads[tid]
        if not state.region_open:
            raise LogError(f"thread {tid} closed a region that is not open")
        terminator = self._append_entry(tid, entry_type)
        state.pending.append(
            _Region(state.region_id, list(state.region_slots), terminator)
        )
        state.region_open = False
        state.region_slots = []
        if commit_now:
            self._commit_pending(tid)
        if self.model.enclose_regions and self.model.durable_commit:
            self.dialect.region_end(state.cursor)
        state.cursor.region = -1

    def _commit_pending(self, tid: int) -> None:
        """Commit every closed region of the thread (Figure 6 protocol)."""
        state = self._threads[tid]
        if not state.pending:
            return
        cur = state.cursor
        terminator = state.pending[-1].terminator_slot
        # 1. All in-place updates of the pending regions become durable.
        self.dialect.region_drain(cur)
        # 2. Set the commit-intent marker on the terminating log entry.
        # The marker is tagged (label + region) so the static analyzer can
        # anchor check 1 on it even for deferred commits, where the
        # cursor's region id has already been reset.
        marker_addr = self.layout.entry_addr(tid, terminator) + 2
        self._plain_store(
            tid, marker_addr, b"\x01", label=COMMIT_MARKER_LABEL,
            region=state.pending[-1].region_id,
        )
        # 3. Marker persists before the entries are invalidated and before
        # the head pointer advances.
        self.dialect.commit_barrier(cur)
        # 4. Advance the head pointer and invalidate all entries of the
        # committed regions.  These persists need no mutual order, so they
        # share one sub-epoch on the marker's strand: each is ordered
        # after the marker yet they all drain concurrently.  (Rotating
        # them onto fresh strands would be faster still but unsound:
        # NewStrand clears the marker ordering, so a crash could expose an
        # invalidated entry with no commit marker.)
        head = (terminator + 1) % self.layout.capacity
        retired = self.layout.read_entry(self.space, tid, terminator).seq
        self._plain_store(
            tid,
            self.layout.header_addr(tid),
            self.layout.encode_head(head, retired),
            label="head",
        )
        for region in state.pending:
            for slot in region.slots:
                valid_addr = self.layout.entry_addr(tid, slot) + 1
                self._plain_store(tid, valid_addr, b"\x00", label="invalidate")
                state.live_entries -= 1
        state.committed_regions.extend(r.region_id for r in state.pending)
        state.pending = []

    def _append_entry(
        self, tid: int, entry_type: int, addr: int = 0, value: bytes = b"",
        commit: bool = False,
    ) -> int:
        """Allocate, write, and flush one undo-log entry; returns its slot."""
        state = self._threads[tid]
        if state.live_entries >= self.layout.capacity:
            raise LogError(
                f"thread {tid} exhausted its {self.layout.capacity}-entry log; "
                "size the log for the workload (the paper allocates more "
                "entries dynamically)"
            )
        slot = state.tail
        seq = self._next_seq
        self._next_seq += 1
        raw = logbuf.encode_entry(entry_type, tid, addr, value, seq, commit=commit)
        entry_addr = self.layout.entry_addr(tid, slot)
        self._plain_store(tid, entry_addr, raw, label=f"log:{logbuf.TYPE_NAMES[entry_type]}")
        state.tail = (slot + 1) % self.layout.capacity
        state.live_entries += 1
        if state.region_open:
            state.region_slots.append(slot)
        return slot

    def _plain_store(
        self, tid: int, addr: int, data: bytes, label: str = "",
        region: Optional[int] = None,
    ) -> None:
        """Unlogged PM store + CLWB of every touched line; ``region``
        overrides the cursor's region on the store (see
        :meth:`ColumnCursor.store_and_flush`)."""
        self.space.write(addr, data)
        self._threads[tid].cursor.store_and_flush(addr, data, label, region)


# ----------------------------------------------------------------------
# Accessors: one data-structure implementation, two execution modes
# ----------------------------------------------------------------------


class Accessor(ABC):
    """Uniform PM access surface for the persistent data structures."""

    @abstractmethod
    def read(self, addr: int, size: int) -> bytes: ...

    @abstractmethod
    def write(self, addr: int, data: bytes) -> None: ...

    def read_u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<Q", value & (2**64 - 1)))


class DirectAccessor(Accessor):
    """Untraced access — used during setup and by invariant checkers."""

    def __init__(self, space: PersistentMemory) -> None:
        self.space = space

    def read(self, addr: int, size: int) -> bytes:
        return self.space.read(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self.space.write(addr, data)


class RuntimeAccessor(Accessor):
    """Traced, undo-logged access bound to one thread of the runtime."""

    def __init__(self, rt: PmRuntime, tid: int) -> None:
        self.rt = rt
        self.tid = tid

    def read(self, addr: int, size: int) -> bytes:
        return self.rt.load(self.tid, addr, size)

    def write(self, addr: int, data: bytes) -> None:
        self.rt.store(self.tid, addr, data)
