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
:class:`~repro.lang.dialect.IsaDialect`'s fence table; where regions
begin and end is decided by the :class:`PersistencyModel` (TXN / ATLAS /
SFR).

The runtime simultaneously (a) updates the functional PM image, so data
structures really live in simulated PM, and (b) emits the micro-op trace
consumed by the timing simulator and the formal persistency model.  Each
fixed op pattern is one cursor call (:class:`~repro.core.ops.ColumnCursor`):
a logged store, a log entry and its flush, a commit's invalidation run,
a load.
"""

from __future__ import annotations

import struct

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.ops import ColumnCursor, Program
from repro.lang import logbuf
from repro.lang.dialect import COMMIT, DRAIN, PAIR, REGION_END, SEPARATOR
from repro.lang.logbuf import ENTRY_LABELS, ENTRY_SIZE, HEADER_SIZE, LogError, LogLayout
from repro.pmem.space import PersistentMemory

_U64 = struct.Struct("<Q")

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
    #: address of the thread's log slot 0.
    entry_base: int = 0
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
        self.program = Program(n_threads)
        #: ordering point -> the fence emitted there (one table lookup).
        self.fences = dialect.fence_ops()
        self._pair = self.fences[PAIR]
        self._sep = self.fences[SEPARATOR]
        self._threads = [
            _ThreadState(
                cursor=ColumnCursor(self.program, tid),
                entry_base=layout.region_base(tid) + HEADER_SIZE,
            )
            for tid in range(n_threads)
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
        space = self.space
        if self.model.logging_style == "redo":
            self._append_entry(tid, logbuf.REDO, addr=addr, value=data)
            space.write(addr, data)  # visible to the thread's reads
            state.write_set.append((addr, data))
            return
        old = space.read(addr, len(data))
        entry_addr, entry = self._claim_entry(state, tid, logbuf.STORE, addr, old)
        space.write(entry_addr, entry)
        space.write(addr, data)
        state.cursor.logged_store(
            entry_addr, entry, ENTRY_LABELS[logbuf.STORE], self._pair,
            addr, data, label or "update", self._sep,
        )

    def load(self, tid: int, addr: int, size: int) -> bytes:
        data = self.space.read(addr, size)
        self._threads[tid].cursor.load(addr, size)
        return data

    def compute(self, tid: int, cycles: int) -> None:
        self._threads[tid].cursor.compute(cycles)

    def finish(self, tid: int) -> None:
        """Flush the thread's pending commits at workload end."""
        self.model.on_finish(self, tid)

    # ------------------------------------------------------------------
    # introspection used by tests and recovery checks
    # ------------------------------------------------------------------

    def committed_regions(self, tid: int) -> List[int]:
        return list(self._threads[tid].committed_regions)

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
            state.cursor.fence(self.fences[REGION_END])
        state.cursor.region = -1

    def _commit_pending(self, tid: int) -> None:
        """Commit every closed region of the thread (Figure 6 protocol)."""
        state = self._threads[tid]
        if not state.pending:
            return
        cur = state.cursor
        terminator = state.pending[-1].terminator_slot
        # 1. All in-place updates of the pending regions become durable.
        cur.fence(self.fences[DRAIN])
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
        cur.fence(self.fences[COMMIT])
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
        self._retire_pending(state)

    def _retire_pending(self, state: _ThreadState) -> None:
        """Invalidate every log entry of the thread's pending regions, as
        one run of valid-byte stores, and mark those regions committed."""
        valid_addrs = [
            state.entry_base + slot * ENTRY_SIZE + 1
            for region in state.pending
            for slot in region.slots
        ]
        write = self.space.write
        for addr in valid_addrs:
            write(addr, b"\x00")
        state.cursor.store_run(valid_addrs, b"\x00", "invalidate")
        state.live_entries -= len(valid_addrs)
        state.committed_regions.extend(r.region_id for r in state.pending)
        state.pending = []

    def _claim_entry(
        self, state: _ThreadState, tid: int, entry_type: int, addr: int, value: bytes
    ) -> Tuple[int, bytes]:
        """Take the next log slot for an entry; returns its address and
        its 64 bytes.  Raises :class:`LogError`, before anything is
        written or emitted, when the log is full or ``value`` is too long
        for an entry."""
        if state.live_entries >= self.layout.capacity:
            raise LogError(
                f"thread {tid} exhausted its {self.layout.capacity}-entry log; "
                "size the log for the workload (the paper allocates more "
                "entries dynamically)"
            )
        entry = logbuf.encode_entry(entry_type, tid, addr, value, self._next_seq)
        self._next_seq += 1
        slot = state.tail
        state.tail = (slot + 1) % self.layout.capacity
        state.live_entries += 1
        if state.region_open:
            state.region_slots.append(slot)
        return state.entry_base + slot * ENTRY_SIZE, entry

    def _append_entry(
        self, tid: int, entry_type: int, addr: int = 0, value: bytes = b""
    ) -> int:
        """Allocate, write, and flush one log entry; returns its slot."""
        state = self._threads[tid]
        slot = state.tail
        entry_addr, entry = self._claim_entry(state, tid, entry_type, addr, value)
        self.space.write(entry_addr, entry)
        state.cursor.store_and_flush(entry_addr, entry, ENTRY_LABELS[entry_type])
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
    """Traced, undo-logged access bound to one thread of the runtime.
    Reads go straight to the PM image and the thread's cursor."""

    def __init__(self, rt: PmRuntime, tid: int) -> None:
        self.rt = rt
        self.tid = tid
        self._space = rt.space
        self._cursor = rt._threads[tid].cursor

    def read(self, addr: int, size: int) -> bytes:
        data = self._space.read(addr, size)
        self._cursor.load(addr, size)
        return data

    def read_u64(self, addr: int) -> int:
        value = self._space.read_u64(addr)
        self._cursor.load(addr, 8)
        return value

    def write(self, addr: int, data: bytes) -> None:
        self.rt.store(self.tid, addr, data)

    def write_u64(self, addr: int, value: int) -> None:
        self.rt.store(self.tid, addr, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))
