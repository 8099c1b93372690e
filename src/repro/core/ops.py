"""Micro-operation IR for StrandWeaver traces.

The language-level runtimes (:mod:`repro.lang`) compile persistent-memory
programs down to a stream of micro-operations per logical thread.  The same
stream feeds two consumers:

* the **formal persistency model** (:mod:`repro.core.model`), which derives
  the persist memory order (PMO) prescribed by Equations 1-4 of the paper,
  and
* the **timing simulator** (:mod:`repro.sim`), which replays the stream
  through one of the ISA-level hardware designs (Intel x86, HOPS,
  StrandWeaver, ...) and reports cycles and stall breakdowns.

Micro-op vocabulary (paper section the op comes from in parentheses):

=================  =============================================================
``STORE``          store to persistent memory (a *persist* once drained)
``LOAD``           load from persistent memory
``CLWB``           non-invalidating cache-line write-back (II-B)
``SFENCE``         Intel persist barrier: orders CLWBs *and* stalls stores (II-B)
``PERSIST_BARRIER``strand-local persist barrier, Eq. 1 (III)
``NEW_STRAND``     begin a new strand, clears prior ordering, Eq. 1 (III)
``JOIN_STRAND``    merge prior strands, Eq. 2 (III)
``OFENCE``         HOPS lightweight ordering fence (VI-A)
``DFENCE``         HOPS durability fence (VI-A)
``LOCK_ACQ``       acquire a named lock (synchronises threads)
``LOCK_REL``       release a named lock
``COMPUTE``        opaque CPU work measured in cycles
``VSTORE``         store to *volatile* (DRAM) memory — never persists
``VLOAD``          load from volatile memory
=================  =============================================================

Stores carry the written bytes so that crash images can be materialised by
replaying an arbitrary consistent cut of the persist DAG
(:mod:`repro.core.crash`).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import IntEnum
from itertools import compress, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

CACHE_LINE = 64


class LineCrossError(ValueError):
    """A STORE payload silently straddles a cache-line boundary.

    PM media persists at cache-line granularity, so a straddling store is
    two independent persists: a crash between them tears the write.  The
    high-level emission API (:meth:`TraceCursor.store`) refuses to create
    one silently — callers either let it split the payload at line
    boundaries or opt in explicitly (``on_line_cross="allow"``) to model
    a torn-write hazard on purpose.
    """


class OpKind(IntEnum):
    """Discriminator for micro-operations."""

    STORE = 0
    LOAD = 1
    CLWB = 2
    SFENCE = 3
    PERSIST_BARRIER = 4
    NEW_STRAND = 5
    JOIN_STRAND = 6
    OFENCE = 7
    DFENCE = 8
    LOCK_ACQ = 9
    LOCK_REL = 10
    COMPUTE = 11
    VSTORE = 12
    VLOAD = 13


#: Kinds that reference a persistent-memory address.
ADDRESSED_KINDS = frozenset(
    {OpKind.STORE, OpKind.LOAD, OpKind.CLWB, OpKind.VSTORE, OpKind.VLOAD}
)

#: Ordering primitives of the strand persistency model.
STRAND_PRIMITIVES = frozenset(
    {OpKind.PERSIST_BARRIER, OpKind.NEW_STRAND, OpKind.JOIN_STRAND}
)

#: Every fence-like op across all ISA designs.
FENCE_KINDS = frozenset(
    {
        OpKind.SFENCE,
        OpKind.PERSIST_BARRIER,
        OpKind.NEW_STRAND,
        OpKind.JOIN_STRAND,
        OpKind.OFENCE,
        OpKind.DFENCE,
    }
)


def line_of(addr: int) -> int:
    """Return the cache-line index containing byte address ``addr``."""
    return addr // CACHE_LINE


def lines_of(addr: int, size: int) -> Tuple[int, ...]:
    """Return all cache-line indices touched by ``[addr, addr+size)``."""
    if size <= 0:
        return ()
    first = addr // CACHE_LINE
    last = (addr + size - 1) // CACHE_LINE
    if first == last:
        return (first,)
    return tuple(range(first, last + 1))


def split_at_lines(addr: int, data: bytes) -> List[Tuple[int, bytes]]:
    """Split ``(addr, data)`` into per-cache-line ``(addr, chunk)`` pieces."""
    if addr % CACHE_LINE + len(data) <= CACHE_LINE:
        return [(addr, data)]
    pieces: List[Tuple[int, bytes]] = []
    offset = 0
    while offset < len(data):
        cur = addr + offset
        room = CACHE_LINE - (cur % CACHE_LINE)
        pieces.append((cur, data[offset : offset + room]))
        offset += room
    return pieces


@dataclass(slots=True)
class Op:
    """One micro-operation in a thread's instruction stream.

    Attributes:
        kind: operation discriminator.
        addr: byte address for addressed ops (PM or volatile), else 0.
        size: access size in bytes for addressed ops.
        data: bytes written by a ``STORE``; empty otherwise.
        lock_id: lock identity for ``LOCK_ACQ``/``LOCK_REL``.
        cycles: CPU work for ``COMPUTE`` ops.
        tid: owning logical thread id (assigned when appended to a trace).
        seq: index within the owning thread's stream.
        gseq: position in the global visibility order (volatile memory
            order); assigned by the trace builder as ops are emitted, so a
            smaller ``gseq`` means "became visible earlier" under TSO.
        region: id of the enclosing failure-atomic region, or -1.
        label: free-form tag used by tests and examples (e.g. ``"log:A"``).
    """

    kind: OpKind
    addr: int = 0
    size: int = 0
    data: bytes = b""
    lock_id: int = -1
    cycles: int = 0
    tid: int = -1
    seq: int = -1
    gseq: int = -1
    region: int = -1
    label: str = ""

    def is_pm_store(self) -> bool:
        return self.kind is OpKind.STORE

    def is_clwb(self) -> bool:
        return self.kind is OpKind.CLWB

    def touches(self, other: "Op") -> bool:
        """True when both ops address overlapping bytes."""
        if self.kind not in ADDRESSED_KINDS or other.kind not in ADDRESSED_KINDS:
            return False
        return self.addr < other.addr + other.size and other.addr < self.addr + self.size

    def line(self) -> int:
        return line_of(self.addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        base = f"{self.kind.name}"
        if self.kind in ADDRESSED_KINDS:
            base += f"(0x{self.addr:x},{self.size})"
        elif self.kind in (OpKind.LOCK_ACQ, OpKind.LOCK_REL):
            base += f"(lock={self.lock_id})"
        elif self.kind is OpKind.COMPUTE:
            base += f"({self.cycles}cy)"
        if self.label:
            base += f"[{self.label}]"
        return base


class ThreadTrace:
    """Ordered micro-op stream of one logical thread."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.ops: List[Op] = []

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __getitem__(self, idx: int) -> Op:
        return self.ops[idx]

    def append(self, op: Op, gseq: int) -> Op:
        op.tid = self.tid
        op.seq = len(self.ops)
        op.gseq = gseq
        self.ops.append(op)
        return op

    def addressed_lines(self) -> Iterable[int]:
        """Cache line of every op that addresses memory."""
        return (op.addr // CACHE_LINE for op in self.ops if op.kind in ADDRESSED_KINDS)


#: OpKind member by int value.
_KINDS = tuple(OpKind)
#: kind byte -> 1 if the kind addresses memory (a bytes.translate table).
_ADDRESSED_BYTES = bytes(k in ADDRESSED_KINDS for k in range(256))

#: fields of one op in :attr:`ColumnTrace.record`, in :class:`Op` order.
RECORD_FIELDS = ("addr", "size", "data", "gseq", "region", "label")
_REC = len(RECORD_FIELDS)
_GSEQ = RECORD_FIELDS.index("gseq")


class ColumnTrace(ThreadTrace):
    """A thread trace held as replay columns; :class:`Op` objects are built
    only when ``.ops`` is read.

    ``kinds``/``lines``/``cycles``/``lock_ids`` are the C-ready arrays the
    native replay core consumes (``lines`` is ``addr // CACHE_LINE`` of
    every op).  ``len(trace)`` and replay never build an op.

    A trace comes about in one of two ways:

    * **emitted** by a :class:`ColumnCursor`: ``record`` holds, flat, the
      :data:`RECORD_FIELDS` of every op that the columns lack (``tid`` is
      the trace's, ``seq`` the index).  ``.ops`` extends the built list
      up to the current length on every read, so it is correct while the
      trace is still being emitted.
    * **derived** from another trace (:mod:`repro.lang.specialize`):
      ``build()`` returns the whole op list on first read.
    """

    def __init__(
        self,
        tid: int,
        columns: Optional[tuple] = None,
        build: Optional[Callable[[], List[Op]]] = None,
    ) -> None:
        self.tid = tid
        if columns is None:
            columns = (array("i"), array("q"), array("i"), array("i"))
        self.kinds, self.lines, self.cycles, self.lock_ids = columns
        self.record: list = []
        #: ``(index, label)`` of every marker-dialect placeholder fence
        #: (see :mod:`repro.lang.specialize`); empty for concrete dialects.
        self.marker_sites: List[Tuple[int, str]] = []
        self._build = build
        self._ops: List[Op] = []

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def ops(self) -> List[Op]:  # type: ignore[override]
        ops = self._ops
        if len(ops) < len(self.kinds):
            if self._build is None:
                ops.extend(self._from_record(len(ops)))
            else:
                ops.extend(self._build())
                self._build = None  # drop the source trace it holds
        return ops

    def _from_record(self, start: int) -> Iterator[Op]:
        stop = len(self.kinds)
        rec = self.record[_REC * start : _REC * stop]
        return map(
            Op,
            map(_KINDS.__getitem__, self.kinds[start:stop]),
            rec[0::_REC], rec[1::_REC], rec[2::_REC],
            self.lock_ids[start:stop], self.cycles[start:stop],
            repeat(self.tid, stop - start), range(start, stop),
            rec[3::_REC], rec[4::_REC], rec[5::_REC],
        )

    def gseq(self, index: int) -> int:
        """Global visibility slot of op ``index`` of an emitted trace."""
        return self.record[_REC * index + _GSEQ]

    def append(self, op: Op, gseq: int) -> Op:
        raise TypeError("column traces are written by a ColumnCursor")

    def kind_bytes(self) -> bytes:
        """Op kinds one byte each (every kind is < 256), so they can be
        counted and masked at C speed."""
        width = self.kinds.itemsize
        low = 0 if sys.byteorder == "little" else width - 1
        return self.kinds.tobytes()[low::width]

    def addressed_lines(self) -> Iterable[int]:
        return compress(self.lines, self.kind_bytes().translate(_ADDRESSED_BYTES))

    def __getstate__(self):
        self.ops  # a derived trace's builder is a closure, which does not pickle
        return self.__dict__


class Program:
    """A multi-threaded micro-op program with a fixed visibility order.

    The functional front end executes workloads under a deterministic
    cooperative scheduler, which serialises all memory operations into a
    single global order.  That order *is* the volatile memory order (VMO)
    used by the formal model: it is a legal TSO execution because each
    thread's ops appear in program order and conflicting accesses are
    serialised.

    ``trace`` makes each thread's trace: an op list (:class:`ThreadTrace`)
    for hand-built programs, :class:`ColumnTrace` for generated ones.
    """

    def __init__(
        self, n_threads: int, trace: Callable[[int], ThreadTrace] = ThreadTrace
    ) -> None:
        self.threads: List[ThreadTrace] = [trace(t) for t in range(n_threads)]
        self._next_gseq = 0
        #: FIFO acquisition order per lock, fixed at generation time and
        #: replayed by the timing simulator.
        self.lock_order: Dict[int, List[int]] = {}
        self._touched_lines: Optional[array] = None

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def emit(self, tid: int, op: Op) -> Op:
        """Append ``op`` to thread ``tid`` at the next visibility slot."""
        if op.kind is OpKind.LOCK_ACQ:
            self.lock_order.setdefault(op.lock_id, []).append(tid)
        out = self.threads[tid].append(op, self._next_gseq)
        self._next_gseq += 1
        return out

    def all_ops(self) -> List[Op]:
        """Every op of every thread in global visibility (gseq) order."""
        merged = [op for trace in self.threads for op in trace.ops]
        merged.sort(key=lambda op: op.gseq)
        return merged

    def pm_stores(self) -> List[Op]:
        """All persistent stores in visibility order."""
        return [op for op in self.all_ops() if op.kind is OpKind.STORE]

    def touched_lines(self) -> array:
        """Sorted cache lines that any addressed op touches, as
        ``array("q")``; computed once (programs are immutable once
        generated) for the replay engines' cache warm-up."""
        if self._touched_lines is None:
            touched = set()
            for trace in self.threads:
                touched.update(trace.addressed_lines())
            self._touched_lines = array("q", sorted(touched))
        return self._touched_lines

    def counts(self) -> Dict[str, int]:
        """Histogram of op kinds across all threads (for reporting)."""
        out: Dict[str, int] = {}
        for trace in self.threads:
            for op in trace.ops:
                out[op.kind.name] = out.get(op.kind.name, 0) + 1
        return out


@dataclass
class TraceCursor:
    """Mutable emission helper bound to one thread of a hand-built
    :class:`Program`; returns every :class:`Op` it emits.  Generated
    programs are written through :class:`ColumnCursor` instead."""

    program: Program
    tid: int
    region: int = -1

    def _emit(self, op: Op) -> Op:
        # Inlined Program.emit + ThreadTrace.append: this is the hottest
        # call in trace generation (one call per micro-op), so the two
        # delegation layers are flattened.  Semantics are identical.
        program = self.program
        tid = self.tid
        if op.kind is OpKind.LOCK_ACQ:
            program.lock_order.setdefault(op.lock_id, []).append(tid)
        op.region = self.region
        op.tid = tid
        ops = program.threads[tid].ops
        op.seq = len(ops)
        op.gseq = program._next_gseq
        program._next_gseq += 1
        ops.append(op)
        return op

    def store(
        self, addr: int, data: bytes, label: str = "", on_line_cross: str = "split"
    ) -> Op:
        """Emit a PM store, validating cache-line atomicity.

        A payload crossing a cache-line boundary is not a single persist.
        ``on_line_cross`` selects what to do when that happens:

        * ``"split"`` (default) — emit one STORE per touched line, so every
          emitted op is persist-atomic; returns the first piece.
        * ``"raise"`` — raise :class:`LineCrossError`.
        * ``"allow"`` — emit the straddling store as-is (used to seed
          torn-write hazards for the static analyzer and chaos tests).
        """
        if on_line_cross not in ("split", "raise", "allow"):
            raise ValueError(
                f"on_line_cross must be 'split', 'raise' or 'allow', "
                f"not {on_line_cross!r}"
            )
        pieces = split_at_lines(addr, data)
        if len(pieces) > 1:
            if on_line_cross == "raise":
                raise LineCrossError(
                    f"store of {len(data)} bytes at 0x{addr:x} spans "
                    f"{len(pieces)} cache lines"
                )
            if on_line_cross == "split":
                ops = [
                    self._emit(Op(OpKind.STORE, addr=a, size=len(d), data=d, label=label))
                    for a, d in pieces
                ]
                return ops[0]
        return self._emit(Op(OpKind.STORE, addr=addr, size=len(data), data=data, label=label))

    def load(self, addr: int, size: int, label: str = "") -> Op:
        return self._emit(Op(OpKind.LOAD, addr=addr, size=size, label=label))

    def vstore(self, addr: int, size: int, label: str = "") -> Op:
        return self._emit(Op(OpKind.VSTORE, addr=addr, size=size, label=label))

    def vload(self, addr: int, size: int, label: str = "") -> Op:
        return self._emit(Op(OpKind.VLOAD, addr=addr, size=size, label=label))

    def clwb(self, addr: int, size: int = CACHE_LINE, label: str = "") -> Op:
        return self._emit(Op(OpKind.CLWB, addr=addr, size=size, label=label))

    def sfence(self) -> Op:
        return self._emit(Op(OpKind.SFENCE))

    def persist_barrier(self) -> Op:
        return self._emit(Op(OpKind.PERSIST_BARRIER))

    def new_strand(self) -> Op:
        return self._emit(Op(OpKind.NEW_STRAND))

    def join_strand(self) -> Op:
        return self._emit(Op(OpKind.JOIN_STRAND))

    def ofence(self) -> Op:
        return self._emit(Op(OpKind.OFENCE))

    def dfence(self) -> Op:
        return self._emit(Op(OpKind.DFENCE))

    def lock(self, lock_id: int) -> Op:
        return self._emit(Op(OpKind.LOCK_ACQ, lock_id=lock_id))

    def unlock(self, lock_id: int) -> Op:
        return self._emit(Op(OpKind.LOCK_REL, lock_id=lock_id))

    def compute(self, cycles: int) -> Op:
        return self._emit(Op(OpKind.COMPUTE, cycles=cycles))


# Plain-int kinds for the emission hot path (an enum member costs an
# attribute lookup and an __index__ call per op).
(_STORE, _LOAD, _CLWB, _SFENCE, _PB, _NS, _JS, _OFENCE, _DFENCE,
 _LOCK_ACQ, _LOCK_REL, _COMPUTE, _VSTORE, _VLOAD) = map(int, OpKind)


class ColumnCursor:
    """Emission helper writing one thread of a generated program straight
    into its :class:`ColumnTrace` — no :class:`Op` is built.

    The runtime (:mod:`repro.lang.runtime`) emits through this; it mirrors
    :class:`TraceCursor`, which builds ops for hand-written programs, and
    produces op-for-op the same trace.  Methods return nothing.
    """

    __slots__ = ("program", "tid", "trace", "region")

    def __init__(self, program: Program, tid: int) -> None:
        self.program = program
        self.tid = tid
        self.trace: ColumnTrace = program.threads[tid]
        self.region = -1

    def _emit(
        self, kind: int, addr: int, size: int, data: bytes, lock_id: int,
        cycles: int, label: str, region: int,
    ) -> None:
        trace = self.trace
        program = self.program
        gseq = program._next_gseq
        program._next_gseq = gseq + 1
        trace.kinds.append(kind)
        trace.lines.append(addr // CACHE_LINE)
        trace.cycles.append(cycles)
        trace.lock_ids.append(lock_id)
        trace.record.extend((addr, size, data, gseq, region, label))

    def store_and_flush(
        self, addr: int, data: bytes, label: str = "", region: Optional[int] = None
    ) -> None:
        """Emit a PM store, split at cache-line boundaries exactly as
        :meth:`TraceCursor.store` splits it, then one CLWB per touched
        line.  ``region`` (default: the cursor's) tags the STORE pieces
        only; the CLWBs carry the cursor's region."""
        own = self.region
        if region is None:
            region = own
        emit = self._emit
        size = len(data)
        offset = addr % CACHE_LINE
        if offset + size <= CACHE_LINE:  # one piece, at most one line
            emit(_STORE, addr, size, data, -1, 0, label, region)
            if size:
                emit(_CLWB, addr - offset, CACHE_LINE, b"", -1, 0, label, own)
            return
        for a, d in split_at_lines(addr, data):
            emit(_STORE, a, len(d), d, -1, 0, label, region)
        for line in lines_of(addr, size):
            emit(_CLWB, line * CACHE_LINE, CACHE_LINE, b"", -1, 0, label, own)

    def load(self, addr: int, size: int, label: str = "") -> None:
        self._emit(_LOAD, addr, size, b"", -1, 0, label, self.region)

    def vstore(self, addr: int, size: int, label: str = "") -> None:
        self._emit(_VSTORE, addr, size, b"", -1, 0, label, self.region)

    def vload(self, addr: int, size: int, label: str = "") -> None:
        self._emit(_VLOAD, addr, size, b"", -1, 0, label, self.region)

    def sfence(self, label: str = "") -> None:
        self._emit(_SFENCE, 0, 0, b"", -1, 0, label, self.region)

    def persist_barrier(self) -> None:
        self._emit(_PB, 0, 0, b"", -1, 0, "", self.region)

    def new_strand(self) -> None:
        self._emit(_NS, 0, 0, b"", -1, 0, "", self.region)

    def join_strand(self) -> None:
        self._emit(_JS, 0, 0, b"", -1, 0, "", self.region)

    def ofence(self) -> None:
        self._emit(_OFENCE, 0, 0, b"", -1, 0, "", self.region)

    def dfence(self) -> None:
        self._emit(_DFENCE, 0, 0, b"", -1, 0, "", self.region)

    def lock(self, lock_id: int) -> None:
        self.program.lock_order.setdefault(lock_id, []).append(self.tid)
        self._emit(_LOCK_ACQ, 0, 0, b"", lock_id, 0, "", self.region)

    def unlock(self, lock_id: int) -> None:
        self._emit(_LOCK_REL, 0, 0, b"", lock_id, 0, "", self.region)

    def compute(self, cycles: int) -> None:
        self._emit(_COMPUTE, 0, 0, b"", -1, cycles, "", self.region)
