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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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


class SealedProgramError(RuntimeError):
    """An op was emitted into a sealed :class:`Program` (:meth:`Program.seal`)."""


_SEALED = "the program is sealed; emit into a new program instead"


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


#: Kinds that reference a persistent-memory address.
ADDRESSED_KINDS = frozenset({OpKind.STORE, OpKind.LOAD, OpKind.CLWB})

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
        addr: byte address for addressed ops, else 0.
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


#: OpKind member by int value.
_KINDS = tuple(OpKind)
#: kind byte -> 1 if the kind addresses memory (a bytes.translate table).
_ADDRESSED_BYTES = bytes(k in ADDRESSED_KINDS for k in range(256))


def kind_bytes(kinds: array) -> bytes:
    """A kinds column one byte per op (every kind is < 256), so it can be
    counted and masked at C speed."""
    width = kinds.itemsize
    low = 0 if sys.byteorder == "little" else width - 1
    return kinds.tobytes()[low::width]


#: fields of one op in :attr:`ColumnTrace.record`, in :class:`Op` order.
RECORD_FIELDS = ("addr", "size", "data", "gseq", "region", "label")
_REC = len(RECORD_FIELDS)
_GSEQ = RECORD_FIELDS.index("gseq")


class ColumnTrace:
    """The ordered micro-op stream of one logical thread, held as replay
    columns; :class:`Op` objects are built only when ``.ops`` is read.

    Every trace is one: generated and hand-built programs alike.
    ``kinds``/``lines``/``cycles``/``lock_ids`` are the C-ready arrays the
    native replay core consumes (``lines`` is ``addr // CACHE_LINE`` of
    every op).  ``len(trace)`` and replay never build an op.

    A trace comes about in one of two ways:

    * **emitted** by a :class:`ColumnCursor` (a :class:`TraceCursor` or
      :meth:`Program.emit` for hand-built programs): ``record`` holds,
      flat, the :data:`RECORD_FIELDS` of every op that the columns lack
      (``tid`` is the trace's, ``seq`` the index).  ``.ops`` extends the
      built list up to the current length on every read, so it is
      correct while the trace is still being emitted, and an op once
      built stays the object ``.ops`` holds.
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
    def ops(self) -> List[Op]:
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
    serialised.  A program grows until it is sealed (:meth:`seal`).
    """

    def __init__(self, n_threads: int) -> None:
        self.threads: List[ColumnTrace] = [ColumnTrace(t) for t in range(n_threads)]
        self._next_gseq = 0
        #: FIFO acquisition order per lock, fixed at generation time and
        #: replayed by the timing simulator.
        self.lock_order: Dict[int, List[int]] = {}
        self._sealed = False
        #: the caches derived from the sealed program (see :meth:`seal`).
        self._touched_lines = array("q")
        self._c_streams: Optional[tuple] = None
        self._one_line_stores: Optional[bool] = None

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def emit(self, tid: int, op: Op) -> Op:
        """Append a copy of ``op``'s fields to thread ``tid`` at the next
        visibility slot and return the trace's own op, numbered there;
        ``op`` itself is left as it was."""
        new = TraceCursor(self, tid)._emit(
            op.kind, op.addr, op.size, op.data, op.lock_id, op.cycles, op.label, op.region
        )
        if op.kind is OpKind.LOCK_ACQ:
            self.lock_order.setdefault(op.lock_id, []).append(tid)
        return new

    def seal(self) -> None:
        """Compute the touched lines and refuse every later emit (see
        :class:`SealedProgramError`); idempotent, and nothing unseals."""
        if self._sealed:
            return
        self._sealed = True
        touched = set()
        for trace in self.threads:
            addressed = kind_bytes(trace.kinds).translate(_ADDRESSED_BYTES)
            touched.update(compress(trace.lines, addressed))
        self._touched_lines = array("q", sorted(touched))

    def fence_rewrite(self, threads: List[ColumnTrace], next_gseq: int) -> "Program":
        """A sealed program of ``threads``, this one's with its fences
        rewritten (:mod:`repro.lang.specialize`): it shares lines and locks."""
        self.seal()
        out = Program(0)
        out.threads = threads
        out._next_gseq = next_gseq
        out.lock_order = self.lock_order
        out._sealed = True
        out._touched_lines = self._touched_lines
        return out

    def all_ops(self) -> List[Op]:
        """Every op of every thread in global visibility (gseq) order."""
        merged = [op for trace in self.threads for op in trace.ops]
        merged.sort(key=lambda op: op.gseq)
        return merged

    def touched_lines(self) -> array:
        """Sorted cache lines that any addressed op touches, as
        ``array("q")``, for the replay engines' cache warm-up."""
        self.seal()
        return self._touched_lines

    def one_line_stores(self) -> bool:
        """True when every STORE lies inside one cache line, which the
        native core's crash runs need: it records one line per op."""
        self.seal()
        if self._one_line_stores is None:
            self._one_line_stores = all(
                0 < op.size <= CACHE_LINE - op.addr % CACHE_LINE
                for trace in self.threads
                for op in trace.ops
                if op.kind is OpKind.STORE
            )
        return self._one_line_stores

    def native_streams(self, build: Callable[["Program"], tuple]) -> tuple:
        """The native core's C-ready streams of the sealed program,
        ``build(self)`` on first read (:mod:`repro.sim.cnative`)."""
        self.seal()
        if self._c_streams is None:
            self._c_streams = build(self)
        return self._c_streams


# Plain-int kinds for the emission hot path (an enum member costs an
# attribute lookup and an __index__ call per op).
(_STORE, _LOAD, _CLWB, _SFENCE, _PB, _NS, _JS, _OFENCE, _DFENCE,
 _LOCK_ACQ, _LOCK_REL, _COMPUTE) = map(int, OpKind)

_FENCE_INTS = frozenset(map(int, FENCE_KINDS))
#: constant column pieces of the emission blocks.
_STORE_CLWB = array("i", (_STORE, _CLWB))
_ZEROS2, _ZEROS6 = array("i", [0] * 2), array("i", [0] * 6)
_NO_LOCKS2, _NO_LOCKS6 = array("i", [-1] * 2), array("i", [-1] * 6)


def _flush_rows(addr: int, data: bytes, label: str, region: int, own: int) -> list:
    """``(kind, addr, size, data, region, label)`` rows of a PM store and
    its flush: one STORE per cache line touched, as :meth:`TraceCursor.store`
    splits it, then one CLWB per line.  The STOREs carry ``region``, the
    CLWBs ``own``; an empty payload is one empty STORE and no CLWB."""
    rows = [
        (_STORE, a, len(d), d, region, label)
        for a, d in split_at_lines(addr, data)
    ]
    rows += [
        (_CLWB, line * CACHE_LINE, CACHE_LINE, b"", own, label)
        for line in lines_of(addr, len(data))
    ]
    return rows


class ColumnCursor:
    """Emission helper writing one thread of a generated program straight
    into its :class:`ColumnTrace` — no :class:`Op` is built.

    The runtime (:mod:`repro.lang.runtime`) emits through this.  Its
    per-op methods return what :meth:`_emit` does: nothing here, the
    emitted op in :class:`TraceCursor`, the op-by-op cursor of
    hand-built programs.

    The runtime's fixed op patterns are emitted as blocks, one call each,
    that extend every column, the record and the marker sites once: a
    store and its flush (:meth:`store_and_flush`), a logged store
    (:meth:`logged_store`) and a run of one-line stores (:meth:`store_run`).

    A fence is ``(kind, label)``; only the marker dialect's placeholders
    carry a label, and a labelled fence's ``(index, label)`` goes into the
    trace's ``marker_sites`` as it is emitted.

    On a sealed program every emitter raises :class:`SealedProgramError`, writing nothing.
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
    ) -> Optional[Op]:
        trace = self.trace
        program = self.program
        if program._sealed:
            raise SealedProgramError(_SEALED)
        gseq = program._next_gseq
        program._next_gseq = gseq + 1
        trace.kinds.append(kind)
        trace.lines.append(addr // CACHE_LINE)
        trace.cycles.append(cycles)
        trace.lock_ids.append(lock_id)
        trace.record.extend((addr, size, data, gseq, region, label))
        return None

    def _emit_rows(self, rows: list) -> None:
        """Append ``(kind, addr, size, data, region, label)`` rows as ops
        with no lock and no cycles, recording labelled fences' sites."""
        trace = self.trace
        program = self.program
        if program._sealed:
            raise SealedProgramError(_SEALED)
        gseq = program._next_gseq
        base = len(trace.kinds)
        n = len(rows)
        program._next_gseq = gseq + n
        trace.kinds.extend([row[0] for row in rows])
        trace.lines.extend([row[1] // CACHE_LINE for row in rows])
        trace.cycles.extend(repeat(0, n))
        trace.lock_ids.extend(repeat(-1, n))
        record = trace.record
        sites = trace.marker_sites
        for i, (kind, addr, size, data, region, label) in enumerate(rows):
            record.extend((addr, size, data, gseq + i, region, label))
            if label and kind in _FENCE_INTS:
                sites.append((base + i, label))

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
        size = len(data)
        offset = addr % CACHE_LINE
        if not 0 < size <= CACHE_LINE - offset:
            self._emit_rows(_flush_rows(addr, data, label, region, own))
            return
        trace = self.trace
        program = self.program
        if program._sealed:
            raise SealedProgramError(_SEALED)
        gseq = program._next_gseq
        program._next_gseq = gseq + 2
        line = addr // CACHE_LINE
        trace.kinds.extend(_STORE_CLWB)
        trace.lines.extend((line, line))
        trace.cycles.extend(_ZEROS2)
        trace.lock_ids.extend(_NO_LOCKS2)
        trace.record.extend((
            addr, size, data, gseq, region, label,
            addr - offset, CACHE_LINE, b"", gseq + 1, own, label,
        ))

    def logged_store(
        self, entry_addr: int, entry: bytes, entry_label: str,
        pair: Optional[Tuple[int, str]], addr: int, data: bytes, label: str,
        sep: Optional[Tuple[int, str]],
    ) -> None:
        """Emit one undo-logged store (Fig. 5) as one block: the log
        entry's STORE + CLWB (``entry`` fills the cache line at
        ``entry_addr``), the ``pair`` fence, the update's STORE piece(s)
        + CLWB(s) as :meth:`store_and_flush` emits them, then the ``sep``
        fence.  A fence of None emits nothing.

        The common shape (both fences, an update inside one line) is
        written field by field; any other (a dialect without fences, an
        update that crosses a line or is empty) is built as rows and
        written by :meth:`_emit_rows`, still once per column."""
        size = len(data)
        offset = addr % CACHE_LINE
        region = self.region
        if pair is None or sep is None or not 0 < size <= CACHE_LINE - offset:
            rows = [
                (_STORE, entry_addr, len(entry), entry, region, entry_label),
                (_CLWB, entry_addr, CACHE_LINE, b"", region, entry_label),
            ]
            if pair is not None:
                rows.append((pair[0], 0, 0, b"", region, pair[1]))
            rows += _flush_rows(addr, data, label, region, region)
            if sep is not None:
                rows.append((sep[0], 0, 0, b"", region, sep[1]))
            self._emit_rows(rows)
            return
        trace = self.trace
        program = self.program
        if program._sealed:
            raise SealedProgramError(_SEALED)
        gseq = program._next_gseq
        program._next_gseq = gseq + 6
        kinds = trace.kinds
        base = len(kinds)
        pair_kind, pair_label = pair
        sep_kind, sep_label = sep
        entry_line = entry_addr // CACHE_LINE
        line = addr // CACHE_LINE
        kinds.extend((_STORE, _CLWB, pair_kind, _STORE, _CLWB, sep_kind))
        trace.lines.extend((entry_line, entry_line, 0, line, line, 0))
        trace.cycles.extend(_ZEROS6)
        trace.lock_ids.extend(_NO_LOCKS6)
        trace.record.extend((
            entry_addr, len(entry), entry, gseq, region, entry_label,
            entry_addr, CACHE_LINE, b"", gseq + 1, region, entry_label,
            0, 0, b"", gseq + 2, region, pair_label,
            addr, size, data, gseq + 3, region, label,
            addr - offset, CACHE_LINE, b"", gseq + 4, region, label,
            0, 0, b"", gseq + 5, region, sep_label,
        ))
        if pair_label:
            trace.marker_sites.append((base + 2, pair_label))
        if sep_label:
            trace.marker_sites.append((base + 5, sep_label))

    def store_run(self, addrs: List[int], data: bytes, label: str) -> None:
        """Emit ``data`` stored and flushed at each of ``addrs`` as one
        block: STORE, CLWB, STORE, CLWB, ...  Each store must lie inside
        one cache line (a commit's log-entry invalidations)."""
        size = len(data)
        if any(not 0 < size <= CACHE_LINE - a % CACHE_LINE for a in addrs):
            raise ValueError(f"a {size}-byte store of the run crosses a cache line")
        n = 2 * len(addrs)
        trace = self.trace
        program = self.program
        if program._sealed:
            raise SealedProgramError(_SEALED)
        gseq = program._next_gseq
        program._next_gseq = gseq + n
        region = self.region
        lines = [a // CACHE_LINE for a in addrs]
        trace.kinds.extend(_STORE_CLWB * len(addrs))
        trace.lines.extend([x for line in lines for x in (line, line)])
        trace.cycles.extend(repeat(0, n))
        trace.lock_ids.extend(repeat(-1, n))
        record = trace.record
        for i, (a, line) in enumerate(zip(addrs, lines)):
            g = gseq + 2 * i
            record.extend((
                a, size, data, g, region, label,
                line * CACHE_LINE, CACHE_LINE, b"", g + 1, region, label,
            ))

    def fence(self, fence: Optional[Tuple[int, str]]) -> None:
        """Emit one ``(kind, label)`` fence; None emits nothing."""
        if fence is None:
            return
        kind, label = fence
        self._emit(kind, 0, 0, b"", -1, 0, label, self.region)
        if label:
            self.trace.marker_sites.append((len(self.trace.kinds) - 1, label))

    def load(self, addr: int, size: int, label: str = "") -> Optional[Op]:
        trace = self.trace
        program = self.program
        if program._sealed:
            raise SealedProgramError(_SEALED)
        gseq = program._next_gseq
        program._next_gseq = gseq + 1
        trace.kinds.append(_LOAD)
        trace.lines.append(addr // CACHE_LINE)
        trace.cycles.append(0)
        trace.lock_ids.append(-1)
        trace.record.extend((addr, size, b"", gseq, self.region, label))
        return None

    def sfence(self) -> Optional[Op]:
        return self._emit(_SFENCE, 0, 0, b"", -1, 0, "", self.region)

    def persist_barrier(self) -> Optional[Op]:
        return self._emit(_PB, 0, 0, b"", -1, 0, "", self.region)

    def new_strand(self) -> Optional[Op]:
        return self._emit(_NS, 0, 0, b"", -1, 0, "", self.region)

    def join_strand(self) -> Optional[Op]:
        return self._emit(_JS, 0, 0, b"", -1, 0, "", self.region)

    def ofence(self) -> Optional[Op]:
        return self._emit(_OFENCE, 0, 0, b"", -1, 0, "", self.region)

    def dfence(self) -> Optional[Op]:
        return self._emit(_DFENCE, 0, 0, b"", -1, 0, "", self.region)

    def lock(self, lock_id: int) -> Optional[Op]:
        op = self._emit(_LOCK_ACQ, 0, 0, b"", lock_id, 0, "", self.region)
        self.program.lock_order.setdefault(lock_id, []).append(self.tid)
        return op

    def unlock(self, lock_id: int) -> Optional[Op]:
        return self._emit(_LOCK_REL, 0, 0, b"", lock_id, 0, "", self.region)

    def compute(self, cycles: int) -> Optional[Op]:
        return self._emit(_COMPUTE, 0, 0, b"", -1, cycles, "", self.region)


class TraceCursor(ColumnCursor):
    """Emission helper for one thread of a hand-built :class:`Program`: the
    op-by-op cursor that block emission is checked against.

    It writes the columns as :class:`ColumnCursor` does, one op per call,
    and each call returns the :class:`Op` it emitted: the object
    ``trace.ops`` holds, built from the columns.  That op is a view of
    the columns, so to tag an op, set the cursor's ``region`` before the
    call; editing the returned op changes nothing the replay reads.
    """

    __slots__ = ()

    def _emit(
        self, kind: int, addr: int, size: int, data: bytes, lock_id: int,
        cycles: int, label: str, region: int,
    ) -> Op:
        ColumnCursor._emit(self, kind, addr, size, data, lock_id, cycles, label, region)
        return self.trace.ops[-1]

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
                    self._emit(_STORE, a, len(d), d, -1, 0, label, self.region)
                    for a, d in pieces
                ]
                return ops[0]
        return self._emit(_STORE, addr, len(data), data, -1, 0, label, self.region)

    def load(self, addr: int, size: int, label: str = "") -> Op:
        return self._emit(_LOAD, addr, size, b"", -1, 0, label, self.region)

    def clwb(self, addr: int, size: int = CACHE_LINE, label: str = "") -> Op:
        return self._emit(_CLWB, addr, size, b"", -1, 0, label, self.region)
