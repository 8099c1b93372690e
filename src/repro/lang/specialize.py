"""Generate once, specialize per dialect.

The four ISA dialects (:mod:`repro.lang.dialect`) differ *only* in which
fence op each of the runtime's ordering points expands to — one op for
strand/x86/HOPS, none for non-atomic.  Everything else about a generated
run (the functional PM image, the lock acquisition order, every
addressed op, every label, every region id) is dialect-independent: the
workload logic never observes the dialect, and fences never touch
memory.

So instead of executing the functional workload once per design, the
harness executes it **once** under :class:`MarkerDialect` — which stamps
each ordering point with a tagged placeholder fence — and then
*specializes* the canonical program per dialect:

* **strand / x86 / hops** replace each marker with the dialect's fence
  in place.  Every marker expands to exactly one op, so per-thread
  ``seq`` and global ``gseq`` numbering are unchanged: only the kinds
  column is copied and patched, the other replay columns are shared,
  and if ops are ever built every non-marker
  :class:`~repro.core.ops.Op` object is shared with the canonical
  program (ops are never mutated after generation).
* **non-atomic** drops the markers, which shifts numbering: its columns
  are the canonical ones with the marker slots cut out, and its ops (if
  built) are copies with ``seq``/``gseq`` renumbered exactly as direct
  generation would number them.

Generated traces are born as replay columns
(:class:`~repro.core.ops.ColumnTrace`), and :class:`MarkerDialect`
records every marker's position as it emits it, so specializing never
walks the ops; a specialized trace builds its ops only when ``.ops`` is
read (the native replay core never reads it).

``tests/sim/test_fastcore_identity.py`` pins that a specialized program
is op-for-op identical (all fields) to one generated directly with the
real dialect, and ``tests/sim/test_op_stream_pins.py`` pins both, and
the marker program, against recorded per-thread digests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Optional

from repro.core.ops import ColumnCursor, ColumnTrace, Op, OpKind, Program
from repro.lang.dialect import IsaDialect

#: label prefix carried by canonical placeholder fences.
MARK_PREFIX = "mark:"

_PAIR = MARK_PREFIX + "pair"
_SEP = MARK_PREFIX + "sep"
_DRAIN = MARK_PREFIX + "drain"
_COMMIT = MARK_PREFIX + "commit"
_REGION_END = MARK_PREFIX + "region-end"


class MarkerDialect(IsaDialect):
    """Placeholder dialect: tags ordering points instead of choosing fences.

    The op kind of a marker is irrelevant (markers never reach a
    simulator); SFENCE is used so marker programs still satisfy trace
    invariants if inspected.  Each marker's ``(index, label)`` goes into
    its trace's ``marker_sites`` as it is emitted.  ``region_begin``
    stays the inherited no-op because every concrete dialect also emits
    nothing there.
    """

    name = "marker"
    designs = ()

    @staticmethod
    def _mark(cur: ColumnCursor, label: str) -> None:
        trace = cur.trace
        trace.marker_sites.append((len(trace.kinds), label))
        cur.sfence(label)

    def pair_barrier(self, cur: ColumnCursor) -> None:
        self._mark(cur, _PAIR)

    def pair_separator(self, cur: ColumnCursor) -> None:
        self._mark(cur, _SEP)

    def region_drain(self, cur: ColumnCursor) -> None:
        self._mark(cur, _DRAIN)

    def commit_barrier(self, cur: ColumnCursor) -> None:
        self._mark(cur, _COMMIT)

    def region_end(self, cur: ColumnCursor) -> None:
        self._mark(cur, _REGION_END)


#: dialect name -> ordering-point label -> concrete fence kind (None: drop).
#: Mirrors the emission tables of :mod:`repro.lang.dialect` exactly.
SPECIALIZE_MAP: Dict[str, Dict[str, Optional[OpKind]]] = {
    "strand": {
        _PAIR: OpKind.PERSIST_BARRIER,
        _SEP: OpKind.NEW_STRAND,
        _DRAIN: OpKind.JOIN_STRAND,
        _COMMIT: OpKind.PERSIST_BARRIER,
        _REGION_END: OpKind.JOIN_STRAND,
    },
    "x86": {
        _PAIR: OpKind.SFENCE,
        _SEP: OpKind.SFENCE,
        _DRAIN: OpKind.SFENCE,
        _COMMIT: OpKind.SFENCE,
        _REGION_END: OpKind.SFENCE,
    },
    "hops": {
        _PAIR: OpKind.OFENCE,
        _SEP: OpKind.OFENCE,
        _DRAIN: OpKind.DFENCE,
        _COMMIT: OpKind.OFENCE,
        _REGION_END: OpKind.OFENCE,
    },
    "non-atomic": {
        _PAIR: None,
        _SEP: None,
        _DRAIN: None,
        _COMMIT: None,
        _REGION_END: None,
    },
}


def specialize(program: Program, dialect_name: str) -> Program:
    """Rewrite a canonical marker program for one concrete dialect.

    Returns a new :class:`Program`; the canonical program is untouched
    and can be specialized again for other dialects.  The touched-line
    set is shared outright: fences carry no address.
    """
    try:
        table = SPECIALIZE_MAP[dialect_name]
    except KeyError:
        raise ValueError(
            f"no specialization for dialect {dialect_name!r}; "
            f"choose from {sorted(SPECIALIZE_MAP)}"
        ) from None
    if dialect_name == "non-atomic":
        out = _specialize_dropping(program)
    else:
        out = _specialize_in_place(program, table)
    out._touched_lines = program.touched_lines()
    return out


def _specialize_in_place(program: Program, table) -> Program:
    """One-op-per-marker dialects: numbering is unchanged, so the kinds
    column is a memcpy plus one patch per marker and the lines/cycles/
    lock columns are the canonical arrays themselves."""
    out = Program(program.n_threads)
    out._next_gseq = program._next_gseq
    out.lock_order = {k: list(v) for k, v in program.lock_order.items()}
    fence_of = {label: int(kind) for label, kind in table.items()}
    threads = []
    for src in program.threads:
        kinds = array("i", src.kinds)
        for i, label in src.marker_sites:
            kinds[i] = fence_of[label]
        columns = (kinds, src.lines, src.cycles, src.lock_ids)
        threads.append(ColumnTrace(src.tid, columns, _in_place_builder(src, table)))
    out.threads = threads
    return out


def _in_place_builder(src: ColumnTrace, table):
    """Deferred op-list rewrite for one-op-per-marker dialects: share
    every non-marker op, rebuild each marker as the dialect's fence with
    identical numbering."""

    def build():
        ops = list(src.ops)
        for i, label in src.marker_sites:
            op = ops[i]
            ops[i] = Op(
                table[label], tid=op.tid, seq=op.seq, gseq=op.gseq, region=op.region
            )
        return ops

    return build


def _specialize_dropping(program: Program) -> Program:
    """Marker-dropping dialects (non-atomic): the replay columns are the
    canonical ones with the marker slots cut out.

    Renumbering needs no global merge: direct generation assigns gseq
    in the canonical emission order restricted to the kept ops, so the
    new gseq is the old one minus the number of dropped markers that
    preceded it.  Lock order is unchanged (lock ops are never markers
    and their relative order is preserved).
    """
    out = Program(program.n_threads)
    out.lock_order = {k: list(v) for k, v in program.lock_order.items()}
    dropped = sorted(
        src.gseq(i) for src in program.threads for i, _label in src.marker_sites
    )
    threads = []
    for src in program.threads:
        sites = [i for i, _label in src.marker_sites]
        columns = []
        for column in (src.kinds, src.lines, src.cycles, src.lock_ids):
            kept = array(column.typecode)
            prev = 0
            for i in sites + [len(src)]:
                kept.extend(column[prev:i])
                prev = i + 1
            columns.append(kept)
        threads.append(
            ColumnTrace(src.tid, tuple(columns), _dropping_builder(src, set(sites), dropped))
        )
    out.threads = threads
    out._next_gseq = program._next_gseq - len(dropped)
    return out


def _dropping_builder(src: ColumnTrace, site_set, dropped):
    """Deferred op-list rewrite for marker-dropping dialects: copy each
    kept op with ``seq``/``gseq`` renumbered to the contiguous values
    direct generation would assign (see :func:`_specialize_dropping`)."""

    def build():
        ops = []
        append = ops.append
        seq = 0
        tid = src.tid
        for i, op in enumerate(src.ops):
            if i in site_set:
                continue
            gseq = op.gseq
            append(
                Op(
                    op.kind, op.addr, op.size, op.data, op.lock_id,
                    op.cycles, tid, seq, gseq - bisect_left(dropped, gseq),
                    op.region, op.label,
                )
            )
            seq += 1
        return ops

    return build
