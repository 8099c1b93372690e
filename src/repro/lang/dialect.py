"""ISA dialects: how the logging runtime orders persists on each design.

The undo-logging runtime of Section V has five ordering points; each
hardware design provides them with its own primitives:

=================  ===============  ============  =============
ordering point     strandweaver     intel x86     hops
=================  ===============  ============  =============
log -> update      persist barrier  SFENCE        ofence
between pairs      NewStrand        SFENCE        ofence
region drain       JoinStrand       SFENCE        dfence
commit ordering    persist barrier  SFENCE        ofence
region end         JoinStrand       SFENCE        ofence
=================  ===============  ============  =============

Each dialect's :attr:`IsaDialect.fences` table is that column, and it is
the one source of fence kinds: the runtime emits every fence by looking
its ordering point up there, and :mod:`repro.lang.specialize` derives
its marker rewrite from the same tables.  The NON-ATOMIC dialect emits
none of them, which is why its traces fail the crash-consistency
property tests — by design.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Type

from repro.core.ops import OpKind

#: Ordering points of the runtime (Figures 5 and 6).
PAIR = "pair"  #: a log persist before its in-place update
SEPARATOR = "sep"  #: between independent log/update pairs
DRAIN = "drain"  #: every prior persist of the region durable (commit gate)
COMMIT = "commit"  #: the commit marker before the log invalidations
REGION_END = "region-end"  #: leaving a region whose commit must be durable
ORDERING_POINTS = (PAIR, SEPARATOR, DRAIN, COMMIT, REGION_END)

#: what a cursor emits at one ordering point: ``(kind, label)``, or None.
Fence = Optional[Tuple[int, str]]


class IsaDialect:
    """Ordering-primitive choice of one hardware design."""

    name = "abstract"
    #: designs (Machine names) this dialect's traces are meant for.
    designs: Tuple[str, ...] = ()
    #: ordering point -> fence kind emitted there, or None for nothing.
    fences: Mapping[str, Optional[OpKind]] = dict.fromkeys(ORDERING_POINTS)

    def fence_ops(self) -> Dict[str, Fence]:
        """Ordering point -> the fence a cursor emits there
        (:meth:`~repro.core.ops.ColumnCursor.fence`).  Concrete fences
        carry no label."""
        return {
            point: None if kind is None else (int(kind), "")
            for point, kind in self.fences.items()
        }


class StrandDialect(IsaDialect):
    """StrandWeaver: PB within pairs, NS across pairs, JS at region edges."""

    name = "strand"
    designs = ("strandweaver", "no-persist-queue")
    fences = {
        PAIR: OpKind.PERSIST_BARRIER,
        SEPARATOR: OpKind.NEW_STRAND,
        DRAIN: OpKind.JOIN_STRAND,
        COMMIT: OpKind.PERSIST_BARRIER,
        REGION_END: OpKind.JOIN_STRAND,
    }


class X86Dialect(IsaDialect):
    """Intel x86: every ordering point is a full SFENCE (Fig. 1b)."""

    name = "x86"
    designs = ("intel-x86",)
    fences = dict.fromkeys(ORDERING_POINTS, OpKind.SFENCE)


class HopsDialect(IsaDialect):
    """HOPS: ofence for ordering, dfence for durability ([19]).

    One dfence per region (before the commit marker) is enough: epoch
    ordering already orders the commit before the next region's
    persists, so leaving the region needs no drain, only an ofence.
    """

    name = "hops"
    designs = ("hops",)
    fences = {
        PAIR: OpKind.OFENCE,
        SEPARATOR: OpKind.OFENCE,
        DRAIN: OpKind.DFENCE,
        COMMIT: OpKind.OFENCE,
        REGION_END: OpKind.OFENCE,
    }


class NonAtomicDialect(IsaDialect):
    """No ordering whatsoever — the (incorrect) performance upper bound."""

    name = "non-atomic"
    designs = ("non-atomic",)


DIALECTS: Dict[str, Type[IsaDialect]] = {
    cls.name: cls
    for cls in (StrandDialect, X86Dialect, HopsDialect, NonAtomicDialect)
}


def dialect_for_design(design: str) -> IsaDialect:
    """Instantiate the dialect whose traces the given design replays."""
    for cls in DIALECTS.values():
        if design in cls.designs:
            return cls()
    raise ValueError(f"no dialect targets design {design!r}")
