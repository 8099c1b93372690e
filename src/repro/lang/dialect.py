"""ISA dialects: how the logging runtime orders persists on each design.

The undo-logging runtime of Section V needs four ordering points; each
hardware design provides them with its own primitives:

=================  ===============  ============  =============
ordering point     strandweaver     intel x86     hops
=================  ===============  ============  =============
log -> update      persist barrier  SFENCE        ofence
between pairs      NewStrand        SFENCE        ofence
region drain       JoinStrand       SFENCE        dfence
commit ordering    persist barrier  SFENCE        ofence
=================  ===============  ============  =============

The NON-ATOMIC dialect emits none of them, which is why its traces fail
the crash-consistency property tests — by design.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type

from repro.core.ops import ColumnCursor


class IsaDialect(ABC):
    """Ordering-primitive emission strategy for one hardware design."""

    name = "abstract"
    #: designs (Machine names) this dialect's traces are meant for.
    designs = ()

    @abstractmethod
    def pair_barrier(self, cur: ColumnCursor) -> None:
        """Order a log persist before its in-place update (Fig. 5)."""

    @abstractmethod
    def pair_separator(self, cur: ColumnCursor) -> None:
        """Separate independent log/update pairs (Fig. 5's NewStrand)."""

    @abstractmethod
    def region_drain(self, cur: ColumnCursor) -> None:
        """Make every prior persist of the region durable (commit gate)."""

    @abstractmethod
    def commit_barrier(self, cur: ColumnCursor) -> None:
        """Order the commit marker before log invalidations (Fig. 6)."""

    def region_begin(self, cur: ColumnCursor) -> None:
        """Entering a failure-atomic region (default: nothing)."""

    def region_end(self, cur: ColumnCursor) -> None:
        """Leaving a failure-atomic region (default: nothing)."""



class StrandDialect(IsaDialect):
    """StrandWeaver: PB within pairs, NS across pairs, JS at region edges."""

    name = "strand"
    designs = ("strandweaver", "no-persist-queue")

    def pair_barrier(self, cur: ColumnCursor) -> None:
        cur.persist_barrier()

    def pair_separator(self, cur: ColumnCursor) -> None:
        cur.new_strand()

    def region_drain(self, cur: ColumnCursor) -> None:
        cur.join_strand()

    def commit_barrier(self, cur: ColumnCursor) -> None:
        cur.persist_barrier()

    def region_end(self, cur: ColumnCursor) -> None:
        cur.join_strand()


class X86Dialect(IsaDialect):
    """Intel x86: every ordering point is a full SFENCE (Fig. 1b)."""

    name = "x86"
    designs = ("intel-x86",)

    def pair_barrier(self, cur: ColumnCursor) -> None:
        cur.sfence()

    def pair_separator(self, cur: ColumnCursor) -> None:
        cur.sfence()

    def region_drain(self, cur: ColumnCursor) -> None:
        cur.sfence()

    def commit_barrier(self, cur: ColumnCursor) -> None:
        cur.sfence()

    def region_end(self, cur: ColumnCursor) -> None:
        cur.sfence()


class HopsDialect(IsaDialect):
    """HOPS: ofence for ordering, dfence for durability ([19])."""

    name = "hops"
    designs = ("hops",)

    def pair_barrier(self, cur: ColumnCursor) -> None:
        cur.ofence()

    def pair_separator(self, cur: ColumnCursor) -> None:
        cur.ofence()

    def region_drain(self, cur: ColumnCursor) -> None:
        cur.dfence()

    def commit_barrier(self, cur: ColumnCursor) -> None:
        cur.ofence()

    def region_end(self, cur: ColumnCursor) -> None:
        # One dfence per region (before the commit marker) is enough:
        # epoch ordering already orders the commit before the next
        # region's persists, so leaving the region needs no drain [19].
        cur.ofence()


class NonAtomicDialect(IsaDialect):
    """No ordering whatsoever — the (incorrect) performance upper bound."""

    name = "non-atomic"
    designs = ("non-atomic",)

    def pair_barrier(self, cur: ColumnCursor) -> None:
        pass

    def pair_separator(self, cur: ColumnCursor) -> None:
        pass

    def region_drain(self, cur: ColumnCursor) -> None:
        pass

    def commit_barrier(self, cur: ColumnCursor) -> None:
        pass


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
