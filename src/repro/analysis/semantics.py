"""Per-design ordering semantics for the static analyzer.

The analyzer asks one question of a compiled trace: *will this program be
crash-consistent when run on hardware design X?*  Each design honours a
different subset of the ordering vocabulary (Intel x86 implements SFENCE
but treats strand primitives as no-ops; StrandWeaver the reverse;
NON-ATOMIC honours nothing).  :func:`effective_program` projects a trace
onto the primitives the target design actually implements, and the formal
persistency model (Eqs. 1-4, :class:`~repro.core.model.PersistDag`) is
then built over that projection — so a strand-dialect trace analysed for
NON-ATOMIC hardware correctly shows *no* ordering edges, which is exactly
why the differential chaos oracle can reproduce every ERROR the analyzer
reports on NON-ATOMIC-style designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from repro.core.ops import FENCE_KINDS, Op, OpKind, Program


@dataclass(frozen=True)
class DesignSemantics:
    """Which ordering primitives one hardware design implements."""

    design: str
    #: fence-like kinds the design honours; all other fence kinds are
    #: architectural no-ops on this hardware and are projected away.
    honored: FrozenSet[OpKind]
    #: kinds that order earlier persists before later ones (Eq. 1 style).
    barrier_kinds: FrozenSet[OpKind]
    #: kinds that synchronously drain (durability points, Eq. 2 style).
    drain_kinds: FrozenSet[OpKind]
    #: NEW_STRAND/JOIN_STRAND carry meaning (strand hardware only).
    has_strands: bool


_X86 = DesignSemantics(
    design="intel-x86",
    honored=frozenset({OpKind.SFENCE}),
    barrier_kinds=frozenset({OpKind.SFENCE}),
    drain_kinds=frozenset({OpKind.SFENCE}),
    has_strands=False,
)

_HOPS = DesignSemantics(
    design="hops",
    honored=frozenset({OpKind.OFENCE, OpKind.DFENCE}),
    barrier_kinds=frozenset({OpKind.OFENCE, OpKind.DFENCE}),
    drain_kinds=frozenset({OpKind.DFENCE}),
    has_strands=False,
)

_STRAND_KINDS = frozenset(
    {OpKind.PERSIST_BARRIER, OpKind.NEW_STRAND, OpKind.JOIN_STRAND}
)

_STRANDWEAVER = DesignSemantics(
    design="strandweaver",
    honored=_STRAND_KINDS,
    barrier_kinds=frozenset({OpKind.PERSIST_BARRIER, OpKind.JOIN_STRAND}),
    drain_kinds=frozenset({OpKind.JOIN_STRAND}),
    has_strands=True,
)

_NO_PQ = DesignSemantics(
    design="no-persist-queue",
    honored=_STRAND_KINDS,
    barrier_kinds=frozenset({OpKind.PERSIST_BARRIER, OpKind.JOIN_STRAND}),
    drain_kinds=frozenset({OpKind.JOIN_STRAND}),
    has_strands=True,
)

_NON_ATOMIC = DesignSemantics(
    design="non-atomic",
    honored=frozenset(),
    barrier_kinds=frozenset(),
    drain_kinds=frozenset(),
    has_strands=False,
)

SEMANTICS = {
    s.design: s for s in (_X86, _HOPS, _STRANDWEAVER, _NO_PQ, _NON_ATOMIC)
}


def semantics_for(design: str) -> DesignSemantics:
    """Ordering semantics of one hardware design (by Machine name)."""
    try:
        return SEMANTICS[design]
    except KeyError:
        raise ValueError(
            f"unknown design {design!r}; choose from {sorted(SEMANTICS)}"
        ) from None


class EffectiveProgram:
    """A trace projected onto the primitives one design implements.

    Quacks enough like :class:`~repro.core.ops.Program` for
    :class:`~repro.core.model.PersistDag` (``n_threads``, ``all_ops()``,
    ``seal()``), while returning the *original* ``Op`` objects, of the
    sealed source program, so every diagnostic keeps their ``(tid, seq)``.
    """

    def __init__(self, program: Program, sem: DesignSemantics) -> None:
        program.seal()
        self.source = program
        self.semantics = sem
        self.n_threads = program.n_threads
        ops = program.all_ops()
        self._ops: List[Op] = [
            op for op in ops if op.kind not in FENCE_KINDS or op.kind in sem.honored
        ]
        #: fences projected away; 0 means the projection is ``program``.
        self.n_dropped = len(ops) - len(self._ops)
        self._thread_ops: List[List[Op]] = [[] for _ in range(self.n_threads)]
        for op in self._ops:
            self._thread_ops[op.tid].append(op)

    def all_ops(self) -> List[Op]:
        return self._ops

    def seal(self) -> None:
        self.source.seal()

    def thread_ops(self, tid: int) -> List[Op]:
        """One thread's projected ops in visibility order (callers only
        read the list)."""
        return self._thread_ops[tid]


def effective_program(program: Program, sem: DesignSemantics) -> EffectiveProgram:
    """Project ``program`` onto the fences ``sem``'s hardware honours."""
    return EffectiveProgram(program, sem)
