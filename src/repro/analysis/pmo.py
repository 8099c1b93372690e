"""Declarative persist memory order: an independent encoding of Eqs. 1-4.

:class:`~repro.core.model.PersistDag` is the *operational* formalisation
of the paper's strand persistency model: it builds ordering edges node by
node, in visibility order, with nearest-non-empty-epoch ladders and
virtual drain/acquire nodes.  This module encodes the same axioms
*declaratively*: every relation of Section III is written down as an
explicit set of ordered store pairs over the design-projected trace,

* **eq1** — intra-strand persist barriers: two stores of the same thread
  and same strand instance are ordered when the first's sub-epoch is
  strictly smaller (a persist barrier separates them, Eq. 1);
* **eq2** — ``JoinStrand``: two stores of the same thread are ordered
  when the first's join epoch is strictly smaller (Eq. 2);
* **eq3** — strong persist atomicity: byte-conflicting stores anywhere
  in the program are ordered by visibility order (Eq. 3);
* **sync** — durability transfer across lock hand-off: every store
  durable at a releaser's last synchronous drain precedes every store
  the acquirer issues after taking the lock;

and Eq. 4 (transitivity) is the reflexive-transitive closure of their
union.  The reachable crash states are exactly the **down-closed store
sets** of that closure.

Nothing here is shared with :class:`PersistDag` beyond the op stream and
the :class:`~repro.analysis.semantics.DesignSemantics` vocabulary — no
ladders, no virtual nodes, no epoch grouping — which is the point: the
model checker (:mod:`repro.analysis.modelcheck`) compares the two
formalisations pairwise and state-by-state, so a bug in either encoding
surfaces as a divergence instead of silently shipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.semantics import DesignSemantics, semantics_for
from repro.core.ops import FENCE_KINDS, Op, OpKind, Program

#: default ceiling on enumerated crash states (mirrors enumerate_cuts).
DEFAULT_STATE_LIMIT = 200_000

#: the four relation names of the declarative encoding.
RELATIONS = ("eq1", "eq2", "eq3", "sync")

#: stable identity of one store: (tid, seq) in the source trace.
StoreKey = Tuple[int, int]

#: actions of the explicit stack in :meth:`DeclarativePmo.reachable_states`.
_VISIT, _INCLUDE, _DROP = range(3)


class StateSpaceExceeded(ValueError):
    """Reachable-state enumeration passed the configured budget."""


@dataclass(frozen=True)
class StoreLabel:
    """Strand coordinates of one projected store (declarative view)."""

    strand: int
    sub_epoch: int
    js_epoch: int


class _ThreadState:
    """Per-thread labelling state while reading the trace once."""

    def __init__(self) -> None:
        self.strand = 0
        self.next_strand = 1
        self.sub_epoch = 0
        self.js_epoch = 0
        #: indices (into DeclarativePmo.stores) of this thread's stores.
        self.own: List[int] = []
        #: store indices inherited through lock acquisitions: everything
        #: here is durable before any of this thread's later stores.
        self.sync_in: Set[int] = set()
        #: snapshot taken at the last synchronous drain: own stores so
        #: far plus everything inherited by then.  None before any drain.
        self.drained: Optional[FrozenSet[int]] = None


class DeclarativePmo:
    """Eqs. 1-4 as explicit relations over one design-projected trace."""

    def __init__(self, program: Program, sem) -> None:
        program.seal()
        if isinstance(sem, str):
            sem = semantics_for(sem)
        self.semantics: DesignSemantics = sem
        self.stores: List[Op] = []
        self.labels: List[StoreLabel] = []
        #: (tid, seq) -> index into ``stores``.
        self.index_of: Dict[StoreKey, int] = {}
        #: relation name -> set of (earlier, later) store-index pairs.
        self.edges: Dict[str, Set[Tuple[int, int]]] = {r: set() for r in RELATIONS}
        self._build(program)
        #: transitive closure: ancestors[i] = every index PMO-before i.
        self.ancestors: List[FrozenSet[int]] = self._close()

    # -- construction ------------------------------------------------------

    def _build(self, program: Program) -> None:
        sem = self.semantics
        threads = [_ThreadState() for _ in range(program.n_threads)]
        #: per-byte write history in visibility order (Eq. 3).
        byte_writers: Dict[int, List[int]] = {}
        #: lock id -> durable snapshot of the last releasing thread.
        lock_snapshot: Dict[int, FrozenSet[int]] = {}

        for op in program.all_ops():
            kind = op.kind
            if kind in FENCE_KINDS and kind not in sem.honored:
                continue  # this hardware never sees the primitive
            st = threads[op.tid]
            if kind is OpKind.NEW_STRAND:
                if sem.has_strands:
                    st.strand = st.next_strand
                    st.next_strand += 1
                    st.sub_epoch = 0
            elif kind in sem.drain_kinds:
                st.sub_epoch += 1
                st.js_epoch += 1
                st.drained = frozenset(st.own) | frozenset(st.sync_in)
            elif kind in sem.barrier_kinds:
                st.sub_epoch += 1
            elif kind is OpKind.LOCK_REL:
                if st.drained is not None:
                    lock_snapshot[op.lock_id] = st.drained
            elif kind is OpKind.LOCK_ACQ:
                st.sync_in |= lock_snapshot.get(op.lock_id, frozenset())
            elif kind is OpKind.STORE:
                idx = len(self.stores)
                self.stores.append(op)
                self.labels.append(
                    StoreLabel(st.strand, st.sub_epoch, st.js_epoch)
                )
                self.index_of[(op.tid, op.seq)] = idx
                # eq1 / eq2: against every earlier store of this thread.
                lbl = self.labels[idx]
                for prev in st.own:
                    plbl = self.labels[prev]
                    if plbl.strand == lbl.strand and plbl.sub_epoch < lbl.sub_epoch:
                        self.edges["eq1"].add((prev, idx))
                    if plbl.js_epoch < lbl.js_epoch:
                        self.edges["eq2"].add((prev, idx))
                # eq3: every earlier writer of any byte this store touches.
                conflicting: Set[int] = set()
                for byte in range(op.addr, op.addr + op.size):
                    writers = byte_writers.setdefault(byte, [])
                    conflicting.update(writers)
                    writers.append(idx)
                for prev in conflicting:
                    self.edges["eq3"].add((prev, idx))
                # sync: durability handed over through lock acquisition.
                for prev in st.sync_in:
                    self.edges["sync"].add((prev, idx))
                st.own.append(idx)

    def _close(self) -> List[FrozenSet[int]]:
        """Eq. 4: transitive closure, one pass in visibility order.

        Every relation points from an earlier store (smaller index: the
        store list is built in gseq order) to a later one, so ancestors
        accumulate monotonically left to right.
        """
        preds: List[Set[int]] = [set() for _ in self.stores]
        for pairs in self.edges.values():
            for a, b in pairs:
                preds[b].add(a)
        out: List[FrozenSet[int]] = []
        for idx in range(len(self.stores)):
            anc: Set[int] = set()
            for p in preds[idx]:
                anc.add(p)
                anc |= out[p]
            out.append(frozenset(anc))
        return out

    # -- queries -----------------------------------------------------------

    @property
    def n_stores(self) -> int:
        return len(self.stores)

    def key_of(self, idx: int) -> StoreKey:
        op = self.stores[idx]
        return (op.tid, op.seq)

    def ordered_before(self, a: int, b: int) -> bool:
        """True when store ``a`` is PMO-before store ``b`` (Eqs. 1-4)."""
        return a in self.ancestors[b]

    def ordered_before_ops(self, a: Op, b: Op) -> bool:
        ia = self.index_of.get((a.tid, a.seq))
        ib = self.index_of.get((b.tid, b.seq))
        if ia is None or ib is None:
            return False
        return self.ordered_before(ia, ib)

    def order_pairs(self) -> Set[Tuple[StoreKey, StoreKey]]:
        """Every ordered store pair of the full PMO, by stable op key."""
        out: Set[Tuple[StoreKey, StoreKey]] = set()
        for b, anc in enumerate(self.ancestors):
            kb = self.key_of(b)
            for a in anc:
                out.add((self.key_of(a), kb))
        return out

    def is_reachable(self, keys) -> bool:
        """True when the store set ``keys`` is a reachable crash state.

        A state is reachable iff it is down-closed under the PMO: every
        included store's ancestors are included too.  Unknown keys (ops
        the projection removed, or non-stores) make the state
        unreachable by definition.
        """
        included: Set[int] = set()
        for key in keys:
            idx = self.index_of.get(tuple(key))
            if idx is None:
                return False
            included.add(idx)
        return all(self.ancestors[idx] <= included for idx in included)

    def reachable_states(
        self, limit: int = DEFAULT_STATE_LIMIT
    ) -> Iterator[FrozenSet[StoreKey]]:
        """Enumerate every reachable crash state (down-closed store set).

        Walks stores in visibility order branching on exclude, then
        include; a store may be included only when all of its PMO
        ancestors are.  The walk keeps its own stack, so the program size
        is bounded by ``limit``, not by the interpreter's recursion depth.
        Raises :class:`StateSpaceExceeded` past ``limit`` states, so the
        model checker can fall back to pairwise comparison on programs
        too large to enumerate.
        """
        n = self.n_stores
        produced = 0
        included: Set[int] = set()
        #: (action, store index): visit the store, try including it, or
        #: drop it from ``included`` once its include branch is done.
        stack: List[Tuple[int, int]] = [(_VISIT, 0)]
        while stack:
            action, idx = stack.pop()
            if action == _VISIT:
                if idx == n:
                    produced += 1
                    if produced > limit:
                        raise StateSpaceExceeded(
                            f"more than {limit} reachable crash states; "
                            f"raise the budget or use pairwise checking"
                        )
                    yield frozenset(self.key_of(i) for i in included)
                    continue
                stack.append((_INCLUDE, idx))
                stack.append((_VISIT, idx + 1))
            elif action == _INCLUDE:
                if self.ancestors[idx] <= included:
                    included.add(idx)
                    stack.append((_DROP, idx))
                    stack.append((_VISIT, idx + 1))
            else:
                included.remove(idx)

    def count_states(self, limit: int = DEFAULT_STATE_LIMIT) -> int:
        """Number of reachable crash states (bounded by ``limit``)."""
        return sum(1 for _ in self.reachable_states(limit))
