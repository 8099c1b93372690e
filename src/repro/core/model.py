"""Formal strand persistency model (Section III, Equations 1-4).

This module turns an executed :class:`~repro.core.ops.Program` into a
**persist DAG**: a partial order over its persistent stores such that the
possible post-crash PM images are exactly the *consistent cuts*
(down-closed subsets) of the DAG applied over the durable baseline.

The ordering rules implemented:

* **Eq. 1 (intra-strand persist barriers)** — two PM operations on the
  same thread are ordered when a persist barrier lies between them in
  volatile memory order *and* no ``NewStrand`` intervenes.  Every store is
  labelled with a ``(strand instance, sub-epoch)`` pair: ``NewStrand``
  begins a new strand instance, a persist barrier increments the
  sub-epoch within the instance.  Earlier sub-epochs of the same instance
  are ordered before later ones.
* **Eq. 2 (JoinStrand)** — orders every prior PM operation of the thread
  before every subsequent one (``js_epoch`` labels).
* **Eq. 3 (strong persist atomicity)** — byte-conflicting stores anywhere
  in the program are ordered by visibility order.
* **Eq. 4 (transitivity)** — automatic: consistent cuts are closed under
  the *direct-predecessor* relation, whose transitive closure is the
  full PMO.

**Durability transfer across synchronization.**  ``JoinStrand``,
``SFENCE`` and ``DFENCE`` are *synchronous*: the issuing core does not
proceed until prior persists are durable.  If a thread then releases a
lock and another thread acquires it, every persist drained before the
release is durable before any instruction of the acquirer's critical
section executes — so no crash can expose the acquirer's persists without
them.  The DAG encodes this with virtual **drain** nodes (all of the
thread's stores so far precede the drain) and **acquire** nodes (the
releasing thread's last drain precedes the acquire, and the acquirer's
subsequent stores succeed it).  Without this rule, undo-log recovery
would be wrongly declared broken on cross-thread hand-offs that real
hardware makes safe.

Intel SFENCE and HOPS ofence/dfence map onto the same formalism: SFENCE
and ofence act as persist barriers on a single implicit strand, SFENCE
and dfence are additionally synchronous drains.  One checker therefore
validates every design in the evaluation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.ops import CACHE_LINE, Op, OpKind, Program

#: op kinds that synchronously drain all prior persists of the thread.
SYNC_DRAIN_KINDS = frozenset({OpKind.JOIN_STRAND, OpKind.SFENCE, OpKind.DFENCE})

#: node kinds, one byte per node in :attr:`PersistDag.kinds`.  Only
#: ``STORE`` nodes write PM; the virtual ``DRAIN`` and ``ACQUIRE`` nodes
#: described in the module docs take part in cut closure only.
STORE, DRAIN, ACQUIRE = 0, 1, 2


@dataclass(frozen=True)
class StrandLabel:
    """Strand coordinates of one op (exposed for tests/teaching)."""

    strand: int
    sub_epoch: int
    js_epoch: int


def annotate_thread(ops: Sequence[Op]) -> List[Optional[StrandLabel]]:
    """Label each op of a thread with its strand coordinates.

    ``NewStrand`` starts a fresh strand instance (resetting the
    sub-epoch), a persist barrier (or SFENCE/ofence) bumps the sub-epoch,
    and ``JoinStrand`` (or SFENCE/dfence) bumps the join epoch.  Non-PM
    ops yield ``None``.
    """
    labels: List[Optional[StrandLabel]] = []
    strand = 0
    sub_epoch = 0
    js_epoch = 0
    next_strand = 1
    for op in ops:
        if op.kind is OpKind.NEW_STRAND:
            strand = next_strand
            next_strand += 1
            sub_epoch = 0
            labels.append(None)
        elif op.kind in (OpKind.PERSIST_BARRIER, OpKind.OFENCE):
            sub_epoch += 1
            labels.append(None)
        elif op.kind in SYNC_DRAIN_KINDS:
            js_epoch += 1
            sub_epoch += 1
            labels.append(None)
        elif op.kind in (OpKind.STORE, OpKind.LOAD):
            labels.append(StrandLabel(strand, sub_epoch, js_epoch))
        else:
            labels.append(None)
    return labels


class PersistDag:
    """Persist DAG of a program: stores + virtual sync nodes, edges = PMO.

    Nodes are indices into flat arrays.  Node ``i`` has the kind byte
    ``kinds[i]`` (:data:`STORE`, :data:`DRAIN` or :data:`ACQUIRE`), the
    op ``ops[i]`` it stands for (the store, the draining op or the lock
    acquire) and the direct predecessors :meth:`preds` ``(i)``: the slice
    ``pred[pred_start[i]:pred_start[i + 1]]`` of one ``array('i')``,
    ascending and free of duplicates.

    **Forward-edge invariant.**  Nodes are numbered in visibility order
    and every edge points to a lower index: ``p < i`` for each ``p`` in
    ``preds(i)``.  Consumers rely on it to stay linear: every closure
    over the DAG is one ascending pass (:meth:`upward_close`,
    :func:`repro.chaos.image._satisfaction`,
    ``repro.analysis.modelcheck._store_ancestors``),
    :meth:`downward_close` stops at an index floor, and
    :meth:`ordered_before` never walks below its source node.  The DAG,
    like the sealed program it reads, is immutable, so its op indexes
    (:attr:`node_of`, :attr:`node_of_gseq`) are built on first read.
    """

    def __init__(self, program: Program) -> None:
        program.seal()
        self.program = program
        self.kinds = bytearray()
        self.ops: List[Op] = []
        self.pred = array("i")
        self.pred_start = array("i", [0])
        self._build()

    def _build(self) -> None:
        """One pass over the program's ops in visibility order.

        Per thread it keeps the stores of the current strand's current
        and previous non-empty sub-epoch (Eq. 1), those of the current
        and previous non-empty join epoch (Eq. 2; the current one is
        also every store since the last drain), the last drain and the
        last acquire node; per cache line, the last writer of each byte
        (Eq. 3).  An epoch ends at its barrier: ``NewStrand`` starts an
        empty strand, a persist barrier ends the sub-epoch and a
        draining op ends both.
        """
        kinds, ops, pred, pred_start = self.kinds, self.ops, self.pred, self.pred_start
        n_threads = self.program.n_threads
        strand_prev: List[List[int]] = [[] for _ in range(n_threads)]
        strand_cur: List[List[int]] = [[] for _ in range(n_threads)]
        join_prev: List[List[int]] = [[] for _ in range(n_threads)]
        join_cur: List[List[int]] = [[] for _ in range(n_threads)]
        last_drain = [-1] * n_threads
        last_sync = [-1] * n_threads
        #: cache line -> last writer of each of its bytes (-1: none yet).
        line_owner: Dict[int, List[int]] = {}
        #: lock id -> drain node of the last releasing thread (-1: none).
        lock_durable: Dict[int, int] = {}
        k_store, k_rel, k_acq = OpKind.STORE, OpKind.LOCK_REL, OpKind.LOCK_ACQ
        k_new_strand = OpKind.NEW_STRAND
        barriers = (OpKind.PERSIST_BARRIER, OpKind.OFENCE)

        for op in self.program.all_ops():
            kind = op.kind
            if kind is k_store:
                tid = op.tid
                idx = len(kinds)
                # Eqs. 1-2, then Eq. 3: the last writer of each byte.
                preds = {*strand_prev[tid], *join_prev[tid], last_sync[tid]}
                line, lo = divmod(op.addr, CACHE_LINE)
                hi = lo + op.size
                if hi > CACHE_LINE:
                    self._cross_lines(line_owner, op, idx, preds)
                elif line in line_owner:
                    owners = line_owner[line]
                    preds.update(owners[lo:hi])
                    owners[lo:hi] = [idx] * op.size
                else:
                    line_owner[line] = [-1] * lo + [idx] * op.size + [-1] * (CACHE_LINE - hi)
                preds.discard(-1)
                pred.extend(sorted(preds))
                pred_start.append(len(pred))
                kinds.append(STORE)
                ops.append(op)
                strand_cur[tid].append(idx)
                join_cur[tid].append(idx)
            elif kind in barriers:
                tid = op.tid
                if strand_cur[tid]:
                    strand_prev[tid], strand_cur[tid] = strand_cur[tid], []
            elif kind is k_new_strand:
                strand_prev[op.tid], strand_cur[op.tid] = [], []
            elif kind in SYNC_DRAIN_KINDS:
                tid = op.tid
                stores = join_cur[tid]
                preds = {*stores, last_drain[tid], last_sync[tid]}
                preds.discard(-1)
                pred.extend(sorted(preds))
                pred_start.append(len(pred))
                last_drain[tid] = len(kinds)
                kinds.append(DRAIN)
                ops.append(op)
                if stores:
                    join_prev[tid], join_cur[tid] = stores, []
                if strand_cur[tid]:
                    strand_prev[tid], strand_cur[tid] = strand_cur[tid], []
            elif kind is k_rel:
                lock_durable[op.lock_id] = last_drain[op.tid]
            elif kind is k_acq:
                durable = lock_durable.get(op.lock_id, -1)
                if durable >= 0:
                    tid = op.tid
                    sync = last_sync[tid]
                    pred.extend(sorted((durable, sync)) if sync >= 0 else (durable,))
                    pred_start.append(len(pred))
                    last_sync[tid] = len(kinds)
                    kinds.append(ACQUIRE)
                    ops.append(op)

    @staticmethod
    def _cross_lines(
        line_owner: Dict[int, List[int]], op: Op, idx: int, preds: Set[int]
    ) -> None:
        """Eq. 3 for a store that crosses a line: add the previous writer
        of every byte to ``preds``, one line at a time."""
        addr, end = op.addr, op.addr + op.size
        while addr < end:
            line, lo = divmod(addr, CACHE_LINE)
            hi = min(end - line * CACHE_LINE, CACHE_LINE)
            owners = line_owner.get(line)
            if owners is None:
                owners = line_owner[line] = [-1] * CACHE_LINE
            preds.update(owners[lo:hi])
            owners[lo:hi] = [idx] * (hi - lo)
            addr += hi - lo

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    def preds(self, idx: int) -> array:
        """Direct predecessors of node ``idx``, ascending."""
        return self.pred[self.pred_start[idx] : self.pred_start[idx + 1]]

    def edges(self) -> List[Tuple[int, int]]:
        """All direct-predecessor edges as ``(pred, succ)`` pairs."""
        pred, start = self.pred, self.pred_start
        return [(p, i) for i in range(len(self)) for p in pred[start[i] : start[i + 1]]]

    @cached_property
    def node_of(self) -> Dict[Tuple[int, int], int]:
        """``(tid, seq)`` of each store op -> its node index, so consumers
        holding an :class:`~repro.core.ops.Op` (e.g. the static analyzer)
        can locate its DAG node without a linear scan."""
        kinds = self.kinds
        return {(op.tid, op.seq): i for i, op in enumerate(self.ops) if kinds[i] == STORE}

    @cached_property
    def node_of_gseq(self) -> Dict[int, int]:
        """Global visibility sequence of each store op -> its node index."""
        kinds = self.kinds
        return {op.gseq: i for i, op in enumerate(self.ops) if kinds[i] == STORE}

    def ordered_before_ops(self, a: Op, b: Op) -> bool:
        """True when store ``a`` is PMO-before store ``b`` (Eqs. 1-4)."""
        na, nb = self.node_of.get((a.tid, a.seq)), self.node_of.get((b.tid, b.seq))
        if na is None or nb is None:
            return False
        return self.ordered_before(na, nb)

    def ordered_before(self, a: int, b: int) -> bool:
        """True when node ``a`` is (transitively) PMO-before node ``b``.

        Edges point to lower indices, so a path from ``b`` down to ``a``
        only visits nodes numbered above ``a``; the walk skips the rest.
        """
        if a >= b:
            return False
        pred, start = self.pred, self.pred_start
        seen: Set[int] = set()
        frontier = [b]
        while frontier:
            cur = frontier.pop()
            hi = start[cur + 1]
            lo = bisect_left(pred, a, start[cur], hi)
            if lo < hi and pred[lo] == a:
                return True
            for p in pred[lo:hi]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return False

    def is_consistent_cut(self, cut: Iterable[int]) -> bool:
        """True when ``cut`` (node indices) is down-closed under PMO."""
        included = set(cut)
        return all(included.issuperset(self.preds(idx)) for idx in included)

    def downward_close(self, seed: Iterable[int], floor: int = 0) -> Set[int]:
        """Smallest consistent cut containing ``seed``, restricted to the
        nodes numbered ``floor`` or above.

        Exact for any floor: edges point to lower indices, so every path
        from a seed to a node at or above ``floor`` stays there, and the
        walk never needs to descend below it.
        """
        pred, start = self.pred, self.pred_start
        closed: Set[int] = set()
        frontier = [idx for idx in seed if idx >= floor]
        while frontier:
            idx = frontier.pop()
            if idx in closed:
                continue
            closed.add(idx)
            hi = start[idx + 1]
            frontier.extend(pred[bisect_left(pred, floor, start[idx], hi) : hi])
        return closed

    def upward_close(self, seed: Iterable[int]) -> Set[int]:
        """Smallest up-closed set containing ``seed``: every node with a
        seed among its (transitive) predecessors.

        Edges point to lower indices, so one ascending pass from the
        lowest seed settles it: a node is in the set when it is a seed
        or when any of its predecessors is.
        """
        closed = set(seed)
        if not closed:
            return closed
        pred, start = self.pred, self.pred_start
        lowest = min(closed)
        lo = start[lowest + 1]
        for idx in range(lowest + 1, len(self)):
            hi = start[idx + 1]
            if lo < hi and pred[hi - 1] >= lowest and not closed.isdisjoint(pred[lo:hi]):
                closed.add(idx)
            lo = hi
        return closed

    def find(self, label: str) -> int:
        """The unique node whose op is labelled ``label`` (for tests)."""
        matches = [i for i, op in enumerate(self.ops) if op.label == label]
        if len(matches) != 1:
            raise KeyError(f"label {label!r} matched {len(matches)} nodes")
        return matches[0]
