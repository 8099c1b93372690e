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

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.ops import CACHE_LINE, Op, OpKind, Program

#: op kinds that synchronously drain all prior persists of the thread.
SYNC_DRAIN_KINDS = frozenset({OpKind.JOIN_STRAND, OpKind.SFENCE, OpKind.DFENCE})


@dataclass
class PersistNode:
    """One node of the persist DAG.

    ``kind`` is ``"store"`` for real persists, or ``"drain"``/``"acquire"``
    for the virtual synchronization nodes described in the module docs.
    Virtual nodes participate in cut closure but write nothing to PM.
    """

    idx: int
    kind: str
    op: Optional[Op]
    tid: int
    strand: int = 0
    sub_epoch: int = 0
    js_epoch: int = 0
    preds: List[int] = field(default_factory=list)

    @property
    def is_store(self) -> bool:
        return self.kind == "store"


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


class _ThreadTracker:
    """Per-thread state while building the DAG in visibility order."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.strand = 0
        self.next_strand = 1
        self.sub_epoch = 0
        self.js_epoch = 0
        # (strand) -> (previous non-empty sub-epoch nodes, current epoch id,
        #              current epoch nodes)
        self.strand_groups: Dict[int, Tuple[List[int], int, List[int]]] = {}
        self.prev_js_nodes: List[int] = []
        self.cur_js_id = 0
        self.cur_js_nodes: List[int] = []
        self.stores_since_drain: List[int] = []
        self.last_drain: Optional[int] = None
        self.last_sync: Optional[int] = None


class PersistDag:
    """Persist DAG of a program: stores + virtual sync nodes, edges = PMO.

    **Forward-edge invariant.**  Nodes are numbered in visibility order
    and every edge points to a lower index: ``p < n.idx`` for each ``p``
    in ``n.preds``.  Consumers rely on it to stay linear —
    :func:`repro.chaos.image._satisfaction` and
    ``repro.analysis.modelcheck._store_ancestors`` settle each node in
    one ascending pass, :meth:`downward_close` stops at an index floor,
    and :meth:`ordered_before` never walks below its source node.  The
    DAG is immutable once built, so its derived indexes
    (:attr:`successors`, :attr:`node_of_gseq`) are computed once.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.nodes: List[PersistNode] = []
        #: ``(tid, seq)`` of each store op -> its node index, so consumers
        #: holding an :class:`~repro.core.ops.Op` (e.g. the static
        #: analyzer) can locate its DAG node without a linear scan.
        self.node_of: Dict[Tuple[int, int], int] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _new_node(self, kind: str, op: Optional[Op], tid: int, **labels) -> PersistNode:
        node = PersistNode(len(self.nodes), kind, op, tid, **labels)
        self.nodes.append(node)
        if kind == "store" and op is not None:
            self.node_of[(op.tid, op.seq)] = node.idx
        return node

    def _build(self) -> None:
        trackers = [_ThreadTracker(t) for t in range(self.program.n_threads)]
        #: cache line -> last writer of each of its bytes (-1: none yet).
        line_owner: Dict[int, List[int]] = {}
        #: lock id -> durable-drain node of the last releasing thread.
        lock_durable: Dict[int, Optional[int]] = {}

        for op in self.program.all_ops():
            tr = trackers[op.tid]
            kind = op.kind

            if kind is OpKind.NEW_STRAND:
                tr.strand = tr.next_strand
                tr.next_strand += 1
                tr.sub_epoch = 0
            elif kind is OpKind.PERSIST_BARRIER or kind is OpKind.OFENCE:
                tr.sub_epoch += 1
            elif kind in SYNC_DRAIN_KINDS:
                tr.sub_epoch += 1
                tr.js_epoch += 1
                drain = self._new_node("drain", op, op.tid)
                drain.preds.extend(tr.stores_since_drain)
                if tr.last_drain is not None:
                    drain.preds.append(tr.last_drain)
                if tr.last_sync is not None:
                    drain.preds.append(tr.last_sync)
                tr.stores_since_drain = []
                tr.last_drain = drain.idx
            elif kind is OpKind.LOCK_REL:
                lock_durable[op.lock_id] = tr.last_drain
            elif kind is OpKind.LOCK_ACQ:
                durable = lock_durable.get(op.lock_id)
                if durable is not None:
                    acq = self._new_node("acquire", op, op.tid)
                    acq.preds.append(durable)
                    if tr.last_sync is not None:
                        acq.preds.append(tr.last_sync)
                    tr.last_sync = acq.idx
            elif kind is OpKind.STORE:
                node = self._new_node(
                    "store",
                    op,
                    op.tid,
                    strand=tr.strand,
                    sub_epoch=tr.sub_epoch,
                    js_epoch=tr.js_epoch,
                )
                self._link_strand(tr, node)
                self._link_js(tr, node)
                self._link_spa(line_owner, node)
                if tr.last_sync is not None:
                    node.preds.append(tr.last_sync)
                tr.stores_since_drain.append(node.idx)

        for node in self.nodes:
            node.preds = sorted(set(node.preds))

    def _link_strand(self, tr: _ThreadTracker, node: PersistNode) -> None:
        """Eq. 1: nearest non-empty earlier sub-epoch of the same strand."""
        prev_nodes, epoch_id, cur_nodes = tr.strand_groups.get(
            node.strand, ([], node.sub_epoch, [])
        )
        if node.sub_epoch != epoch_id:
            if cur_nodes:
                prev_nodes = cur_nodes
            cur_nodes = []
            epoch_id = node.sub_epoch
        node.preds.extend(prev_nodes)
        cur_nodes.append(node.idx)
        tr.strand_groups[node.strand] = (prev_nodes, epoch_id, cur_nodes)

    def _link_js(self, tr: _ThreadTracker, node: PersistNode) -> None:
        """Eq. 2: nearest non-empty earlier join epoch of the thread."""
        if node.js_epoch != tr.cur_js_id:
            if tr.cur_js_nodes:
                tr.prev_js_nodes = tr.cur_js_nodes
            tr.cur_js_nodes = []
            tr.cur_js_id = node.js_epoch
        node.preds.extend(tr.prev_js_nodes)
        tr.cur_js_nodes.append(node.idx)

    def _link_spa(self, line_owner: Dict[int, List[int]], node: PersistNode) -> None:
        """Eq. 3: previous writer of every byte this store touches.

        Owners are read and overwritten one slice per touched line.
        """
        op = node.op
        assert op is not None
        hit: Set[int] = set()
        addr, end = op.addr, op.addr + op.size
        while addr < end:
            line, lo = divmod(addr, CACHE_LINE)
            hi = min(end - line * CACHE_LINE, CACHE_LINE)
            owners = line_owner.get(line)
            if owners is None:
                owners = line_owner[line] = [-1] * CACHE_LINE
            hit.update(owners[lo:hi])
            owners[lo:hi] = [node.idx] * (hi - lo)
            addr += hi - lo
        hit.discard(-1)
        node.preds.extend(hit)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def store_nodes(self) -> List[PersistNode]:
        return [n for n in self.nodes if n.is_store]

    def predecessors(self, idx: int) -> List[int]:
        return self.nodes[idx].preds

    def edges(self) -> List[Tuple[int, int]]:
        """All direct-predecessor edges as ``(pred, succ)`` pairs."""
        return [(p, n.idx) for n in self.nodes for p in n.preds]

    @cached_property
    def successors(self) -> List[List[int]]:
        """Direct successors of every node, ascending (edges reversed)."""
        succs: List[List[int]] = [[] for _ in self.nodes]
        for node in self.nodes:
            for pred in node.preds:
                succs[pred].append(node.idx)
        return succs

    @cached_property
    def node_of_gseq(self) -> Dict[int, int]:
        """Global visibility sequence of each store op -> its node index."""
        return {n.op.gseq: n.idx for n in self.nodes if n.is_store and n.op is not None}

    def node_for_op(self, op: Op) -> Optional[PersistNode]:
        """The store node of ``op``, or ``None`` for non-store ops."""
        idx = self.node_of.get((op.tid, op.seq))
        return None if idx is None else self.nodes[idx]

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
        seen: Set[int] = set()
        frontier = [b]
        while frontier:
            cur = frontier.pop()
            for pred in self.nodes[cur].preds:
                if pred == a:
                    return True
                if pred > a and pred not in seen:
                    seen.add(pred)
                    frontier.append(pred)
        return False

    def is_consistent_cut(self, cut) -> bool:
        """True when ``cut`` (node indices) is down-closed under PMO."""
        included = set(cut)
        for idx in included:
            if any(pred not in included for pred in self.nodes[idx].preds):
                return False
        return True

    def downward_close(self, seed, floor: int = 0) -> Set[int]:
        """Smallest consistent cut containing ``seed``, restricted to the
        nodes numbered ``floor`` or above.

        Exact for any floor: edges point to lower indices, so every path
        from a seed to a node at or above ``floor`` stays there, and the
        walk never needs to descend below it.
        """
        closed: Set[int] = set()
        frontier = [idx for idx in seed if idx >= floor]
        while frontier:
            idx = frontier.pop()
            if idx in closed:
                continue
            closed.add(idx)
            preds = self.nodes[idx].preds  # ascending
            frontier.extend(preds[bisect_left(preds, floor) :])
        return closed

    def find(self, label: str) -> PersistNode:
        """Locate the unique store node labelled ``label`` (for tests)."""
        matches = [n for n in self.nodes if n.op is not None and n.op.label == label]
        if len(matches) != 1:
            raise KeyError(f"label {label!r} matched {len(matches)} nodes")
        return matches[0]
