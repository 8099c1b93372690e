"""The five static checks of the persist-order analyzer.

:func:`analyze` consumes a compiled :class:`~repro.core.ops.Program` —
no timing simulation, no cut enumeration — and reports structured
diagnostics.  Ordering obligations are decided by the formal strand
persistency model: the trace is projected onto the primitives the target
design honours (:mod:`repro.analysis.semantics`) and a
:class:`~repro.core.model.PersistDag` is built over the projection, so
"is this persist ordered before its commit marker?" is answered by
Equations 1-4 rather than by pattern matching.

Checks (diagnostic class in parentheses):

1. **unflushed persist** (``unflushed-persist``) — a persistent STORE
   with no durably-ordering path (CLWB + the design's barrier/drain
   vocabulary) to its commit marker, or never written back at all.
2. **strand misuse** (``strand-misuse``) — a ``NewStrand`` that discards
   a persist barrier's ordering edge, a ``JoinStrand`` with nothing to
   join, and barrier-free undo-log/update dependencies.
3. **persistent data races** (``persist-race``) — a happens-before +
   lockset detector over ``LOCK_ACQ``/``LOCK_REL`` for conflicting
   same-cache-line persistent accesses across threads.
4. **over-serialization lint** (``over-serialization``) — redundant
   CLWBs, back-to-back fences, empty persist barriers; advisory only,
   with an estimate of the wasted orderings (the paper's motivation).
5. **torn-write hazard** (``torn-write``) — multi-cache-line stores with
   no failure-atomic region guarding them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (
    OVER_SERIALIZATION,
    PERSIST_RACE,
    STRAND_MISUSE,
    TORN_WRITE,
    UNFLUSHED,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.semantics import (
    DesignSemantics,
    EffectiveProgram,
    effective_program,
    semantics_for,
)
from repro.core.model import PersistDag
from repro.core.ops import Op, OpKind, Program, lines_of
from repro.lang.runtime import COMMIT_MARKER_LABEL

#: undo-log entry label the runtime stamps on logged old values (Fig. 5).
UNDO_LOG_LABEL = "log:store"
#: in-place update label the runtime stamps on the paired store.
UPDATE_LABEL = "update"


def analyze(
    program: Program, design: str = "strandweaver", dag: Optional[PersistDag] = None
) -> AnalysisReport:
    """Statically lint ``program`` for persistency bugs on ``design``.

    ``dag`` may pass in a persist DAG the caller already built over
    ``program`` (the crash harness does).  It is used only when it was
    built over this very program and the design honours every fence the
    program issues, so that the projection is the program itself;
    otherwise the DAG is rebuilt over the projection.
    """
    sem = semantics_for(design)
    eff = effective_program(program, sem)
    if dag is None or dag.program is not program or eff.n_dropped:
        dag = PersistDag(eff)
    report = AnalysisReport(
        design=design,
        n_ops=sum(len(t) for t in program.threads),
        n_stores=sum(
            1 for t in program.threads for op in t.ops if op.kind is OpKind.STORE
        ),
    )
    _check_unflushed(eff, dag, sem, report)
    _check_strand_misuse(eff, dag, sem, report)
    _check_persist_races(program, report)
    _check_over_serialization(eff, sem, report)
    _check_torn_writes(program, report)
    return report.finalize()


# ----------------------------------------------------------------------
# check 1: unflushed / unordered persists
# ----------------------------------------------------------------------


def _check_unflushed(
    eff: EffectiveProgram, dag: PersistDag, sem: DesignSemantics, report: AnalysisReport
) -> None:
    for tid in range(eff.n_threads):
        ops = eff.thread_ops(tid)
        stores = [op for op in ops if op.kind is OpKind.STORE]
        if not stores:
            continue
        markers = [op for op in stores if op.label == COMMIT_MARKER_LABEL]
        marker_seqs = [m.seq for m in markers]
        #: cache-line -> sorted seqs of CLWBs covering it on this thread.
        clwb_seqs: Dict[int, List[int]] = {}
        for op in ops:
            if op.kind is OpKind.CLWB:
                for line in lines_of(op.addr, op.size):
                    clwb_seqs.setdefault(line, []).append(op.seq)
        # Each store's anchor is the first commit marker after it.  A
        # marker's ancestor walk need not go below the lowest node
        # anchored on it: edges point to lower indices, so the walk
        # restricted to that floor finds every anchored ancestor.
        anchors = [bisect_right(marker_seqs, op.seq) for op in stores]
        nodes = [dag.node_of.get((op.tid, op.seq)) for op in stores]
        floors: Dict[int, int] = {}
        for mi, node in zip(anchors, nodes):
            if mi < len(markers) and node is not None:
                floors[mi] = min(node, floors.get(mi, node))
        marker_ancestors: Dict[int, Set[int]] = {}
        for mi, floor in floors.items():
            m_node = dag.node_of.get((markers[mi].tid, markers[mi].seq))
            if m_node is not None:
                marker_ancestors[mi] = dag.downward_close([m_node], floor)
        for op, mi, node in zip(stores, anchors, nodes):
            anchor = markers[mi] if mi < len(markers) else None
            _check_flush_coverage(op, anchor, clwb_seqs, report)
            if anchor is None:
                continue
            if node is None or node not in marker_ancestors.get(mi, ()):
                vocab = (
                    ", ".join(sorted(k.name for k in sem.barrier_kinds | sem.drain_kinds))
                    or "none: this design provides no ordering primitives"
                )
                report.add(
                    Diagnostic.at(
                        op,
                        UNFLUSHED,
                        "no-path-to-marker",
                        Severity.ERROR,
                        f"persist has no ordering path to its commit marker "
                        f"t{anchor.tid}:{anchor.seq} under {sem.design} "
                        f"(ordering vocabulary: {vocab}); a crash can expose "
                        f"the commit without this update",
                    )
                )


def _check_flush_coverage(
    op: Op,
    anchor: Optional[Op],
    clwb_seqs: Dict[int, List[int]],
    report: AnalysisReport,
) -> None:
    limit = anchor.seq if anchor is not None else None
    for line in lines_of(op.addr, op.size):
        covered = any(
            seq > op.seq and (limit is None or seq < limit)
            for seq in clwb_seqs.get(line, ())
        )
        if not covered:
            where = (
                f"before its commit marker t{anchor.tid}:{anchor.seq}"
                if anchor is not None
                else "before the end of the program"
            )
            report.add(
                Diagnostic.at(
                    op,
                    UNFLUSHED,
                    "never-flushed",
                    Severity.ERROR,
                    f"store to line 0x{line * 64:x} is never written back "
                    f"(no covering CLWB) {where}; the dirty line is lost on "
                    f"power failure",
                )
            )
            return


# ----------------------------------------------------------------------
# check 2: strand misuse
# ----------------------------------------------------------------------


@dataclass
class _StrandScan:
    """Per-thread scan state for the structural strand rules."""

    strand_stores: int = 0  #: stores on the current strand instance
    last_pb: Optional[Op] = None
    stores_since_pb: int = 0
    pb_pred_count: int = 0
    ns_since_join: bool = False
    stores_since_join: int = 0


def _check_strand_misuse(
    eff: EffectiveProgram, dag: PersistDag, sem: DesignSemantics, report: AnalysisReport
) -> None:
    for tid in range(eff.n_threads):
        ops = eff.thread_ops(tid)
        if sem.has_strands:
            _scan_strand_structure(ops, report)
        _check_unordered_pairs(ops, dag, sem, report)


def _scan_strand_structure(ops: Sequence[Op], report: AnalysisReport) -> None:
    st = _StrandScan()
    for op in ops:
        kind = op.kind
        if kind is OpKind.STORE:
            st.strand_stores += 1
            st.stores_since_pb += 1
            st.stores_since_join += 1
        elif kind is OpKind.PERSIST_BARRIER:
            st.last_pb = op
            st.pb_pred_count = st.strand_stores
            st.stores_since_pb = 0
        elif kind is OpKind.NEW_STRAND:
            if st.last_pb is not None and st.stores_since_pb == 0 and st.pb_pred_count:
                report.add(
                    Diagnostic.at(
                        op,
                        STRAND_MISUSE,
                        "barrier-discarded",
                        Severity.WARNING,
                        f"NewStrand discards the ordering edge of the persist "
                        f"barrier at t{st.last_pb.tid}:{st.last_pb.seq}: no "
                        f"persist was issued between them, so later accesses "
                        f"that depended on that barrier drain unordered",
                    )
                )
            st.strand_stores = 0
            st.last_pb = None
            st.ns_since_join = True
        elif kind is OpKind.JOIN_STRAND:
            if not st.ns_since_join and st.stores_since_join == 0:
                report.add(
                    Diagnostic.at(
                        op,
                        STRAND_MISUSE,
                        "join-nothing",
                        Severity.WARNING,
                        "JoinStrand with no open strand: no NewStrand and no "
                        "persist since the previous join, so there is nothing "
                        "to merge or drain",
                    )
                )
            st.strand_stores = 0
            st.last_pb = None
            st.ns_since_join = False
            st.stores_since_join = 0


def _check_unordered_pairs(
    ops: Sequence[Op], dag: PersistDag, sem: DesignSemantics, report: AnalysisReport
) -> None:
    """Undo-log entries must be PMO-before their in-place updates."""
    pending: List[Op] = []
    for op in ops:
        if op.kind is not OpKind.STORE:
            continue
        if op.label == UNDO_LOG_LABEL:
            pending.append(op)
        elif op.label == UPDATE_LABEL and pending:
            log = pending.pop()
            if not dag.ordered_before_ops(log, op):
                report.add(
                    Diagnostic.at(
                        op,
                        STRAND_MISUSE,
                        "unordered-pair",
                        Severity.ERROR,
                        f"in-place update is not ordered after its undo-log "
                        f"entry t{log.tid}:{log.seq} under {sem.design}: a "
                        f"crash between the two persists leaves the update "
                        f"unrecoverable (Fig. 5 pair ordering)",
                    )
                )


# ----------------------------------------------------------------------
# check 3: persistent data races
# ----------------------------------------------------------------------


@dataclass
class _Access:
    op: Op
    own_clock: int
    lockset: frozenset
    pos: int  #: index in the program's visibility order of accesses


@dataclass
class _LineHistory:
    """One thread's accesses to one cache line, in visibility order.

    A thread's own clock rises with each of its accesses, so ``clocks``
    and ``store_clocks`` are ascending and bisectable.
    """

    accesses: List[_Access] = field(default_factory=list)
    clocks: List[int] = field(default_factory=list)
    stores: List[_Access] = field(default_factory=list)
    store_clocks: List[int] = field(default_factory=list)


#: each persist-race rule's bit in the mask of rules a (line, thread
#: pair) has reported; each is reported once.
_RULE_BITS = {"conflicting-access": 1, "false-sharing": 2}
_ALL_RULES = sum(_RULE_BITS.values())


def _check_persist_races(program: Program, report: AnalysisReport) -> None:
    """Report the first race of each (line, thread pair, rule).

    An earlier access of thread ``o`` is ordered before the current
    access of thread ``t`` iff its own clock is at most ``vc[t][o]``, so
    the unordered ones are a suffix of ``o``'s history on the line,
    found by bisection; a LOAD scans only ``o``'s stores, and a thread
    pair whose rules on the line were both reported is skipped.  The
    races one access finds on one line are reported in the visibility
    order of the earlier access, the order a scan of every earlier
    access reports them in.
    """
    nt = program.n_threads
    vc: List[List[int]] = [[0] * nt for _ in range(nt)]
    lock_vc: Dict[int, List[int]] = {}
    held: List[Set[int]] = [set() for _ in range(nt)]
    #: line -> tid -> that thread's history on the line.
    by_line: Dict[int, Dict[int, _LineHistory]] = {}
    #: (line, lower tid, higher tid) -> mask of the rules reported.
    seen: Dict[Tuple[int, int, int], int] = {}
    pos = 0

    for op in program.all_ops():
        t = op.tid
        kind = op.kind
        if kind is OpKind.LOCK_ACQ:
            held[t].add(op.lock_id)
            prev = lock_vc.get(op.lock_id)
            if prev is not None:
                vc[t] = [max(a, b) for a, b in zip(vc[t], prev)]
        elif kind is OpKind.LOCK_REL:
            held[t].discard(op.lock_id)
            vc[t][t] += 1
            lock_vc[op.lock_id] = list(vc[t])
        elif kind in (OpKind.STORE, OpKind.LOAD):
            vc[t][t] += 1
            acc = _Access(op, vc[t][t], frozenset(held[t]), pos)
            pos += 1
            is_store = kind is OpKind.STORE
            for line in lines_of(op.addr, op.size):
                histories = by_line.get(line)
                if histories is None:
                    histories = by_line[line] = {}
                found: List[Tuple[_Access, str]] = []
                for other, hist in histories.items():
                    if other == t:
                        continue
                    pair = (line, min(t, other), max(t, other))
                    reported = seen.get(pair, 0)
                    if reported == _ALL_RULES:
                        continue
                    if is_store:
                        earlier, clocks = hist.accesses, hist.clocks
                    else:
                        earlier, clocks = hist.stores, hist.store_clocks
                    for i in range(bisect_right(clocks, vc[t][other]), len(earlier)):
                        rule = _race_rule(earlier[i], acc)
                        if rule is None or reported & _RULE_BITS[rule]:
                            continue
                        reported |= _RULE_BITS[rule]
                        seen[pair] = reported
                        found.append((earlier[i], rule))
                        if reported == _ALL_RULES:
                            break
                found.sort(key=lambda race: race[0].pos)
                for earlier_acc, rule in found:
                    _report_race(earlier_acc, acc, line, rule, report)
                hist = histories.get(t)
                if hist is None:
                    hist = histories[t] = _LineHistory()
                hist.accesses.append(acc)
                hist.clocks.append(acc.own_clock)
                if is_store:
                    hist.stores.append(acc)
                    hist.store_clocks.append(acc.own_clock)


def _race_rule(prev: _Access, cur: _Access) -> Optional[str]:
    """The rule an unordered cross-thread pair with a store breaks, or
    None when a common lock orders the two."""
    if prev.lockset & cur.lockset:
        return None
    a, b = prev.op, cur.op
    overlap = a.addr < b.addr + b.size and b.addr < a.addr + a.size
    return "conflicting-access" if overlap else "false-sharing"


def _report_race(
    prev: _Access, cur: _Access, line: int, rule: str, report: AnalysisReport
) -> None:
    a, b = prev.op, cur.op
    if rule == "conflicting-access":
        report.add(
            Diagnostic.at(
                b,
                PERSIST_RACE,
                rule,
                Severity.ERROR,
                f"unsynchronized conflicting persistent access with "
                f"t{a.tid}:{a.seq} ({a.kind.name} 0x{a.addr:x}): no common "
                f"lock and no happens-before edge orders the two, so the "
                f"persist order of line 0x{line * 64:x} is undefined",
            )
        )
    else:
        report.add(
            Diagnostic.at(
                b,
                PERSIST_RACE,
                rule,
                Severity.ADVICE,
                f"persistent false sharing with t{a.tid}:{a.seq} on line "
                f"0x{line * 64:x}: disjoint bytes, but unsynchronized "
                f"same-line persists serialize on the media and couple the "
                f"threads' persist ordering",
            )
        )


# ----------------------------------------------------------------------
# check 4: over-serialization lint (advisory)
# ----------------------------------------------------------------------


@dataclass
class _SerialScan:
    clean_lines: Set[int] = field(default_factory=set)
    touched_lines: Set[int] = field(default_factory=set)
    last_fence: Optional[Op] = None
    persist_since_fence: bool = True
    stores_since_barrier: int = 0


def _check_over_serialization(
    eff: EffectiveProgram, sem: DesignSemantics, report: AnalysisReport
) -> None:
    fence_kinds = sem.barrier_kinds | sem.drain_kinds
    pure_barriers = sem.barrier_kinds - sem.drain_kinds
    for tid in range(eff.n_threads):
        st = _SerialScan()
        for op in eff.thread_ops(tid):
            kind = op.kind
            if kind is OpKind.STORE:
                for line in lines_of(op.addr, op.size):
                    st.clean_lines.discard(line)
                    st.touched_lines.add(line)
                st.persist_since_fence = True
                st.stores_since_barrier += 1
            elif kind is OpKind.CLWB:
                lines = lines_of(op.addr, op.size)
                known = [ln for ln in lines if ln in st.touched_lines]
                if known and all(ln in st.clean_lines for ln in known):
                    report.add(
                        Diagnostic.at(
                            op,
                            OVER_SERIALIZATION,
                            "redundant-flush",
                            Severity.ADVICE,
                            f"CLWB of line 0x{lines[0] * 64:x} is redundant: "
                            f"the line was already written back and not "
                            f"re-dirtied since",
                            estimated_waste=1,
                        )
                    )
                st.clean_lines.update(lines)
                st.touched_lines.update(lines)
                st.persist_since_fence = True
            elif kind in fence_kinds:
                if st.last_fence is not None and not st.persist_since_fence:
                    report.add(
                        Diagnostic.at(
                            op,
                            OVER_SERIALIZATION,
                            "back-to-back-fence",
                            Severity.ADVICE,
                            f"{kind.name} immediately follows the "
                            f"{st.last_fence.kind.name} at "
                            f"t{st.last_fence.tid}:{st.last_fence.seq} with no "
                            f"persist between them: it orders nothing",
                            estimated_waste=1,
                        )
                    )
                if kind in pure_barriers and st.stores_since_barrier == 0:
                    report.add(
                        Diagnostic.at(
                            op,
                            OVER_SERIALIZATION,
                            "empty-barrier",
                            Severity.ADVICE,
                            f"{kind.name} with no persist behind it on the "
                            f"current strand: the barrier creates no ordering "
                            f"edge",
                            estimated_waste=1,
                        )
                    )
                st.last_fence = op
                st.persist_since_fence = False
                st.stores_since_barrier = 0
            elif kind is OpKind.NEW_STRAND:
                st.stores_since_barrier = 0


# ----------------------------------------------------------------------
# check 5: torn-write hazards
# ----------------------------------------------------------------------


def _check_torn_writes(program: Program, report: AnalysisReport) -> None:
    for trace in program.threads:
        for op in trace.ops:
            if op.kind is not OpKind.STORE:
                continue
            lines = lines_of(op.addr, op.size)
            if len(lines) > 1 and op.region < 0:
                report.add(
                    Diagnostic.at(
                        op,
                        TORN_WRITE,
                        "multi-line-store",
                        Severity.WARNING,
                        f"{op.size}-byte store spans {len(lines)} cache lines "
                        f"outside any failure-atomic region: PM persists at "
                        f"line granularity, so a crash between the line "
                        f"persists tears the write",
                    )
                )
