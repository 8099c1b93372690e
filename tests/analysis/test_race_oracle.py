"""The persist-race pass against the scan it replaced.

``analysis.checks._check_persist_races`` keeps each thread's accesses
to a cache line in visibility order and bisects past the ones
happens-before orders.  The oracle below is the pass as it was: every
access compared with every earlier access to its cache line.  Both must
produce the same finalized diagnostics in the same order.  Order is the
trap: ``AnalysisReport.finalize`` sorts stably, so two races anchored on
one op with one rule keep the order the pass reported them in.
"""

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import pytest

from repro.analysis.checks import _check_persist_races
from repro.analysis.diagnostics import PERSIST_RACE, AnalysisReport, Diagnostic, Severity
from repro.core.ops import OpKind, Program, lines_of
from repro.harness.experiment import default_config
from repro.workloads import WORKLOADS, generate_for_design


@dataclass
class _Access:
    op: object
    own_clock: int
    lockset: frozenset


def oracle_persist_races(program: Program, report: AnalysisReport) -> None:
    nt = program.n_threads
    vc: List[List[int]] = [[0] * nt for _ in range(nt)]
    lock_vc: Dict[int, List[int]] = {}
    held: List[Set[int]] = [set() for _ in range(nt)]
    by_line: Dict[int, List[_Access]] = {}
    seen: Set[Tuple[int, int, int, str]] = set()

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
            acc = _Access(op, vc[t][t], frozenset(held[t]))
            for line in lines_of(op.addr, op.size):
                for prev_acc in by_line.get(line, ()):
                    _oracle_maybe_race(prev_acc, acc, vc, line, seen, report)
                by_line.setdefault(line, []).append(acc)


def _oracle_maybe_race(prev, cur, vc, line, seen, report) -> None:
    a, b = prev.op, cur.op
    if a.tid == b.tid:
        return
    if a.kind is not OpKind.STORE and b.kind is not OpKind.STORE:
        return
    if prev.own_clock <= vc[b.tid][a.tid]:
        return
    if prev.lockset & cur.lockset:
        return
    overlap = a.addr < b.addr + b.size and b.addr < a.addr + a.size
    rule = "conflicting-access" if overlap else "false-sharing"
    key = (line, min(a.tid, b.tid), max(a.tid, b.tid), rule)
    if key in seen:
        return
    seen.add(key)
    if overlap:
        message = (
            f"unsynchronized conflicting persistent access with "
            f"t{a.tid}:{a.seq} ({a.kind.name} 0x{a.addr:x}): no common "
            f"lock and no happens-before edge orders the two, so the "
            f"persist order of line 0x{line * 64:x} is undefined"
        )
        severity = Severity.ERROR
    else:
        message = (
            f"persistent false sharing with t{a.tid}:{a.seq} on line "
            f"0x{line * 64:x}: disjoint bytes, but unsynchronized "
            f"same-line persists serialize on the media and couple the "
            f"threads' persist ordering"
        )
        severity = Severity.ADVICE
    report.add(Diagnostic.at(b, PERSIST_RACE, rule, severity, message))


def _finalized(pass_fn, program: Program) -> List[dict]:
    report = AnalysisReport(design="non-atomic")
    pass_fn(program, report)
    return [d.to_json() for d in report.finalize().diagnostics]


def _same_anchor_ties(findings: List[dict]) -> int:
    """Findings whose whole finalize sort key equals the previous one's."""
    keys = [(d["tid"], d["seq"], d["gseq"], d["check"], d["rule"]) for d in findings]
    return sum(1 for a, b in zip(keys, keys[1:]) if a == b)


CASES = [
    (bench, model, 16) for bench in sorted(WORKLOADS) for model in ("txn", "atlas", "sfr")
] + [("hashmap", model, 48) for model in ("txn", "atlas")]


@pytest.mark.parametrize("bench,model,ops", CASES)
def test_race_pass_matches_the_full_scan(bench, model, ops):
    program = generate_for_design(
        WORKLOADS[bench], default_config(ops), "non-atomic", model
    ).program
    assert _finalized(_check_persist_races, program) == _finalized(
        oracle_persist_races, program
    )


def test_the_cases_contain_same_anchor_ties():
    """The comparison has teeth only if some op anchors two races of one
    rule, so that report order survives ``finalize``."""
    program = generate_for_design(
        WORKLOADS["hashmap"], default_config(48), "non-atomic", "txn"
    ).program
    assert _same_anchor_ties(_finalized(oracle_persist_races, program)) > 0
