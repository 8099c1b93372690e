"""Suggested-fix repair engine for analyzer diagnostics.

Where the linter (:mod:`repro.analysis.checks`) stops at "this trace is
broken", this module searches for the **minimal primitive edit** — a
flush or ordering-fence insertion for the safety classes, a redundant
primitive deletion for the performance class — that makes the trace
lint-clean *and* model-check-clean, and proves it by re-running both:

* ``unflushed-persist / never-flushed`` — insert a covering ``CLWB``
  directly after the orphaned store;
* ``unflushed-persist / no-path-to-marker`` — insert the weakest
  ordering primitive of the design's vocabulary (persist barrier before
  ``JoinStrand`` on strand hardware, ``OFENCE`` before ``DFENCE`` on
  HOPS, ``SFENCE`` on x86) in front of the commit marker;
* ``strand-misuse / unordered-pair`` — the same, in front of the
  in-place update;
* ``strand-misuse / barrier-discarded`` — delete the ``NewStrand`` that
  throws the barrier's edge away (keeping the persists on one strand
  restores the intended ordering);
* ``strand-misuse / join-nothing`` — delete the no-op ``JoinStrand``;
* ``over-serialization / *`` — delete the redundant flush, fence or
  barrier, then re-measure the program on the cycle-accurate simulator
  (:class:`repro.sim.machine.Machine`, Table I config) to report the
  cycles actually saved — the repairer doubles as a measurable
  performance optimizer (the paper's motivation).

``persist-race`` and ``torn-write`` findings are reported as
unrepairable: fixing them needs locks or failure-atomic regions, i.e. a
program restructure no single-primitive edit can express.

An edit is **accepted** only if re-analysis shows the targeted finding
count strictly decreased and no WARNING-or-worse rule got more findings
than before; the final program must additionally model-check clean
(declarative/operational/oracle agreement, :mod:`.modelcheck`) before
the repair is declared verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.checks import UNDO_LOG_LABEL, UPDATE_LABEL, analyze  # noqa: F401
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
from repro.analysis.semantics import DesignSemantics, semantics_for
from repro.core.ops import Op, OpKind, Program

REPAIR_SCHEMA = "repro.repair/1"

#: diagnostic classes a single-primitive edit can address.
REPAIRABLE = (UNFLUSHED, STRAND_MISUSE, OVER_SERIALIZATION)


@dataclass(frozen=True)
class Edit:
    """One primitive insertion or deletion on a thread's op stream.

    ``index`` is the per-thread position **in the program the edit was
    generated against** (edits apply sequentially: each later edit's
    coordinates refer to the already-edited trace).  An ``insert`` puts
    the new op *before* ``index``; ``index == len(thread)`` appends.
    """

    action: str  #: ``"insert"`` or ``"delete"``
    tid: int
    index: int
    kind: Optional[OpKind] = None  #: inserted op kind (insert only)
    addr: int = 0  #: CLWB target address (insert of CLWB only)
    size: int = 0  #: CLWB coverage in bytes (insert of CLWB only)
    note: str = ""  #: what this edit fixes, for humans

    def describe(self) -> str:
        if self.action == "insert":
            what = self.kind.name if self.kind is not None else "?"
            if self.kind is OpKind.CLWB:
                what += f"(0x{self.addr:x},{self.size})"
            return f"insert {what} at t{self.tid}:{self.index}"
        return f"delete op at t{self.tid}:{self.index}"

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "action": self.action,
            "tid": self.tid,
            "index": self.index,
        }
        if self.kind is not None:
            out["kind"] = self.kind.name
        if self.kind is OpKind.CLWB:
            out["addr"] = self.addr
            out["size"] = self.size
        if self.note:
            out["note"] = self.note
        return out


def _materialise(edit: Edit) -> Op:
    assert edit.kind is not None
    if edit.kind is OpKind.CLWB:
        return Op(OpKind.CLWB, addr=edit.addr, size=edit.size)
    return Op(edit.kind)


def apply_edits(program: Program, edits: Sequence[Edit]) -> Program:
    """Rebuild ``program`` with ``edits`` applied (coordinates refer to
    ``program`` as given; apply sequential edit batches one at a time)."""
    inserts: Dict[Tuple[int, int], List[Edit]] = {}
    deletes = set()
    for e in edits:
        if e.action == "insert":
            inserts.setdefault((e.tid, e.index), []).append(e)
        elif e.action == "delete":
            deletes.add((e.tid, e.index))
        else:
            raise ValueError(f"unknown edit action {e.action!r}")

    out = Program(program.n_threads)
    for op in program.all_ops():
        for e in inserts.pop((op.tid, op.seq), []):
            out.emit(e.tid, _materialise(e))
        if (op.tid, op.seq) in deletes:
            continue
        out.emit(op.tid, op)
    # End-of-thread appends (index past the last op).
    for (tid, _idx), pending in sorted(inserts.items()):
        for e in pending:
            out.emit(tid, _materialise(e))
    return out


# -- candidate generation ----------------------------------------------------


def _ordering_kinds(sem: DesignSemantics) -> List[OpKind]:
    """The design's ordering vocabulary, weakest primitive first."""
    pure = sorted(sem.barrier_kinds - sem.drain_kinds, key=lambda k: k.value)
    drains = sorted(sem.drain_kinds, key=lambda k: k.value)
    return pure + drains


def _op_at(program: Program, tid: int, seq: int) -> Op:
    return program.threads[tid].ops[seq]


def _next_marker_seq(program: Program, diag: Diagnostic) -> Optional[int]:
    from repro.lang.runtime import COMMIT_MARKER_LABEL

    for op in program.threads[diag.tid].ops:
        if (
            op.kind is OpKind.STORE
            and op.label == COMMIT_MARKER_LABEL
            and op.seq > diag.seq
        ):
            return op.seq
    return None


def _candidates(
    program: Program, diag: Diagnostic, sem: DesignSemantics
) -> List[List[Edit]]:
    """Alternative single-edit fixes for one diagnostic, best first."""
    tid, seq = diag.tid, diag.seq
    if diag.check == UNFLUSHED and diag.rule == "never-flushed":
        store = _op_at(program, tid, seq)
        return [
            [
                Edit(
                    "insert",
                    tid,
                    seq + 1,
                    kind=OpKind.CLWB,
                    addr=store.addr,
                    size=store.size,
                    note=f"write back the orphaned persist at t{tid}:{seq}",
                )
            ]
        ]
    if diag.check == UNFLUSHED and diag.rule == "no-path-to-marker":
        marker = _next_marker_seq(program, diag)
        if marker is None:
            return []
        return [
            [
                Edit(
                    "insert",
                    tid,
                    marker,
                    kind=kind,
                    note=(
                        f"order the persist at t{tid}:{seq} before its "
                        f"commit marker"
                    ),
                )
            ]
            for kind in _ordering_kinds(sem)
        ]
    if diag.check == STRAND_MISUSE and diag.rule == "unordered-pair":
        return [
            [
                Edit(
                    "insert",
                    tid,
                    seq,
                    kind=kind,
                    note="order the undo-log entry before its in-place update",
                )
            ]
            for kind in _ordering_kinds(sem)
        ]
    if diag.check == STRAND_MISUSE and diag.rule in ("barrier-discarded", "join-nothing"):
        return [
            [
                Edit(
                    "delete",
                    tid,
                    seq,
                    note=f"remove the {diag.rule} strand primitive",
                )
            ]
        ]
    if diag.check == OVER_SERIALIZATION:
        return [
            [
                Edit(
                    "delete",
                    tid,
                    seq,
                    note=f"remove the {diag.rule} primitive (pure overhead)",
                )
            ]
        ]
    return []


# -- acceptance --------------------------------------------------------------


def _rule_counts(report: AnalysisReport) -> Dict[Tuple[str, str], int]:
    out: Dict[Tuple[str, str], int] = {}
    for d in report.diagnostics:
        out[(d.check, d.rule)] = out.get((d.check, d.rule), 0) + 1
    return out


def _severity_of_rule(report: AnalysisReport, key: Tuple[str, str]) -> Severity:
    for d in report.diagnostics:
        if (d.check, d.rule) == key:
            return d.severity
    return Severity.ADVICE


def _accepted(
    before: AnalysisReport, after: AnalysisReport, target: Tuple[str, str]
) -> bool:
    """Did the edit fix the target without regressing anything that matters?

    Counts per (check, rule) are compared instead of op coordinates —
    insertions renumber every later op on the thread, so coordinates are
    not stable across an edit, but rule counts are.
    """
    b, a = _rule_counts(before), _rule_counts(after)
    if a.get(target, 0) >= b.get(target, 0):
        return False
    for key, n in a.items():
        sev = _severity_of_rule(after, key)
        if sev >= Severity.WARNING and n > b.get(key, 0):
            return False
    return True


# -- the engine --------------------------------------------------------------


@dataclass
class RepairResult:
    """Outcome of one repair search over one (program, design) pair."""

    target: str
    design: str
    edits: List[Edit] = field(default_factory=list)
    iterations: int = 0
    #: diagnostics no candidate edit could fix, with the reason.
    unrepaired: List[Dict[str, object]] = field(default_factory=list)
    lint_before: Dict[str, int] = field(default_factory=dict)
    lint_after: Dict[str, int] = field(default_factory=dict)
    lint_ok: bool = False  #: final trace has no lint ERROR
    lint_quiet: bool = False  #: final trace has no finding at all
    modelcheck_clean: bool = False  #: final trace passes the model checker
    #: simulator makespans, measured only when edits were accepted.
    cycles_before: Optional[int] = None
    cycles_after: Optional[int] = None
    program: Optional[Program] = field(default=None, repr=False)

    @property
    def cycles_saved(self) -> Optional[int]:
        if self.cycles_before is None or self.cycles_after is None:
            return None
        return self.cycles_before - self.cycles_after

    @property
    def verified(self) -> bool:
        """Lint-clean of errors, model-check-clean, nothing left behind."""
        return self.lint_ok and self.modelcheck_clean and not self.unrepaired

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": REPAIR_SCHEMA,
            "target": self.target,
            "design": self.design,
            "edits": [e.to_json() for e in self.edits],
            "edit_notes": [e.describe() + " — " + e.note for e in self.edits],
            "iterations": self.iterations,
            "unrepaired": self.unrepaired,
            "lint_before": self.lint_before,
            "lint_after": self.lint_after,
            "lint_ok": self.lint_ok,
            "lint_quiet": self.lint_quiet,
            "modelcheck_clean": self.modelcheck_clean,
            "cycles_before": self.cycles_before,
            "cycles_after": self.cycles_after,
            "cycles_saved": self.cycles_saved,
            "verified": self.verified,
        }

    def render(self) -> str:
        head = (
            f"repair {self.target} [{self.design}]: {len(self.edits)} edit(s) "
            f"in {self.iterations} iteration(s) — "
            f"{'VERIFIED' if self.verified else 'INCOMPLETE'}"
        )
        lines = [head]
        for e in self.edits:
            lines.append(f"  {e.describe()} — {e.note}")
        for u in self.unrepaired:
            lines.append(
                f"  unrepaired: {u['check']}/{u['rule']} at "
                f"t{u['tid']}:{u['seq']} — {u['reason']}"
            )
        lines.append(
            f"  lint: {self.lint_before} -> {self.lint_after} "
            f"(ok={self.lint_ok}, quiet={self.lint_quiet}); "
            f"modelcheck {'clean' if self.modelcheck_clean else 'DIVERGENT'}"
        )
        if self.cycles_saved is not None:
            lines.append(
                f"  cycles: {self.cycles_before} -> {self.cycles_after} "
                f"({self.cycles_saved:+d} saved)"
            )
        return "\n".join(lines)


def _pick(
    report: AnalysisReport, skipped: set
) -> Optional[Diagnostic]:
    """Most severe repairable finding not yet given up on."""
    best: Optional[Diagnostic] = None
    for d in report.diagnostics:
        if d.check not in REPAIRABLE:
            continue
        if (d.check, d.rule, d.tid, d.seq, d.message) in skipped:
            continue
        if best is None or (-int(d.severity), d.tid, d.seq) < (
            -int(best.severity),
            best.tid,
            best.seq,
        ):
            best = d
    return best


def repair(
    program: Program,
    design: str,
    target: str = "<program>",
    max_iters: int = 16,
    measure_cycles: bool = True,
    oracle_samples: int = 3,
    budget: Optional[int] = None,
) -> RepairResult:
    """Search for the minimal edit sequence fixing every repairable finding.

    Greedy severity-first: at each step the worst outstanding repairable
    diagnostic is attacked with its candidate edits (weakest primitive
    first — insertion order mirrors the design's vocabulary) and the
    first candidate surviving re-analysis is kept.  The loop ends when
    nothing repairable remains or ``max_iters`` is hit; the final trace
    is then verified end-to-end with the model checker, and — when any
    edit was accepted and ``measure_cycles`` — re-measured on the
    simulator so over-serialization repairs report real cycles saved.
    """
    from repro.analysis.modelcheck import DEFAULT_STATE_LIMIT, check_program

    sem = semantics_for(design)
    result = RepairResult(target=target, design=design)
    report = analyze(program, design=design)
    result.lint_before = report.by_check()

    skipped: set = set()
    current = program
    while result.iterations < max_iters:
        diag = _pick(report, skipped)
        if diag is None:
            break
        result.iterations += 1
        fixed = False
        for cand in _candidates(current, diag, sem):
            trial = apply_edits(current, cand)
            trial_report = analyze(trial, design=design)
            if _accepted(report, trial_report, (diag.check, diag.rule)):
                current = trial
                report = trial_report
                result.edits.extend(cand)
                skipped.clear()  # coordinates moved; retry everything
                fixed = True
                break
        if not fixed:
            skipped.add((diag.check, diag.rule, diag.tid, diag.seq, diag.message))
            result.unrepaired.append(
                {
                    "check": diag.check,
                    "rule": diag.rule,
                    "tid": diag.tid,
                    "seq": diag.seq,
                    "reason": "no candidate edit survived re-analysis",
                }
            )

    # Classes outside the repair vocabulary are reported, not guessed at.
    for d in report.diagnostics:
        if d.check in (PERSIST_RACE, TORN_WRITE) and d.severity >= Severity.WARNING:
            result.unrepaired.append(
                {
                    "check": d.check,
                    "rule": d.rule,
                    "tid": d.tid,
                    "seq": d.seq,
                    "reason": (
                        "needs locks or a failure-atomic region; not "
                        "expressible as a single-primitive edit"
                    ),
                }
            )

    result.program = current
    result.lint_after = report.by_check()
    result.lint_ok = report.ok
    result.lint_quiet = report.clean

    mc = check_program(
        current,
        design,
        target=target,
        budget=budget if budget is not None else DEFAULT_STATE_LIMIT,
        oracle_samples=oracle_samples,
    )
    result.modelcheck_clean = mc.agree

    if result.edits and measure_cycles:
        result.cycles_before = _measure(program, design)
        result.cycles_after = _measure(current, design)
    return result


def _measure(program: Program, design: str) -> int:
    """Makespan of the design projection on the cycle-accurate simulator,
    on the Table I machine the figures run, so savings compare with them."""
    from repro.analysis.modelcheck import _project_for_machine
    from repro.sim.machine import Machine

    runnable, _ = _project_for_machine(program, semantics_for(design))
    return Machine(design).run(runnable).cycles
