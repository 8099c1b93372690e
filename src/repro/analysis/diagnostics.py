"""Diagnostic objects and the report emitted by the static analyzer.

Every finding is anchored to one micro-op — ``(tid, seq)`` is the stable
coordinate (thread id, index within that thread's stream), ``gseq`` the
global visibility slot — so a diagnostic can be traced back to the exact
instruction in the compiled :class:`~repro.core.ops.Program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List

from repro.core.ops import Op

#: diagnostic classes (one per check of the analyzer).
UNFLUSHED = "unflushed-persist"
STRAND_MISUSE = "strand-misuse"
PERSIST_RACE = "persist-race"
OVER_SERIALIZATION = "over-serialization"
TORN_WRITE = "torn-write"

ALL_CHECKS = (UNFLUSHED, STRAND_MISUSE, PERSIST_RACE, OVER_SERIALIZATION, TORN_WRITE)

LINT_SCHEMA = "repro.lint/1"


class Severity(IntEnum):
    """How bad a finding is.

    ``ERROR`` findings are crash-consistency bugs the differential chaos
    oracle can reproduce; ``WARNING`` findings are latent hazards; and
    ``ADVICE`` findings are performance lint (the paper's over-serialization
    motivation) that never affect correctness.
    """

    ADVICE = 0
    WARNING = 1
    ERROR = 2


@dataclass
class Diagnostic:
    """One finding of the static persist-order analyzer."""

    check: str  #: diagnostic class (one of :data:`ALL_CHECKS`)
    rule: str  #: sub-rule within the class, e.g. ``"no-path-to-marker"``
    severity: Severity
    tid: int
    seq: int  #: op index within the thread's stream
    gseq: int  #: global visibility slot
    message: str
    op: str = ""  #: repr of the anchoring op
    label: str = ""
    region: int = -1
    #: over-serialization only: persists/orderings needlessly serialized.
    estimated_waste: int = 0

    @classmethod
    def at(
        cls,
        op: Op,
        check: str,
        rule: str,
        severity: Severity,
        message: str,
        estimated_waste: int = 0,
    ) -> "Diagnostic":
        return cls(
            check=check,
            rule=rule,
            severity=severity,
            tid=op.tid,
            seq=op.seq,
            gseq=op.gseq,
            message=message,
            op=repr(op),
            label=op.label,
            region=op.region,
            estimated_waste=estimated_waste,
        )

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "check": self.check,
            "rule": self.rule,
            "severity": self.severity.name,
            "tid": self.tid,
            "seq": self.seq,
            "gseq": self.gseq,
            "message": self.message,
            "op": self.op,
        }
        if self.label:
            out["label"] = self.label
        if self.region >= 0:
            out["region"] = self.region
        if self.estimated_waste:
            out["estimated_waste"] = self.estimated_waste
        return out

    def render(self) -> str:
        loc = f"t{self.tid}:{self.seq}"
        return f"{self.severity.name:<7} {self.check:<18} {loc:<9} {self.message}"


@dataclass
class AnalysisReport:
    """All findings of one analyzer run over one (program, design) pair."""

    design: str
    n_ops: int = 0
    n_stores: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    # -- views ----------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def advisories(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ADVICE]

    @property
    def ok(self) -> bool:
        """No ERROR-level finding (warnings and advice do not fail a lint)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No finding of any severity."""
        return not self.diagnostics

    def by_check(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for d in self.diagnostics:
            out[d.check] = out.get(d.check, 0) + 1
        return out

    @property
    def estimated_waste(self) -> int:
        """Total persists/orderings the over-serialization lint found wasted."""
        return sum(d.estimated_waste for d in self.diagnostics)

    def finalize(self) -> "AnalysisReport":
        """Deduplicate and impose a deterministic, byte-stable order.

        Findings are keyed on their identity (anchor op, class, rule,
        severity, message); a check re-reporting the same fact folds to
        one diagnostic.  Order is op-index-major — ``(tid, seq, gseq)``,
        then class/rule, most severe first on exact ties — so two runs
        over the same program serialize to byte-identical JSON.
        """
        seen = set()
        unique: List[Diagnostic] = []
        for d in self.diagnostics:
            key = (d.tid, d.seq, d.check, d.rule, int(d.severity), d.message)
            if key not in seen:
                seen.add(key)
                unique.append(d)
        unique.sort(
            key=lambda d: (d.tid, d.seq, d.gseq, d.check, d.rule, -int(d.severity))
        )
        self.diagnostics = unique
        return self

    # -- output ---------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": LINT_SCHEMA,
            "design": self.design,
            "n_ops": self.n_ops,
            "n_stores": self.n_stores,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "advisories": len(self.advisories),
            "estimated_waste": self.estimated_waste,
            "by_check": self.by_check(),
            "ok": self.ok,
            "findings": [d.to_json() for d in self.diagnostics],
        }

    def render(self) -> str:
        head = (
            f"lint [{self.design}]: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.advisories)} "
            f"advisory(ies) over {self.n_ops} ops / {self.n_stores} persists"
        )
        lines = [head]
        for d in self.diagnostics:
            lines.append(f"  {d.render()}")
        if self.estimated_waste:
            lines.append(
                f"  ~{self.estimated_waste} wasted ordering(s)/flush(es) "
                f"(advisory estimate)"
            )
        if self.clean:
            lines.append("  clean")
        return "\n".join(lines)
