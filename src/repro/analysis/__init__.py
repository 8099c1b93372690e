"""Static persist-order analysis for compiled StrandWeaver traces.

``analyze(program, design)`` lints a compiled :class:`~repro.core.ops.Program`
for crash-consistency bugs and over-serialization without running the
timing simulator or enumerating crash cuts.  See
:mod:`repro.analysis.checks` for the five diagnostic classes.

Beyond the linter, the package closes the analyzer/formal-model loop:

* :mod:`repro.analysis.pmo` — the declarative PMO axioms (Eqs. 1-4) as
  explicit relations, independent of the operational persist DAG;
* :mod:`repro.analysis.modelcheck` — exhaustive crash-state comparison
  of the declarative axioms, the operational DAG, and the machine
  oracle, with seeded-mutation self-tests;
* :mod:`repro.analysis.repair` — a suggested-fix engine that searches
  minimal primitive edits making a trace lint- and model-check-clean,
  pricing performance repairs in measured simulator cycles.
"""

from repro.analysis.checks import analyze
from repro.analysis.diagnostics import (
    ALL_CHECKS,
    LINT_SCHEMA,
    OVER_SERIALIZATION,
    PERSIST_RACE,
    STRAND_MISUSE,
    TORN_WRITE,
    UNFLUSHED,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.litmus import LITMUS, LitmusCase
from repro.analysis.modelcheck import (
    MODELCHECK_SCHEMA,
    MUTATIONS,
    Divergence,
    ModelCheckReport,
    check_corpus,
    check_litmus,
    check_program,
)
from repro.analysis.pmo import DeclarativePmo, StateSpaceExceeded
from repro.analysis.repair import (
    REPAIR_SCHEMA,
    Edit,
    RepairResult,
    apply_edits,
    repair,
)
from repro.analysis.semantics import (
    SEMANTICS,
    DesignSemantics,
    EffectiveProgram,
    effective_program,
    semantics_for,
)

__all__ = [
    "ALL_CHECKS",
    "LINT_SCHEMA",
    "LITMUS",
    "MODELCHECK_SCHEMA",
    "MUTATIONS",
    "OVER_SERIALIZATION",
    "PERSIST_RACE",
    "REPAIR_SCHEMA",
    "SEMANTICS",
    "STRAND_MISUSE",
    "TORN_WRITE",
    "UNFLUSHED",
    "AnalysisReport",
    "DeclarativePmo",
    "DesignSemantics",
    "Diagnostic",
    "Divergence",
    "Edit",
    "EffectiveProgram",
    "LitmusCase",
    "ModelCheckReport",
    "RepairResult",
    "Severity",
    "StateSpaceExceeded",
    "analyze",
    "apply_edits",
    "check_corpus",
    "check_litmus",
    "check_program",
    "effective_program",
    "repair",
    "semantics_for",
]
