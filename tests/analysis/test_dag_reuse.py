"""``analyze(program, design, dag=...)``: a passed-in persist DAG changes
nothing.

The crash harness hands the linter the DAG it built over the program.
That DAG is the linter's own only when the design honours every fence
the program issues; otherwise the linter must ignore it and build one
over the design's projection.  Either way the report is the one
``analyze(program, design)`` gives.
"""

import pytest

from repro.analysis import analyze
from repro.analysis.semantics import effective_program, semantics_for
from repro.chaos.harness import CHAOS_CFG
from repro.core.model import PersistDag
from repro.sim.machine import DESIGNS
from repro.workloads import WORKLOADS, generate_for_design


def _program(bench: str, design: str):
    return generate_for_design(
        WORKLOADS[bench], CHAOS_CFG, design, "txn", durable_commit=True
    ).program


def _json(report):
    return report.to_json()


@pytest.mark.parametrize("dialect_design", sorted(DESIGNS))
def test_passed_dag_gives_the_same_report_on_every_design(dialect_design):
    """A program generated for one design, linted for all five.  (The
    lint pins check every benchmark's own-dialect pairs the same way.)"""
    program = _program("queue", dialect_design)
    dag = PersistDag(program)
    for design in sorted(DESIGNS):
        assert _json(analyze(program, design, dag=dag)) == _json(
            analyze(program, design)
        ), f"queue@{dialect_design} linted for {design}"


def test_x86_program_linted_for_strandweaver_ignores_the_passed_dag():
    """StrandWeaver drops every SFENCE, so the program's own DAG holds
    orderings the design does not honour; using it would hide errors."""
    program = _program("queue", "intel-x86")
    sem = semantics_for("strandweaver")
    eff = effective_program(program, sem)
    assert eff.n_dropped > 0
    dag = PersistDag(program)
    assert dag.edges() != PersistDag(eff).edges()
    report = analyze(program, "strandweaver", dag=dag)
    assert _json(report) == _json(analyze(program, "strandweaver"))
    assert report.errors
    assert not analyze(program, "intel-x86", dag=dag).errors


def test_dag_of_another_program_is_ignored():
    """Only a DAG built over this very program object is reused."""
    program = _program("queue", "strandweaver")
    twin = _program("queue", "strandweaver")
    other = PersistDag(_program("hashmap", "strandweaver"))
    want = _json(analyze(program, "strandweaver"))
    assert _json(analyze(program, "strandweaver", dag=other)) == want
    assert _json(analyze(program, "strandweaver", dag=PersistDag(twin))) == want
