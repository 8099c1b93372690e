"""Lint and persist-DAG pins: analyzer output digested per program.

``tests/analysis/data/pinned_lint.json`` holds, per program and design,
the sha256 of the ``repro.lint/1`` JSON that :func:`repro.analysis.analyze`
produces, plus the sha256 of the direct-predecessor edge list of the
persist DAG over the program and over the design's fence projection
(the DAG the analyzer itself builds).  The digests were recorded before
the DAG closures and the analyzer's marker walks learned to prune by
node index, so they pin the analyzer's findings, not just its
determinism.

Coverage: all 8 benchmarks x 5 designs at the crash harness's scale
(``CHAOS_CFG``, txn model, ``durable_commit=True``: the programs that
``repro crashtest`` and ``repro soak`` lint), and the litmus corpus x 5
designs.

Re-record (only for a deliberate change to the analyzer or the DAG)::

    PYTHONPATH=src python tests/analysis/test_lint_pins.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.analysis import LITMUS, analyze
from repro.analysis.semantics import effective_program, semantics_for
from repro.chaos.harness import CHAOS_CFG
from repro.core.model import PersistDag
from repro.sim.machine import DESIGNS
from repro.workloads import WORKLOADS, generate_for_design

DATA = os.path.join(os.path.dirname(__file__), "data", "pinned_lint.json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def program_pins(program, design: str) -> dict:
    """Digests of the lint report and of both persist DAGs."""
    report = analyze(program, design=design)
    eff = effective_program(program, semantics_for(design))
    return {
        "lint": _sha(json.dumps(report.to_json(), sort_keys=True)),
        "dag": _sha(repr(PersistDag(program).edges())),
        "eff_dag": _sha(repr(PersistDag(eff).edges())),
    }


def _bench_program(bench: str, design: str):
    return generate_for_design(
        WORKLOADS[bench], CHAOS_CFG, design, "txn", durable_commit=True
    ).program


def _cases():
    for bench in sorted(WORKLOADS):
        for design in sorted(DESIGNS):
            yield "bench", bench, design
    for name in sorted(LITMUS):
        for design in sorted(DESIGNS):
            yield "litmus", name, design


def _program(kind: str, name: str, design: str):
    if kind == "bench":
        return _bench_program(name, design)
    return LITMUS[name].build()


def record() -> dict:
    return {
        f"{kind}/{name}/{design}": program_pins(_program(kind, name, design), design)
        for kind, name, design in _cases()
    }


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_every_case(pinned):
    assert sorted(pinned) == sorted(f"{k}/{n}/{d}" for k, n, d in _cases())


@pytest.mark.parametrize("kind,name,design", list(_cases()))
def test_lint_and_dag_match_pins(pinned, kind, name, design):
    key = f"{kind}/{name}/{design}"
    program = _program(kind, name, design)
    assert program_pins(program, design) == pinned[key], key
    if kind == "bench":
        # The crash harness lints with the DAG it already built.
        report = analyze(program, design=design, dag=PersistDag(program))
        assert _sha(json.dumps(report.to_json(), sort_keys=True)) == pinned[key]["lint"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_lint_pins.py --record")
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
