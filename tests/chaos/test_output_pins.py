"""Soak and crashtest content pins.

Running a campaign twice on the same tree proves it deterministic, not
correct: a deterministic drift in recovery, crash-image construction or
the persist DAG passes a run-to-run diff.  These tests compare two fixed
campaigns with copies recorded before recovery's log scan and the DAG
closures were rewritten:

* ``tests/chaos/data/soak_queue_seeds25_seed7.json`` — the output of
  ``repro soak queue --seeds 25 --seed 7 --json``, and
  ``soak_queue_seeds25_seed7_cases.json`` — every field of every case
  of that campaign (plan, violation message, recovery passes, media
  fault accounting, shrink result), which the summary only counts;
* ``tests/chaos/data/crashtest_queue_all_crashes10_seed7.json`` — the
  output of ``repro crashtest queue --design all --crashes 10 --seed 7
  --json``.

Re-record (only for a deliberate change to crash-test outcomes)::

    PYTHONPATH=src python tests/chaos/test_output_pins.py --record
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

from repro.__main__ import main
from repro.chaos import run_soak

DATA = os.path.join(os.path.dirname(__file__), "data")

SOAK_ARGV = ["soak", "queue", "--seeds", "25", "--seed", "7", "--json"]
SOAK_FILE = "soak_queue_seeds25_seed7.json"
SOAK_CASES_FILE = "soak_queue_seeds25_seed7_cases.json"
CRASHTEST_ARGV = [
    "crashtest", "queue", "--design", "all", "--crashes", "10", "--seed", "7",
    "--json",
]
CRASHTEST_FILE = "crashtest_queue_all_crashes10_seed7.json"


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


def case_doc(case) -> dict:
    """Every field of one :class:`~repro.chaos.soak.SoakCase`, as JSON."""
    return {
        "index": case.index,
        "seed": case.seed,
        "design": case.design,
        "plan": case.plan_desc,
        "violation": case.violation,
        "expected": case.expected,
        "recovery_passes": case.recovery_passes,
        "media_faults": case.media_faults,
        "shrunk": None if case.shrunk is None else dataclasses.asdict(case.shrunk),
    }


def soak_docs():
    """The pinned soak campaign's ``--json`` text and its cases' text."""
    result = run_soak("queue", seeds=25, seed=7)
    summary = json.dumps(result.summary(), indent=1, sort_keys=True) + "\n"
    cases = json.dumps([case_doc(c) for c in result.cases], indent=1, sort_keys=True)
    return summary, cases + "\n"


def _read(name: str) -> str:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def test_soak_campaign_matches_pin():
    summary, cases = soak_docs()
    assert summary == _read(SOAK_FILE)
    assert cases == _read(SOAK_CASES_FILE)


def test_crashtest_differential_matches_pin():
    assert run_cli(CRASHTEST_ARGV) == _read(CRASHTEST_FILE)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_output_pins.py --record")
    os.makedirs(DATA, exist_ok=True)
    _summary, _cases = soak_docs()
    files = {
        SOAK_FILE: run_cli(SOAK_ARGV),
        SOAK_CASES_FILE: _cases,
        CRASHTEST_FILE: run_cli(CRASHTEST_ARGV),
    }
    for name, text in files.items():
        with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
            fh.write(text)
