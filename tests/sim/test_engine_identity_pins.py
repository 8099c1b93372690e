"""Bit-identity pins for the engine rewrite (ROADMAP item 1).

``tests/sim/data/pinned_figures_ops16.json`` was captured from the
pre-fastpath engine (commit 1181c85) at ops=16: every figure the bench
times, rendered to its ``repro.figure/1`` JSON form.  The compiled fast
engine — and any future engine change — must reproduce these documents
byte-for-byte; a deliberate semantic change must re-capture the fixture
and say so in the commit.

``pinned_crashtest_queue_sw.json`` pins six seeded crash samples of the
queue/strandweaver cell — crash cycle, verdict, rollback/replay counts.
"""

import json
import os

import pytest

from repro.chaos.harness import run_crashtest
from repro.harness import figure7, figure8, figure9, figure10, table2
from repro.harness.experiment import clear_cache

DATA = os.path.join(os.path.dirname(__file__), "data")

FIGURES = {
    "table2": table2,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
}


def _load(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pinned_figures():
    return _load("pinned_figures_ops16.json")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_bit_identical_to_prefastpath_engine(name, pinned_figures):
    clear_cache()
    try:
        doc = FIGURES[name](ops_per_thread=16).to_json()
    finally:
        clear_cache()
    # Compare via canonical JSON so float formatting differences surface
    # as a diff, not silently.
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        pinned_figures[name], sort_keys=True
    ), f"{name} diverged from the pinned pre-fastpath output"


def test_crash_samples_pinned():
    """Crash samples (cycle, verdict, rollback counts) must match the
    pre-fastpath engine: the crash path runs on the reference engine."""
    pinned = _load("pinned_crashtest_queue_sw.json")
    res = run_crashtest("queue", "strandweaver", crashes=6, seed=7)
    got = [
        {
            "index": s.index,
            "cycle": s.cycle,
            "ok": s.ok,
            "n_rolled_back": s.n_rolled_back,
            "n_replayed": s.n_replayed,
        }
        for s in res.samples
    ]
    assert json.dumps(got, sort_keys=True) == json.dumps(pinned, sort_keys=True)
