"""Trace-stream pins: the Perfetto document of seven traced runs, digested.

``tests/obs/data/trace_pins.json`` holds, per run, the sha256 of
``json.dumps(to_perfetto(tracer), sort_keys=True)``: the name, track,
timestamp, duration, arguments and order of every retained event, the
track layout and the dropped-event count.  The runs are queue at
``default_config(6)`` under each of the five designs, tpcc/hops under a
512-event ring (so events are dropped), and queue/strandweaver under a
media fault model that draws write failures and remaps.

Tracing is observation-only, so each traced run's ``repro.stats/1``
document must also equal that of the same cell run untraced.

Re-record (only for a deliberate change to what the tracer emits)::

    PYTHONPATH=src python tests/obs/test_trace_pins.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.faults import MediaFaultConfig, MediaFaultModel
from repro.harness.experiment import ALL_DESIGNS, default_config
from repro.obs import Tracer, stats_to_json, to_perfetto
from repro.sim.machine import Machine
from repro.workloads import WORKLOADS, generate_for_design

DATA = os.path.join(os.path.dirname(__file__), "data", "trace_pins.json")

MEDIA = MediaFaultConfig(seed=5, write_fail_prob=0.2, ecc_uncorrectable_prob=0.02)

#: run name -> (benchmark, design, ring capacity or None, media config or None)
RUNS = {
    **{f"queue/{design}": ("queue", design, None, None) for design in ALL_DESIGNS},
    "tpcc/hops/ring512": ("tpcc", "hops", 512, None),
    "queue/strandweaver/media": ("queue", "strandweaver", None, MEDIA),
}


def _replay(name, traced):
    """(tracer or None, stats, media model or None) of one pinned run."""
    bench, design, ring, media = RUNS[name]
    run = generate_for_design(WORKLOADS[bench], default_config(6), design, "txn")
    tracer = None
    if traced:
        tracer = Tracer(mode="ring", capacity=ring) if ring else Tracer()
    machine = Machine(design) if tracer is None else Machine(design, tracer=tracer)
    model = MediaFaultModel(media) if media is not None else None
    stats = machine.run(run.program, media_faults=model)
    return tracer, stats, model


def trace_digest(tracer) -> str:
    text = json.dumps(to_perfetto(tracer), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    return {name: trace_digest(_replay(name, True)[0]) for name in RUNS}


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """Run name -> (trace digest, stats document, dropped events, media model)."""
    out = {}
    for name in RUNS:
        tracer, stats, model = _replay(name, True)
        out[name] = (trace_digest(tracer), stats_to_json(stats), tracer.dropped, model)
    return out


def test_pins_cover_every_run(pinned):
    assert sorted(pinned) == sorted(RUNS)


@pytest.mark.parametrize("name", list(RUNS))
def test_trace_matches_pin(pinned, traced, name):
    digest, _, dropped, model = traced[name]
    assert digest == pinned[name], name
    if RUNS[name][2] is not None:
        assert dropped > 0
    if model is not None:
        assert model.write_faults > 0 and model.remaps > 0


@pytest.mark.parametrize("name", list(RUNS))
def test_traced_stats_document_equals_untraced(traced, name):
    doc = traced[name][1]
    assert sorted(doc) == ["per_core", "schema", "summary"]
    assert doc == stats_to_json(_replay(name, False)[1]), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_pins.py --record")
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
