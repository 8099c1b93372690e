"""Tracing must be observation-only: enabled or disabled, every design
reports bit-identical cycle counts (the ISSUE acceptance criterion)."""

import pytest

from repro.harness.experiment import ALL_DESIGNS, default_config
from repro.obs import NULL_TRACER, Tracer
from repro.sim.machine import Machine
from repro.workloads import WORKLOADS, generate_for_design


def replay(benchmark: str, design: str, tracer=None):
    run = generate_for_design(
        WORKLOADS[benchmark], default_config(ops_per_thread=6), design, "txn"
    )
    if tracer is None:
        return Machine(design).run(run.program)
    return Machine(design, tracer=tracer).run(run.program)


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_cycles_identical_with_tracer_all_designs(design):
    base = replay("queue", design)
    traced_stats = replay("queue", design, tracer=Tracer())
    assert traced_stats.cycles == base.cycles
    for a, b in zip(base.per_core, traced_stats.per_core):
        assert a.cycles == b.cycles
        assert a.persist_stalls == b.persist_stalls


@pytest.mark.parametrize("bench", ["hashmap", "nstore-wr"])
def test_cycles_identical_with_tracer_across_workloads(bench):
    base = replay(bench, "strandweaver")
    traced = replay(bench, "strandweaver", tracer=Tracer())
    assert traced.cycles == base.cycles


def test_traced_run_collects_events():
    tracer = Tracer()
    replay("queue", "strandweaver", tracer=tracer)
    assert len(tracer) > 0
    names = {ev.name for ev in tracer.events()}
    # Dispatch, CLWB lifetime, persist-queue and PM events all present.
    assert any(name.startswith("op:") for name in names)
    assert "clwb" in names
    assert "pq.push" in names
    assert "pm.admit" in names or "pm.coalesce" in names


def test_stall_events_carry_figure8_causes():
    tracer = Tracer()
    replay("queue", "intel-x86", tracer=tracer)
    causes = {
        ev.args["cause"]
        for ev in tracer.events()
        if ev.name.startswith("stall:") and ev.args
    }
    # The x86 baseline must exhibit fence stalls (Figure 8's dominant bar).
    assert "fence" in causes


def test_traced_run_returns_the_untraced_stats():
    """The tracer keeps the only record of what it saw: the stats a
    traced run returns equal an untraced run's, field for field."""
    tracer = Tracer()
    traced = replay("queue", "strandweaver", tracer=tracer)
    assert traced == replay("queue", "strandweaver")
    for holder in (tracer, NULL_TRACER, traced, *traced.per_core):
        assert not hasattr(holder, "metrics"), holder
