"""JSON stats schema, bench timings, and CLI surface."""

import json

import pytest

from repro.__main__ import main
from repro.harness.experiment import default_config
from repro.obs import STATS_SCHEMA, Tracer, stats_to_json
from repro.prof.bench import BENCH_FIGURES, BENCH_OPS_ENV
from repro.sim.machine import Machine
from repro.sim.stats import CoreStats, MachineStats, geomean
from repro.workloads import WORKLOADS, generate_for_design


def run_queue(tracer=None):
    run = generate_for_design(
        WORKLOADS["queue"], default_config(ops_per_thread=6), "strandweaver", "txn"
    )
    machine = Machine("strandweaver") if tracer is None else Machine(
        "strandweaver", tracer=tracer
    )
    return machine.run(run.program)


def test_stats_document_schema():
    stats = run_queue(tracer=Tracer())
    doc = stats_to_json(stats)
    assert doc["schema"] == STATS_SCHEMA
    summary = doc["summary"]
    for key in ("design", "cycles", "stall_fence", "stall_queue_full",
                "stall_drain", "stall_lock", "l1_hits", "l1_misses", "ckc"):
        assert key in summary
    assert summary["design"] == "strandweaver"
    assert len(doc["per_core"]) == len(stats.per_core)
    assert doc["per_core"][0]["persist_stalls"] == stats.per_core[0].persist_stalls
    assert "metrics" in doc
    json.dumps(doc)  # must be serialisable


def test_stats_document_omits_metrics_when_untraced():
    doc = stats_to_json(run_queue())
    assert "metrics" not in doc


def test_summary_values_are_scalars():
    summary = run_queue().summary()
    assert isinstance(summary["design"], str)
    for key, value in summary.items():
        if key != "design":
            assert isinstance(value, (int, float)), key


def test_cli_trace_writes_perfetto_and_stats(tmp_path):
    trace_path = tmp_path / "trace.json"
    stats_path = tmp_path / "stats.json"
    rc = main([
        "trace", "queue", "--design", "strandweaver", "--ops", "4",
        "--out", str(trace_path), "--stats-out", str(stats_path),
    ])
    assert rc == 0
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    for ev in doc["traceEvents"]:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in ev
    stats_doc = json.loads(stats_path.read_text())
    assert stats_doc["schema"] == STATS_SCHEMA


def test_cli_trace_ring_mode_bounds_events(tmp_path):
    trace_path = tmp_path / "trace.json"
    rc = main([
        "trace", "queue", "--ops", "4", "--ring", "64", "--out", str(trace_path),
    ])
    assert rc == 0
    doc = json.loads(trace_path.read_text())
    # 64 events plus per-track metadata records.
    assert len([e for e in doc["traceEvents"] if e["ph"] != "M"]) == 64
    assert doc["otherData"]["dropped_events"] > 0


def test_cli_trace_rejects_unknown_inputs(usage_error, tmp_path):
    out = tmp_path / "trace.json"
    assert "workload" in usage_error(["trace", "--out", str(out)])
    assert "'nope'" in usage_error(["trace", "nope", "--out", str(out)])
    assert "'nope'" in usage_error(
        ["trace", "queue", "--design", "nope", "--out", str(out)]
    )
    assert "--ring" in usage_error(
        ["trace", "queue", "--ring", "-1", "--out", str(out)]
    )
    assert "invalid choice: 'nope'" in usage_error(
        ["trace", "queue", "--model", "nope", "--out", str(out)]
    )
    assert not out.exists()


def test_cli_trace_runs_redo_txn(tmp_path, capsys):
    rc = main(["trace", "queue", "--model", "redo-txn", "--ops", "2",
               "--out", str(tmp_path / "trace.json"), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cycles"] > 0


def test_cli_json_figure_output(capsys):
    rc = main(["table1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.figure/1"
    assert doc["columns"] == ["component", "value"]
    assert doc["rows"]


def test_cli_bench_prints_timings_and_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(BENCH_OPS_ENV, raising=False)
    assert main(["bench", "--ops", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [*BENCH_FIGURES, "total"]
    assert "(ops=2," in lines[-1]
    assert list(tmp_path.iterdir()) == []


# -- geomean / merge edge cases (satellite) ------------------------------


def test_geomean_edge_cases():
    assert geomean([]) == 0.0
    assert geomean([5.0]) == pytest.approx(5.0)
    # Non-positive values used to be silently dropped, quietly skewing
    # figure summaries; they are now rejected loudly.
    with pytest.raises(ValueError):
        geomean([0.0, 0.0])
    with pytest.raises(ValueError):
        geomean([0.0, 2.0, 8.0])


def test_core_stats_merge_edge_cases():
    empty = CoreStats()
    empty.merge(CoreStats())
    assert empty.cycles == 0 and empty.ops == 0

    a = CoreStats(cycles=100, ops=10, stall_lock=5, l1_hits=7)
    a.merge(CoreStats(cycles=50, ops=3, stall_lock=2, l1_misses=4))
    assert a.cycles == 100  # makespan: max, not sum
    assert a.ops == 13
    assert a.stall_lock == 7
    assert a.l1_hits == 7 and a.l1_misses == 4


def test_machine_stats_total_ignores_metrics_field():
    ms = MachineStats(design="x", per_core=[CoreStats(cycles=10, ops=1)])
    total = ms.total
    assert total.ops == 1
    assert total.metrics is None


# -- non-finite rejection + cache payload round-trip (satellite) ---------


def test_exporters_reject_non_finite_values(tmp_path):
    from repro.obs.export import dump_json

    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            dump_json(str(tmp_path / "bad.json"), {"value": bad})
    dump_json(str(tmp_path / "ok.json"), {"value": 1.5})
    assert json.loads((tmp_path / "ok.json").read_text()) == {"value": 1.5}


def test_summary_includes_pm_traffic_counters():
    summary = run_queue().summary()
    assert "pm_reads" in summary and "pm_writes" in summary
    assert summary["pm_writes"] > 0  # persists really reach the controller


def test_machine_stats_doc_round_trip():
    from repro.obs.export import machine_stats_from_doc, machine_stats_to_doc

    stats = run_queue()
    doc = json.loads(json.dumps(machine_stats_to_doc(stats)))
    back = machine_stats_from_doc(doc)
    assert back.design == stats.design
    assert back.cycles == stats.cycles
    assert back.summary() == stats.summary()
    assert [c for c in back.per_core] == [c for c in stats.per_core]


def test_sweep_json_schema(tmp_path):
    from repro.harness.sweep import SweepCell, run_sweep
    from repro.obs.export import SWEEP_SCHEMA, write_sweep_json

    result = run_sweep([SweepCell("queue", "strandweaver", ops_per_thread=4)])
    out = tmp_path / "sweep.json"
    doc = write_sweep_json(str(out), result)
    assert doc["schema"] == SWEEP_SCHEMA
    assert doc["n_cells"] == 1 and doc["errors"] == 0
    cell = doc["cells"][0]
    assert cell["ok"] and cell["summary"]["design"] == "strandweaver"
    assert "wall_time_s" in cell and "source" in cell
    det = result.to_json(deterministic=True)
    assert "wall_time_s" not in det and "jobs" not in det
    assert all("wall_time_s" not in c and "source" not in c for c in det["cells"])
    assert json.loads(out.read_text()) == doc


def test_load_sweep_json_normalises_deterministic_docs(tmp_path):
    """A --deterministic export omits wall-clock fields; the loader
    restores them with neutral values so both forms round-trip through
    the same tooling (e.g. the campaign telemetry consumers)."""
    from repro.harness.sweep import SweepCell, run_sweep
    from repro.obs.export import load_sweep_json, write_sweep_json

    result = run_sweep([SweepCell("queue", "strandweaver", ops_per_thread=4)])
    live = tmp_path / "live.json"
    det = tmp_path / "det.json"
    write_sweep_json(str(live), result)
    write_sweep_json(str(det), result, deterministic=True)

    live_doc = load_sweep_json(str(live))
    det_doc = load_sweep_json(str(det))
    for doc in (live_doc, det_doc):
        for cell in doc["cells"]:
            assert "source" in cell and "wall_time_s" in cell
        for key in ("jobs", "wall_time_s", "cache_hits", "cache_misses", "memo_hits"):
            assert key in doc
    assert det_doc["cells"][0]["source"] == "unknown"
    assert det_doc["cells"][0]["wall_time_s"] == 0.0
    # the simulated payload is identical across the two forms
    assert det_doc["cells"][0]["summary"] == live_doc["cells"][0]["summary"]


def test_load_sweep_json_rejects_wrong_schema(tmp_path):
    from repro.obs.export import load_sweep_json

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "repro.stats/1", "cells": []}')
    with pytest.raises(ValueError, match="repro.sweep/1"):
        load_sweep_json(str(bad))
