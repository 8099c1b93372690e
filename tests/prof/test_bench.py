"""Bench trajectory store and regression gate."""

import pytest

from repro.__main__ import main
from repro.prof.bench import (
    BENCH_FIGURES,
    BENCH_OPS_ENV,
    BENCH_TRAJECTORY_SCHEMA,
    append_run,
    check_regression,
    load_trajectory,
    record_run,
    resolve_ops,
)


def _entry(total=1.0, ops=16, fingerprint="cfg-a", sha="abc123"):
    return {
        "ts": "2026-08-08T00:00:00Z",
        "git_sha": sha,
        "python": "3.11.0",
        "ops_per_thread": ops,
        "config_fingerprint": fingerprint,
        "figures": {
            name: {"wall_s": total / len(BENCH_FIGURES), "cells": 10,
                   "cells_per_s": 1.0}
            for name in BENCH_FIGURES
        },
        "total_wall_s": total,
        "total_cells": 10 * len(BENCH_FIGURES),
        "cells_per_s": 1.0,
    }


def test_resolve_ops(monkeypatch, capsys):
    monkeypatch.delenv(BENCH_OPS_ENV, raising=False)
    assert resolve_ops(None) == 16
    assert resolve_ops(32) == 32
    monkeypatch.setenv(BENCH_OPS_ENV, "64")
    assert resolve_ops(None) == 64  # env fills the default
    assert resolve_ops(32) == 32  # explicit flag still wins
    assert resolve_ops(16) == 16  # even when it equals the default
    for bad in ("banana", "0", "-5"):
        monkeypatch.setenv(BENCH_OPS_ENV, bad)
        with pytest.raises(SystemExit) as exc:
            resolve_ops(None)
        assert exc.value.code == 2, bad
        assert BENCH_OPS_ENV in capsys.readouterr().err, bad
        assert resolve_ops(32) == 32  # an explicit flag never reads it


def test_bench_refuses_a_bad_ops_variable_before_any_figure(monkeypatch, capsys):
    import repro.prof.bench as bench

    def record_run(**_kwargs):
        raise AssertionError("a figure ran")

    monkeypatch.setattr(bench, "record_run", record_run)
    monkeypatch.setenv(BENCH_OPS_ENV, "0")  # once benched at ops=1
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert BENCH_OPS_ENV in capsys.readouterr().err


def test_trajectory_append_and_load(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    empty = load_trajectory(path)
    assert empty == {"schema": BENCH_TRAJECTORY_SCHEMA, "runs": []}
    append_run(path, _entry(total=1.0))
    doc = append_run(path, _entry(total=1.2))
    assert len(doc["runs"]) == 2
    assert load_trajectory(path)["runs"][1]["total_wall_s"] == 1.2


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "repro.bench/1", "runs": []}')
    with pytest.raises(ValueError, match=BENCH_TRAJECTORY_SCHEMA):
        load_trajectory(str(path))


def test_gate_passes_within_threshold(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    append_run(path, _entry(total=1.0))
    ok, report = check_regression(path, _entry(total=1.5), max_regress_pct=100.0)
    assert ok and "bench gate OK" in report


def test_gate_fails_past_threshold(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    append_run(path, _entry(total=1.0))
    ok, report = check_regression(path, _entry(total=2.5), max_regress_pct=100.0)
    assert not ok and "bench gate FAILED" in report


def test_gate_prefers_same_fingerprint(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    append_run(path, _entry(total=10.0, fingerprint="cfg-other"))
    append_run(path, _entry(total=1.0, fingerprint="cfg-a"))
    append_run(path, _entry(total=10.0, fingerprint="cfg-other"))
    # gates against the cfg-a run (1.0s), not the later cfg-other one
    ok, _ = check_regression(path, _entry(total=2.5, fingerprint="cfg-a"),
                             max_regress_pct=100.0)
    assert not ok


def test_gate_fails_without_comparable_baseline(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    append_run(path, _entry(total=1.0, ops=16))
    ok, report = check_regression(path, _entry(total=1.0, ops=64),
                                  max_regress_pct=100.0)
    assert not ok and "no baseline run" in report


def test_record_run_smoke():
    entry = record_run(ops_per_thread=2)
    assert set(entry["figures"]) == set(BENCH_FIGURES)
    assert entry["total_cells"] == sum(
        f["cells"] for f in entry["figures"].values()
    )
    assert entry["total_wall_s"] > 0
    assert len(entry["config_fingerprint"]) > 8
    assert entry["ops_per_thread"] == 2
