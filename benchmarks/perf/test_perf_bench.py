"""Tests of the benchmark itself, at smoke scale.

Run with ``pytest benchmarks/perf -q`` (about half a minute).  They
check the benchmark's contract: every metric named in BENCHMARK.json is
printed with its unit, a wrong output fails the run, ``--compare``
judges against the bounds, and traced spans nest.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
SPANS = os.path.join(HERE, ".work", "spans")
sys.path.insert(0, HERE)

from spans import LAYERS, STRUCTURAL, check_nesting, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(*args: str, timeout: float = 120):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def smoke(*args: str):
    return bench("--smoke", "--seconds", "0", "--repeat", "1", "--seed", str(SEED), *args)


@pytest.fixture(scope="module")
def measured():
    proc, result = smoke("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return result


@pytest.fixture(scope="module")
def traced():
    for path in glob.glob(os.path.join(SPANS, f"*-seed{SEED}-*.json")):
        os.unlink(path)
    proc, result = smoke("--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return result


@pytest.mark.parametrize("section,fixture", [("end_to_end", "measured"), ("per_layer", "traced")])
def test_every_metric_is_printed_with_its_unit(section, fixture, request):
    result = request.getfixturevalue(fixture)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(measured):
    assert all(m["value"] > 0 for m in measured["metrics"].values())


def test_tampered_golden_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(os.path.join(HERE, "golden", "smoke"), golden)
    path = golden / "fig10-gen.json"
    doc = json.loads(path.read_text())
    label = sorted(doc["cells"])[0]
    doc["cells"][label] = "0" * 64
    path.write_text(json.dumps(doc))
    proc, result = smoke("--workload", "fig10-gen", "--golden", str(golden))
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert label in proc.stdout
    # one workload: metric names exactly as BENCHMARK.json spells them
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _report(path, wall_samples):
    doc = {"workloads": {"fig9-dse": {"metrics": {"wall_s": {"samples": wall_samples}}}}}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("factor,verdict,code", [
    (1.20, "regressed", 1),
    (1.03, "ok", 0),
    (0.97, "ok", 0),
])
def test_compare_applies_the_bound(tmp_path, factor, verdict, code):
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    a = _report(tmp_path / "a.json", base)
    b = _report(tmp_path / "b.json", [factor * v for v in base])
    proc, _ = bench("--compare", a, b)
    assert proc.returncode == code, proc.stdout
    row = [line for line in proc.stdout.splitlines() if "wall_s" in line]
    assert len(row) == 1 and row[0].split()[-1] == verdict


def test_compare_reports_wide_spread_as_unresolved(tmp_path):
    a = _report(tmp_path / "a.json", [8.0, 10.0, 12.0, 9.0, 11.0])
    b = _report(tmp_path / "b.json", [9.0, 11.0, 13.0, 10.0, 12.0])
    proc, _ = bench("--compare", a, b)
    assert proc.returncode == 0
    assert "unresolved" in proc.stdout


def test_traced_spans_nest(traced):
    paths = sorted(glob.glob(os.path.join(SPANS, f"*-seed{SEED}-*.json")))
    assert {os.path.basename(p).split("-seed")[0] for p in paths} == set(WORKLOADS)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        check_nesting(spans)
        assert spans[0]["name"] == "run" and spans[0]["parent"] == -1
        assert {s["name"] for s in spans} <= set(LAYERS) | set(STRUCTURAL)
        root = spans[0]["end"] - spans[0]["start"]
        assert sum(self_times(spans)) == pytest.approx(root)


def test_check_nesting_rejects_a_child_outside_its_parent():
    spans = [
        {"name": "run", "start": 0.0, "end": 1.0, "parent": -1},
        {"name": "sim.replay", "start": 0.5, "end": 1.5, "parent": 0},
    ]
    with pytest.raises(ValueError):
        check_nesting(spans)
