"""CLI surface of ``python -m repro lint``."""

import json

import pytest

from repro.__main__ import main


def test_lint_single_design_json(capsys):
    rc = main(["lint", "queue", "--design", "strandweaver", "--ops", "4", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["schema"] == "repro.lint/1"
    assert doc["workload"] == "queue"
    assert doc["ok"] is True
    report = doc["designs"]["strandweaver"]
    assert report["errors"] == 0
    assert report["n_stores"] > 0


def test_lint_non_atomic_expects_errors(capsys):
    # NON-ATOMIC erroring is the *correct* outcome, so the exit code is 0;
    # a clean NON-ATOMIC lint would mean the analyzer lost its teeth.
    rc = main(["lint", "queue", "--design", "non-atomic", "--ops", "4", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True
    assert doc["designs"]["non-atomic"]["errors"] > 0


def test_lint_all_designs(capsys):
    rc = main(["lint", "queue", "--design", "all", "--ops", "4", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(doc["designs"]) == {
        "hops",
        "intel-x86",
        "no-persist-queue",
        "non-atomic",
        "strandweaver",
    }
    for design, report in doc["designs"].items():
        if design == "non-atomic":
            assert report["errors"] > 0
        else:
            assert report["errors"] == 0


def test_lint_renders_human_output(capsys):
    rc = main(["lint", "queue", "--design", "strandweaver", "--ops", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lint [strandweaver]" in out
    assert "lint OK" in out


def test_lint_rejects_unknown_workload(usage_error):
    assert "'nope'" in usage_error(["lint", "nope", "--json"])


def test_lint_rejects_unknown_design(usage_error):
    assert "'tso'" in usage_error(["lint", "queue", "--design", "tso"])


def test_lint_requires_workload(usage_error):
    assert "workload" in usage_error(["lint"])


@pytest.mark.parametrize("command", ["lint", "modelcheck", "repair"])
def test_unknown_model_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "queue", "--model", "bogus", "--ops", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("design", ["strandweaver", "intel-x86"])
def test_lint_findings_carry_op_coordinates(capsys, design):
    rc = main(["lint", "hashmap", "--design", design, "--ops", "4", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    for finding in doc["designs"][design]["findings"]:
        assert finding["tid"] >= 0
        assert finding["seq"] >= 0
        assert finding["severity"] in ("ADVICE", "WARNING", "ERROR")
