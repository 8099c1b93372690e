"""Command-line surface.  Commands, options and modules that no result
reads are gone — the campaign service (``repro sweep`` is the one
campaign runner), the phase profiler behind ``repro profile``, SARIF
export and the standalone cut verifier — and each command's parser
accepts only the options its handler reads."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, _build_parser, main

DELETED_COMMANDS = ("serve", "submit", "profile")
DELETED_OPTIONS = (
    "--dir", "--host", "--port", "--resume", "--drain", "--worker-budget",
    "--rate", "--burst", "--url", "--follow", "--no-wait", "--status",
    "--cancel", "--format", "--sort", "--top", "--compare",
)
DELETED_MODULES = (
    "repro.service",
    "repro.prof.phases",
    "repro.prof.wallclock",
    "repro.analysis.sarif",
    "repro.core.verify",
)


@pytest.mark.parametrize("command", DELETED_COMMANDS)
def test_deleted_command_is_rejected(command, capsys):
    assert command not in COMMANDS
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("option", DELETED_OPTIONS)
def test_deleted_option_is_rejected(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--workloads", "queue", "--designs", "strandweaver",
              "--ops", "2", option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_deleted_module_is_gone(module):
    assert importlib.util.find_spec(module) is None


# -- one parser per command: each command accepts only what it reads ---------

#: The 33 options of the flat parser that every command used to accept.
FLAT_OPTIONS = (
    "--ops", "-j", "--workloads", "--designs", "--models", "--no-cache",
    "--cache-dir", "--deterministic", "--json", "--design", "--model",
    "--out", "--stats-out", "--budget", "--samples", "--mutate", "--apply",
    "--ring", "--crashes", "--seed", "--torn", "--no-writeback-faults",
    "--no-drop-faults", "--no-shrink", "--seeds", "--no-media", "--timeout",
    "--retries", "--record", "--baseline", "--max-regress", "--progress",
    "--runlog",
)
FIGURE_OPTIONS = {"--ops", "-j", "--no-cache", "--cache-dir", "--json"}
#: The options each command's handler reads.
READS = {
    "table1": {"--json"},
    **dict.fromkeys(
        ("table2", "fig7", "fig8", "fig9", "fig10", "models", "all"),
        FIGURE_OPTIONS,
    ),
    "sweep": FIGURE_OPTIONS | {
        "--workloads", "--designs", "--models", "--deterministic", "--out",
        "--timeout", "--retries", "--progress", "--runlog",
    },
    "trace": {
        "--design", "--model", "--ops", "--out", "--stats-out", "--ring",
        "--json",
    },
    "bench": {"--ops", "--record", "--baseline", "--max-regress", "--json"},
    "crashtest": {
        "--design", "--crashes", "--seed", "--torn", "--no-writeback-faults",
        "--no-drop-faults", "--no-shrink", "--json",
    },
    "soak": {
        "--design", "--seeds", "--seed", "--no-media", "--no-shrink",
        "--progress", "--runlog", "--json",
    },
    "lint": {"--design", "--ops", "--model", "--json"},
    "modelcheck": {
        "--design", "--budget", "--samples", "--mutate", "--ops", "--model",
        "--json",
    },
    "repair": {"--design", "--budget", "--apply", "--ops", "--model", "--json"},
}
#: The positional each command needs before its parser reaches an option.
TARGET = {
    "trace": ["queue"], "crashtest": ["queue"], "soak": ["queue"],
    "lint": ["queue"], "modelcheck": ["corpus"],
    "repair": ["overser-double-clwb"],
}
SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_accepted_pairs_fall_from_528_to_95():
    assert set(READS) == set(COMMANDS)
    assert len(FLAT_OPTIONS) * len(COMMANDS) == 528
    assert sum(len(options) for options in READS.values()) == 95


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_options_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"^  (-[\w-]+)", capsys.readouterr().out, re.M))
    assert listed - {"-h"} == READS[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_options_the_command_does_not_read_are_refused(
    command, usage_error, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    for option in sorted(set(FLAT_OPTIONS) - READS[command]):
        err = usage_error([command, *TARGET.get(command, []), option])
        assert option in err, (command, option, err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_an_unread_option_is_reported_under_the_commands_usage(command, usage_error):
    err = usage_error([command, *TARGET.get(command, []), "--bogus"])
    assert err.startswith(f"usage: python -m repro {command} "), err
    assert "--bogus" in err


def test_ignored_sweep_flags_are_refused_by_name(usage_error):
    """``--model``/``--design``/``--seed`` are not the sweep's
    ``--models``/``--designs`` axes, and prefixes of them do not match."""
    err = usage_error([
        "sweep", "--workloads", "queue", "--designs", "strandweaver",
        "--ops", "2", "--model", "atlas", "--design", "intel-x86",
        "--seed", "3", "--json",
    ])
    assert "--model" in err and "--design" in err and "--seed" in err


def test_table1_refuses_a_run_log_and_writes_none(usage_error, tmp_path):
    log = tmp_path / "F"
    assert "--runlog" in usage_error(["table1", "--runlog", str(log)])
    assert not log.exists()


def test_a_figure_takes_no_workload(usage_error):
    assert "queue" in usage_error(["fig7", "queue"])


@pytest.mark.parametrize("argv, abbreviation", [
    (["crashtest", "queue", "--no-w"], "--no-w"),
    (["soak", "queue", "--no-med"], "--no-med"),
    (["sweep", "--workload", "queue"], "--workload"),
    (["lint", "queue", "--des", "all"], "--des"),
])
def test_abbreviated_options_are_refused(argv, abbreviation, usage_error):
    assert abbreviation in usage_error(argv)


@pytest.mark.parametrize("argv, name", [
    (["trace", "nope"], "'nope'"),
    (["crashtest", "nope"], "'nope'"),
    (["soak", "nope"], "'nope'"),
    (["lint", "nope"], "'nope'"),
    (["trace", "queue", "--design", "all"], "'all'"),
    (["crashtest", "queue", "--design", "tso"], "'tso'"),
    (["soak", "queue", "--design", "tso"], "'tso'"),
    (["repair", "overser-double-clwb", "--design", "all"], "'all'"),
    (["sweep", "--designs", "strandweaver,tso"], "'tso'"),
    (["sweep", "--workloads", "queue,nope"], "'nope'"),
    (["sweep", "--models", "txn,bogus"], "'bogus'"),
    (["sweep", "--workloads", ","], "--workloads"),
])
def test_unknown_names_are_usage_errors(argv, name, usage_error):
    assert name in usage_error(argv)


@pytest.mark.parametrize("argv", [
    ["trace"], ["crashtest"], ["soak"], ["lint"], ["modelcheck"], ["repair"],
])
def test_a_missing_target_is_a_usage_error(argv, usage_error):
    assert "required" in usage_error(argv)


@pytest.mark.parametrize("argv, option", [
    (["crashtest", "queue", "--crashes", "0"], "--crashes"),
    (["soak", "queue", "--seeds", "0"], "--seeds"),
    (["modelcheck", "corpus", "--budget", "0"], "--budget"),
    (["repair", "overser-double-clwb", "--budget", "0"], "--budget"),
    (["fig7", "-j", "0"], "-j"),
    (["sweep", "--jobs", "0"], "-j"),
    (["modelcheck", "corpus", "--samples", "-1"], "--samples"),
    (["trace", "queue", "--ring", "-1"], "--ring"),
    (["sweep", "--retries", "-1"], "--retries"),
    (["sweep", "--timeout", "0"], "--timeout"),
    (["sweep", "--timeout", "nan"], "--timeout"),
    (["crashtest", "queue", "--crashes", "many"], "--crashes"),
    (["fig7", "--ops", "0"], "--ops"),
    (["lint", "queue", "--ops", "-2"], "--ops"),
    (["bench", "--ops", "0"], "--ops"),
])
def test_out_of_range_numbers_are_usage_errors(argv, option, usage_error):
    assert option in usage_error(argv)


@pytest.mark.parametrize("argv", [
    ["repair", "unflushed-no-clwb", "--design", "tso", "--apply", "fixed.json"],
    ["bench", "--record", "bench.json", "--ops", "0", "--torn"],
    ["sweep", "--workloads", "nope", "--out", "sweep.json"],
    ["sweep", "--runlog", "run.jsonl", "--timeout", "-1"],
    ["trace", "queue", "--ring", "-1", "--out", "trace.json"],
])
def test_a_refusal_writes_no_file(argv, usage_error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    usage_error(argv)
    assert list(tmp_path.iterdir()) == []


def test_each_command_parses_its_documented_defaults():
    parse = _build_parser().parse_args
    assert parse(["fig7"]).ops == 16
    assert parse(["fig7"]).jobs == 1
    assert parse(["bench"]).ops is None  # REPRO_BENCH_OPS still applies
    assert parse(["bench"]).record is None
    assert parse(["bench", "--record"]).record == ""
    assert parse(["repair", "race-unlocked"]).design is None
    assert parse(["repair", "race-unlocked", "--apply"]).apply == ""
    assert parse(["repair", "race-unlocked", "--apply", "f.json"]).apply == "f.json"
    for command, design in (("trace", "strandweaver"), ("crashtest", "strandweaver"),
                            ("lint", "strandweaver"), ("soak", "all")):
        assert parse([command, "queue"]).design == design
    assert parse(["modelcheck", "corpus"]).design == "all"
    sweep = parse(["sweep"])
    assert sweep.workloads[0] == "queue" and len(sweep.workloads) == 8
    assert sweep.designs == ["intel-x86", "hops", "no-persist-queue",
                             "strandweaver", "non-atomic"]
    assert sweep.models == ["txn"]
    # The floors admit their boundary values.
    assert parse(["crashtest", "queue", "--crashes", "1"]).crashes == 1
    assert parse(["trace", "queue", "--ring", "0"]).ring == 0
    assert parse(["sweep", "--timeout", "0.5", "--retries", "0"]).timeout == 0.5


def test_no_command_runs_all(monkeypatch):
    ran = []
    monkeypatch.setattr(
        "repro.__main__._cmd_artefacts", lambda args: ran.append(args) or 0
    )
    assert main([]) == 0
    (args,) = ran
    assert (args.command, args.ops, args.jobs, args.json) == ("all", 16, 1, False)


def test_table1_loads_no_analysis_or_chaos_module():
    """Building every command's parser imports nothing ``table1`` does
    not need: the litmus and mutation tables stay in their handlers."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "table1", "--json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.harness.figures" in loaded
    assert not [
        name for name in loaded
        if name.startswith(("repro.analysis", "repro.chaos"))
    ]


def test_repair_apply_defaults_to_the_target_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["repair", "unflushed-no-clwb", "--apply"]) == 0
    assert "wrote repaired trace to unflushed-no-clwb.repaired.json" in (
        capsys.readouterr().out
    )
    assert [p.name for p in tmp_path.iterdir()] == ["unflushed-no-clwb.repaired.json"]


@pytest.mark.parametrize("argv, written", [
    (["bench", "--record", "mine.json"], r"mine\.json"),
    (["bench", "--record"], r"BENCH_\d{4}-\d\d-\d\d\.json"),
    (["bench"], None),
])
def test_bench_record_takes_its_file(argv, written, tmp_path, monkeypatch, capsys):
    from repro.prof import bench

    monkeypatch.chdir(tmp_path)
    entry = {"figures": {}, "total_wall_s": 1.0, "total_cells": 0,
             "cells_per_s": 0.0, "git_sha": None, "ops_per_thread": 2}
    monkeypatch.setattr(bench, "record_run", lambda ops_per_thread: entry)
    assert main(argv + ["--ops", "2", "--json"]) == 0
    capsys.readouterr()
    files = [p.name for p in tmp_path.iterdir()]
    if written is None:
        assert files == []
    else:
        (name,) = files
        assert re.fullmatch(written, name)
        assert bench.load_trajectory(name)["runs"] == [entry]
