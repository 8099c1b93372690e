"""Campaign run log: JSONL round-trip, torn tails, deterministic guard."""

import json

import pytest

from repro.__main__ import main
from repro.harness.sweep import SweepCell, run_sweep
from repro.prof.runlog import RUNLOG_SCHEMA, Progress, RunLog, read_runlog


def test_runlog_round_trip(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=2, meta={"jobs": 2})
    log.cell_start("queue/strandweaver/txn", 0)
    log.cell_finish("queue/strandweaver/txn", 0, ok=True, wall_time_s=0.5,
                    source="run", worker=123)
    log.finish(done=1, errors=0, busy_time_s=0.5)
    events = read_runlog(path)
    assert [e["event"] for e in events] == [
        "start", "cell-start", "cell-finish", "finish"
    ]
    assert all(e["schema"] == RUNLOG_SCHEMA for e in events)
    assert events[0]["meta"] == {"jobs": 2}
    assert events[2]["wall_time_s"] == 0.5 and events[2]["worker"] == 123
    assert events[3]["busy_time_s"] == 0.5


def test_closed_runlog_drops_silently(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="soak", total=1)
    log.close()
    log.cell_start("x", 0)  # must not raise or write
    assert len(read_runlog(path)) == 1


def test_torn_tail_tolerated(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=3)
    log.cell_finish("a", 0, ok=True, wall_time_s=0.1)
    log.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": "repro.runlog/1", "event": "cell-fin')
    events = read_runlog(path)
    assert [e["event"] for e in events] == ["start", "cell-finish"]


def test_malformed_interior_line_rejected(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=1)
    log.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
        fh.write(json.dumps({"schema": RUNLOG_SCHEMA, "event": "finish"}) + "\n")
    with pytest.raises(ValueError, match="malformed"):
        read_runlog(path)


def test_wrong_schema_rejected(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"schema": "repro.sweep/1", "event": "start"}\n')
    with pytest.raises(ValueError, match="repro.runlog/1"):
        read_runlog(str(path))


def test_non_object_line_rejected(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('["schema", "repro.runlog/1"]\n')
    with pytest.raises(ValueError, match=r"run\.jsonl:1: expected schema"):
        read_runlog(str(path))


def test_empty_runlog_has_no_records(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text("")
    assert read_runlog(str(path)) == []


def test_blank_lines_skipped(tmp_path):
    record = json.dumps({"schema": RUNLOG_SCHEMA, "event": "start"})
    path = tmp_path / "run.jsonl"
    path.write_text(f"\n{record}\n\n{record}\n\n")
    assert [e["event"] for e in read_runlog(str(path))] == ["start", "start"]


def test_complete_final_line_without_newline_kept(tmp_path):
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=1)
    log.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": RUNLOG_SCHEMA, "event": "finish"}))
    assert [e["event"] for e in read_runlog(path)] == ["start", "finish"]


def test_every_truncation_of_the_last_record_reads_the_prefix(tmp_path):
    """Whatever byte a kill -9 cut the last append at, the reader returns
    the records before it, and the whole record once it is complete."""
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=1)
    log.cell_finish("queue/strandweaver/txn", 0, ok=True, wall_time_s=0.1)
    log.close()
    whole = open(path, encoding="utf-8").read()
    head, last = whole[: whole.rindex("{")], whole[whole.rindex("{"):]
    for cut in range(len(last)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + last[:cut])
        events = [e["event"] for e in read_runlog(path)]
        assert events == (["start", "cell-finish"] if cut >= len(last) - 1
                          else ["start"]), cut


def test_progress_writes_line(tmp_path):
    out = []

    class Sink:
        def write(self, s):
            out.append(s)

        def flush(self):
            pass

    progress = Progress(4, label="sweep", stream=Sink())
    progress.update(2)
    progress.close()
    line = "".join(out)
    assert "2/4" in line and "50.0%" in line


def test_deterministic_guard_excludes_telemetry(tmp_path, capsys):
    """--deterministic promises byte-identical artefacts; wall-clock
    telemetry flags must be rejected before any work runs."""
    runlog = tmp_path / "run.jsonl"
    rc = main([
        "sweep", "--workloads", "queue", "--designs", "strandweaver",
        "--ops", "2", "--deterministic", "--runlog", str(runlog),
    ])
    assert rc == 2
    assert not runlog.exists()
    assert "deterministic" in capsys.readouterr().err
    rc = main([
        "sweep", "--workloads", "queue", "--designs", "strandweaver",
        "--ops", "2", "--deterministic", "--progress",
    ])
    assert rc == 2


def test_sweep_parallel_runlog_accounting(tmp_path):
    """A -j2 sweep's run log covers every cell, and the per-cell wall
    times it records sum to the campaign's reported busy time."""
    cells = [
        SweepCell(bench, design, "txn", 2)
        for bench in ("queue", "hashmap")
        for design in ("strandweaver", "intel-x86")
    ]
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=len(cells), meta={"jobs": 2})
    result = run_sweep(cells, jobs=2, runlog=log)
    log.close()
    events = read_runlog(path)
    finishes = [e for e in events if e["event"] == "cell-finish"]
    fin = [e for e in events if e["event"] == "finish"][0]
    assert len(finishes) == len(cells)
    assert fin["done"] == len(cells) and fin["errors"] == 0
    summed = sum(e["wall_time_s"] for e in finishes)
    busy = fin["busy_time_s"]
    assert busy == pytest.approx(summed, rel=0.2, abs=0.05)
    assert busy == pytest.approx(
        sum(res.wall_time for res in result.cells), rel=1e-6, abs=1e-6
    )


def test_soak_runlog(tmp_path):
    path = str(tmp_path / "soak.jsonl")
    rc = main([
        "soak", "queue", "--seeds", "3", "--runlog", path, "--no-shrink",
    ])
    assert rc == 0
    events = read_runlog(path)
    assert [e["event"] for e in events].count("cell-finish") == 3
    assert events[0]["kind"] == "soak"
