"""Sweep resilience: dead workers, hung cells, retries, failure
provenance, and resuming a killed or interrupted sweep from the cache."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness import sweep
from repro.harness.cachedir import CellCache
from repro.harness.experiment import clear_cache
from repro.harness.sweep import (
    TEST_HANG_ENV,
    TEST_KILL_ENV,
    CellFailure,
    SweepCell,
    run_sweep,
)

OPS = 4
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


def _cells():
    return [
        SweepCell("queue", "strandweaver", ops_per_thread=OPS),
        SweepCell("hashmap", "strandweaver", ops_per_thread=OPS),
        SweepCell("queue", "intel-x86", ops_per_thread=OPS),
        SweepCell("hashmap", "intel-x86", ops_per_thread=OPS),
    ]


# -- worker death isolation ----------------------------------------------


def test_killed_worker_fails_exactly_one_cell(monkeypatch):
    """SIGKILL mid-cell (OOM-killer stand-in): the poisoned cell reports
    worker-lost, every other cell — including pool-mates that were in
    flight when the pool broke — completes."""
    cells = _cells()
    monkeypatch.setenv(TEST_KILL_ENV, cells[1].label())
    result = run_sweep(cells, jobs=2, use_memo=False)
    assert result.errors == 1
    for res in result.cells:
        if res.cell == cells[1]:
            assert res.failure is not None
            assert res.failure.kind == "worker-lost"
            assert res.failure.attempts == 1
            assert "died" in res.error
        else:
            assert res.ok, res.error


def test_transient_worker_death_is_retried_to_ok(tmp_path, monkeypatch):
    """A worker killed once (a marker file makes the kill one-shot) costs
    its cell one re-run, not a failure."""
    cells = _cells()
    victim = cells[1].label()
    marker = tmp_path / "killed-once"
    original = sweep._execute

    def dies_once(cell):
        if cell.label() == victim and not marker.exists():
            marker.write_text(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return original(cell)

    # the pools fork after the patch, so their workers inherit it
    monkeypatch.setattr(sweep, "_execute", dies_once)
    result = run_sweep(cells, jobs=2, use_memo=False, retries=1)
    assert marker.exists(), "the victim's worker never ran"
    assert int(marker.read_text()) != os.getpid()
    assert result.errors == 0, [res.error for res in result.cells]
    undisturbed = run_sweep(cells, jobs=1, use_memo=False)
    assert result.to_json(deterministic=True) == undisturbed.to_json(
        deterministic=True
    )


def test_killed_worker_retries_then_fails(monkeypatch):
    cells = _cells()[:2]
    monkeypatch.setenv(TEST_KILL_ENV, cells[0].label())
    result = run_sweep(cells, jobs=2, use_memo=False, retries=1)
    bad = result.result_for(cells[0])
    assert bad.failure is not None
    assert bad.failure.kind == "worker-lost"
    assert bad.failure.attempts == 2
    assert result.result_for(cells[1]).ok


# -- per-cell timeout ----------------------------------------------------


def test_hung_cell_times_out_alone(monkeypatch):
    cells = _cells()[:3]
    monkeypatch.setenv(TEST_HANG_ENV, cells[0].label())
    result = run_sweep(cells, jobs=2, use_memo=False, timeout=2.0)
    bad = result.result_for(cells[0])
    assert bad.failure is not None
    assert bad.failure.kind == "timeout"
    assert "2" in bad.failure.message
    for cell in cells[1:]:
        assert result.result_for(cell).ok


def test_timeout_applies_even_at_jobs_1(monkeypatch):
    cell = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    monkeypatch.setenv(TEST_HANG_ENV, cell.label())
    result = run_sweep([cell], jobs=1, use_memo=False, timeout=1.5)
    assert result.cells[0].failure is not None
    assert result.cells[0].failure.kind == "timeout"


# -- bounded retries and typed provenance --------------------------------


def test_exception_failure_is_typed_and_retried():
    cells = [
        SweepCell("queue", "strandweaver", ops_per_thread=OPS),
        SweepCell("no-such-benchmark", "strandweaver", ops_per_thread=OPS),
    ]
    result = run_sweep(cells, jobs=1, use_memo=False, retries=2)
    bad = result.result_for(cells[1])
    assert not bad.ok
    failure = bad.failure
    assert failure is not None
    assert failure.kind == "exception"
    assert failure.attempts == 3  # 1 + 2 retries, all deterministic fails
    assert failure.exception  # the exception class name is captured
    assert "no-such-benchmark" in failure.traceback
    # Back-compat: .error remains the human-readable traceback string.
    assert "no-such-benchmark" in bad.error
    assert result.result_for(cells[0]).ok


def test_retried_exception_same_result_in_pool_mode():
    cells = [SweepCell("no-such-benchmark", "strandweaver", ops_per_thread=OPS),
             SweepCell("queue", "strandweaver", ops_per_thread=OPS)]
    result = run_sweep(cells, jobs=2, use_memo=False, retries=1)
    bad = result.result_for(cells[0])
    assert bad.failure is not None
    assert bad.failure.kind == "exception"
    assert bad.failure.attempts == 2


def test_failure_provenance_in_sweep_json():
    from repro.obs.export import sweep_to_json

    cells = [SweepCell("no-such-benchmark", "strandweaver", ops_per_thread=OPS)]
    result = run_sweep(cells, jobs=1, use_memo=False)
    doc = sweep_to_json(result)
    (bad,) = doc["cells"]
    assert bad["ok"] is False
    assert bad["failure"]["kind"] == "exception"
    assert bad["failure"]["attempts"] == 1
    assert "no-such-benchmark" in bad["failure"]["traceback"]
    json.dumps(doc, allow_nan=False)


def test_cell_failure_str_roundtrip():
    failure = CellFailure(
        kind="timeout", exception="TimeoutError", message="cell exceeded 5s"
    )
    assert str(failure) == "TimeoutError: cell exceeded 5s"
    with_tb = CellFailure(
        kind="exception", exception="ValueError", message="boom",
        traceback="Traceback ...\nValueError: boom",
    )
    assert str(with_tb) == with_tb.traceback


# -- cache survives torn writes ------------------------------------------


def test_truncated_cache_entry_is_recomputed_not_served(tmp_path):
    """A partially-written entry (power loss before the data hit disk,
    rename survived) must read as a miss and be transparently repaired."""
    cache = CellCache(str(tmp_path))
    cell = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    first = run_sweep([cell], cache=cache, use_memo=False)
    assert first.cells[0].ok
    path = cache.path_for(cell.key())

    whole = open(path, "rb").read()
    with open(path, "wb") as fh:  # torn mid-file
        fh.write(whole[: len(whole) // 2])
    assert cache.lookup(cell.fingerprint()) is None

    clear_cache()
    again = run_sweep([cell], cache=cache, use_memo=False)
    assert again.cache_hits == 0 and again.cache_misses == 1
    assert again.cells[0].ok
    assert again.cells[0].stats.summary() == first.cells[0].stats.summary()

    # The recompute rewrote a complete entry: next lookup hits.
    assert cache.lookup(cell.fingerprint()) is not None

    # Zero-length entry (rename raced an empty temp file) is also a miss.
    with open(path, "wb"):
        pass
    assert cache.lookup(cell.fingerprint()) is None
    assert os.path.getsize(path) == 0


# -- resume from the cache -------------------------------------------------


def _entries(root):
    return sorted(str(p) for p in root.rglob("*.json"))


def test_interrupted_serial_sweep_keeps_finished_cells(tmp_path, monkeypatch):
    """An interrupt on the third of four cells leaves the two finished
    cells in the cache, where a rerun finds them."""
    cells = _cells()
    original = sweep._execute
    ran = []

    def interrupted(cell):
        ran.append(cell)
        if len(ran) == 3:
            raise KeyboardInterrupt
        return original(cell)

    monkeypatch.setattr(sweep, "_execute", interrupted)
    cache = CellCache(str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    assert len(_entries(tmp_path)) == 2
    cached = [c for c in cells if cache.lookup(c.fingerprint()) is not None]
    assert cached == cells[:2]


def test_failed_settle_tears_the_pool_down(tmp_path, monkeypatch):
    """A cache write that fails while another chunk is still running
    propagates, and the busy worker is killed, not left to finish."""
    cache = CellCache(str(tmp_path))

    def disk_full(fingerprint, stats):
        raise OSError("disk full")

    monkeypatch.setattr(cache, "store", disk_full)
    # the hashmap chunk hangs; the queue chunk's first settle fails
    monkeypatch.setenv(TEST_HANG_ENV, "hashmap/strandweaver/txn")
    with pytest.raises(OSError, match="disk full"):
        run_sweep(_cells(), jobs=2, cache=cache, use_memo=False)
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def _sweep_cli(args, env=None, jobs=2):
    """``repro sweep`` in its own process group, so every process of the
    sweep — the CLI and its pool workers — can be found after a kill."""
    full_env = {
        k: v for k, v in os.environ.items() if k not in (TEST_HANG_ENV, TEST_KILL_ENV)
    }
    full_env.update(env or {}, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "--workloads", "queue,hashmap",
         "--designs", "intel-x86,strandweaver", "--ops", str(OPS), "-j", str(jobs),
         "--deterministic", "--json", *args],
        env=full_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )


def _live_group_members(pgid):
    """Pids of the processes in group ``pgid`` that have not exited
    (zombies count as exited)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # after the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


def _kill9_drill(tmp_path, jobs, settled):
    """SIGKILL a ``-j jobs`` sweep whose hashmap/strandweaver cell hangs,
    once the ``settled`` cells are in the cache: no process of the sweep
    survives, and a rerun reads those cells back from the cache, runs
    only the rest, and prints the uninterrupted run's bytes."""
    control = _sweep_cli(["--no-cache"], jobs=jobs)
    control_out, err = control.communicate(timeout=300)
    assert control.returncode == 0, err.decode()

    cache_dir = tmp_path / "cache"
    cache = CellCache(str(cache_dir))
    settled_entries = [
        cache.path_for(SweepCell(bench, design, ops_per_thread=OPS).key())
        for bench, design in settled
    ]
    with _sweep_cli(
        ["--cache-dir", str(cache_dir)],
        env={TEST_HANG_ENV: "hashmap/strandweaver/txn"}, jobs=jobs,
    ) as proc:
        try:
            deadline = time.monotonic() + 30.0
            while not all(os.path.exists(p) for p in settled_entries):
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "the settled cells never reached the cache"
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
            deadline = time.monotonic() + 5.0
            while _live_group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _live_group_members(proc.pid), "pool workers outlived the sweep"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert _entries(cache_dir) == sorted(settled_entries)
    before = {p: os.stat(p) for p in settled_entries}

    rerun = _sweep_cli(["--cache-dir", str(cache_dir)], jobs=jobs)
    out, err = rerun.communicate(timeout=300)
    assert rerun.returncode == 0, err.decode()
    assert out == control_out
    # The settled cells were read, not re-run: a re-run would have
    # replaced their entries with new files.
    for path, st in before.items():
        now = os.stat(path)
        assert (now.st_ino, now.st_mtime_ns) == (st.st_ino, st.st_mtime_ns)
    assert len(_entries(cache_dir)) == 4


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_kill9_sweep_resumes_from_the_cache(tmp_path):
    """``-j 2``: the hashmap chunk hangs, so only the queue chunk's two
    cells can settle before the kill."""
    _kill9_drill(
        tmp_path, jobs=2,
        settled=[("queue", "intel-x86"), ("queue", "strandweaver")],
    )


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_kill9_serial_sweep_resumes_from_the_cache(tmp_path):
    """``-j 1``: the three cells before the hanging one settle, in order,
    before the kill."""
    _kill9_drill(
        tmp_path, jobs=1,
        settled=[("queue", "intel-x86"), ("queue", "strandweaver"),
                 ("hashmap", "intel-x86")],
    )
