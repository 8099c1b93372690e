"""Crash-safe resume: ``run_sweep`` settles each cell (memo, on-disk
cache, progress monitor) as soon as its outcome reaches the parent, so an
interrupted sweep — or figure run — keeps every finished cell, and a
rerun reads those back and runs only the rest.  Pool workers exit when
their parent dies."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.__main__ import main
from repro.harness import (
    figure7,
    figure8,
    figure9,
    figure10,
    model_sensitivity,
    sweep,
    table2,
)
from repro.harness.cachedir import CellCache
from repro.harness.experiment import clear_cache, memo_lookup
from repro.harness.sweep import TEST_HANG_ENV, TEST_KILL_ENV, SweepCell, run_sweep
from repro.prof.runlog import Progress, RunLog, read_runlog

OPS = 4
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


def _cells():
    """Four cells of two programs; a 2-job pool runs them as the chunks
    [queue x 2] and [hashmap x 2] and collects them in that order."""
    return [
        SweepCell("queue", "strandweaver", ops_per_thread=OPS),
        SweepCell("hashmap", "strandweaver", ops_per_thread=OPS),
        SweepCell("queue", "intel-x86", ops_per_thread=OPS),
        SweepCell("hashmap", "intel-x86", ops_per_thread=OPS),
    ]


def _settle_order():
    """The order in which a 2-job pool settles :func:`_cells`."""
    cells = _cells()
    return [cells[0], cells[2], cells[1], cells[3]]


def _entries(root):
    return sorted(str(p) for p in root.rglob("*.json"))


def _cached(cache, cells):
    return [cell for cell in cells if cache.lookup(cell.fingerprint()) is not None]


def _doc(result):
    return json.dumps(result.to_json(deterministic=True), sort_keys=True)


def _control():
    """Deterministic document of an uninterrupted, uncached run."""
    doc = _doc(run_sweep(_cells(), jobs=1, use_memo=False))
    clear_cache()
    return doc


def _interrupt_on_call(monkeypatch, stop):
    """Make the ``stop``-th call of ``sweep._execute`` raise
    ``KeyboardInterrupt``; returns the list of cells it was called for."""
    original = sweep._execute
    calls = []

    def interrupted(cell):
        calls.append(cell)
        if len(calls) == stop:
            raise KeyboardInterrupt
        return original(cell)

    monkeypatch.setattr(sweep, "_execute", interrupted)
    return calls


def _count_calls(monkeypatch):
    """Record every cell ``sweep._execute`` runs in this process."""
    original = sweep._execute
    calls = []

    def counted(cell):
        calls.append(cell)
        return original(cell)

    monkeypatch.setattr(sweep, "_execute", counted)
    return calls


class _Recorder:
    """Progress stand-in: records each done-count it is shown, optionally
    interrupting on one of them, and whether it was closed."""

    def __init__(self, on_update=None, interrupt_at=None):
        self.on_update = on_update
        self.interrupt_at = interrupt_at
        self.seen = []
        self.closed = False

    def update(self, done):
        self.seen.append(done if self.on_update is None else self.on_update(done))
        if done == self.interrupt_at:
            raise KeyboardInterrupt

    def close(self):
        self.closed = True


def _wait_for_no_children(timeout=5.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


# -- serial path: a cell is settled as soon as _execute returns -----------


@pytest.mark.parametrize("stop", [1, 2, 3, 4])
def test_serial_interrupt_keeps_exactly_the_finished_cells(tmp_path, monkeypatch, stop):
    cells = _cells()
    _interrupt_on_call(monkeypatch, stop)
    cache = CellCache(str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    assert len(_entries(tmp_path)) == stop - 1
    assert _cached(cache, cells) == cells[: stop - 1]


@pytest.mark.parametrize("stop", [1, 2, 3, 4])
def test_serial_rerun_runs_only_the_unfinished_cells(tmp_path, monkeypatch, stop):
    """Across the interrupted run and its rerun every cell completes
    exactly once, and the rerun's document is the uninterrupted one."""
    control = _control()
    cells = _cells()
    cache = CellCache(str(tmp_path))
    first = _interrupt_on_call(monkeypatch, stop)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    finished = first[: stop - 1]
    monkeypatch.undo()

    again = _count_calls(monkeypatch)
    rerun = run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    assert sorted(finished + again, key=cells.index) == cells
    assert rerun.cache_hits == stop - 1
    assert rerun.cache_misses == len(cells) - (stop - 1)
    assert [res.source for res in rerun.cells] == [
        "cache" if cell in finished else "run" for cell in cells
    ]
    assert _doc(rerun) == control


def test_serial_interrupt_keeps_finished_cells_in_the_memo(monkeypatch):
    """Without a cache the memo is the only store, and it is settled per
    cell too."""
    cells = _cells()
    _interrupt_on_call(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cells, jobs=1)
    assert [memo_lookup(cell.run_key()) is not None for cell in cells] == [
        True, True, False, False
    ]


def test_interrupted_runlog_records_the_settled_cells(tmp_path, monkeypatch):
    """The run log of an interrupted sweep lists exactly the cells that
    reached the cache, and no campaign finish."""
    cells = _cells()
    _interrupt_on_call(monkeypatch, 3)
    cache = CellCache(str(tmp_path / "cache"))
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path, kind="sweep", total=len(cells))
    try:
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cells, jobs=1, cache=cache, use_memo=False, runlog=log)
    finally:
        log.close()
    events = read_runlog(path)
    finished = [e["cell"] for e in events if e["event"] == "cell-finish"]
    assert finished == [cell.label() for cell in _cached(cache, cells)]
    assert len(finished) == 2
    assert "finish" not in [e["event"] for e in events]


# -- pool path: a chunk's cells are settled when its chunk is collected ---


@pytest.mark.parametrize(
    "jobs,timeout,stop",
    [(2, None, 1), (2, None, 2), (2, None, 3), (2, None, 4), (1, 60.0, 2)],
    ids=["j2-stop1", "j2-stop2", "j2-stop3", "j2-stop4", "j1-timeout-stop2"],
)
def test_pool_interrupt_keeps_the_collected_cells(tmp_path, jobs, timeout, stop):
    """An interrupt while the parent settles collected cells leaves those
    cells (the interrupted one included: it is cached before it is
    reported) in the cache, kills the pool, and a rerun runs the rest."""
    control = _control()
    cells = _cells()
    cache = CellCache(str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        run_sweep(
            cells, jobs=jobs, cache=cache, use_memo=False, timeout=timeout,
            progress=_Recorder(interrupt_at=stop),
        )
    assert not _wait_for_no_children(), "the interrupted pool was left running"
    order = _settle_order()
    assert sorted(_cached(cache, cells), key=order.index) == order[:stop]
    assert len(_entries(tmp_path)) == stop

    rerun = run_sweep(cells, jobs=jobs, cache=cache, use_memo=False, timeout=timeout)
    assert (rerun.cache_hits, rerun.cache_misses) == (stop, len(cells) - stop)
    assert _doc(rerun) == control


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_cell_is_cached_before_it_is_reported(tmp_path, jobs):
    cache = CellCache(str(tmp_path))
    progress = _Recorder(on_update=lambda done: len(_entries(tmp_path)))
    result = run_sweep(_cells(), jobs=jobs, cache=cache, use_memo=False,
                       progress=progress)
    assert result.errors == 0
    assert progress.seen == [1, 2, 3, 4]
    assert progress.closed


# -- what a rerun reads back, and what it runs again ------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_rerun_of_a_finished_sweep_runs_nothing(tmp_path, monkeypatch, jobs):
    cache = CellCache(str(tmp_path))
    first = run_sweep(_cells(), jobs=jobs, cache=cache)
    clear_cache()

    def must_not_run(cell):
        raise AssertionError(f"{cell.label()} was run again")

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully cached sweep started a pool")

    monkeypatch.setattr(sweep, "_execute", must_not_run)
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
    again = run_sweep(_cells(), jobs=jobs, cache=cache)
    assert (again.cache_hits, again.cache_misses) == (4, 0)
    assert [res.source for res in again.cells] == ["cache"] * 4
    assert _doc(again) == _doc(first)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_is_not_cached_and_runs_again(tmp_path, jobs):
    good = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    bad = SweepCell("no-such-benchmark", "strandweaver", ops_per_thread=OPS)
    cache = CellCache(str(tmp_path))
    first = run_sweep([good, bad], jobs=jobs, cache=cache, use_memo=False)
    assert first.errors == 1
    assert _cached(cache, [good, bad]) == [good]
    assert len(_entries(tmp_path)) == 1

    again = run_sweep([good, bad], jobs=jobs, cache=cache, use_memo=False)
    assert (again.cache_hits, again.cache_misses) == (1, 1)
    failure = again.result_for(bad).failure
    assert failure is not None
    assert (failure.kind, failure.attempts) == ("exception", 1)
    assert again.result_for(good).source == "cache"


@pytest.mark.parametrize("hook", [TEST_KILL_ENV, TEST_HANG_ENV])
def test_lost_or_hung_cell_is_not_cached(tmp_path, monkeypatch, hook):
    """A cell whose worker died or hung settles as a failure; its
    neighbours are cached and a clean rerun runs only that cell."""
    cells = _cells()
    victim = cells[1]
    monkeypatch.setenv(hook, victim.label())
    cache = CellCache(str(tmp_path))
    timeout = 2.0 if hook == TEST_HANG_ENV else None
    first = run_sweep(cells, jobs=2, cache=cache, use_memo=False, timeout=timeout)
    assert [res.cell for res in first.cells if not res.ok] == [victim]
    assert _cached(cache, cells) == [c for c in cells if c != victim]

    monkeypatch.delenv(hook)
    again = run_sweep(cells, jobs=2, cache=cache, use_memo=False)
    assert again.errors == 0
    assert (again.cache_hits, again.cache_misses) == (3, 1)
    assert again.result_for(victim).source == "run"


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_error_is_retried_then_cached(tmp_path, monkeypatch, jobs):
    """A cell that fails once and passes on its retry settles once, as
    ok, and is cached; a marker file makes the failure one-shot across
    pool workers."""
    cells = _cells()
    victim = cells[2].label()
    marker = tmp_path / "failed-once"
    original = sweep._execute

    def fails_once(cell):
        if cell.label() == victim and not marker.exists():
            marker.write_text("x")
            return "error", ("OSError", "transient", ""), 0.0, os.getpid()
        return original(cell)

    monkeypatch.setattr(sweep, "_execute", fails_once)
    cache = CellCache(str(tmp_path / "cache"))
    progress = _Recorder()
    result = run_sweep(cells, jobs=jobs, cache=cache, use_memo=False, retries=1,
                       progress=progress)
    assert marker.exists()
    assert result.errors == 0
    assert progress.seen == [1, 2, 3, 4]
    assert _cached(cache, cells) == cells


@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicate_cells_settle_once_into_the_cache(tmp_path, jobs):
    a, b = _cells()[:2]
    cells = [a, b, a, b, a]
    cache = CellCache(str(tmp_path))
    progress = _Recorder()
    result = run_sweep(cells, jobs=jobs, cache=cache, use_memo=False,
                       progress=progress)
    assert [res.cell for res in result.cells] == cells
    assert result.errors == 0
    assert len(_entries(tmp_path)) == 2
    assert result.cache_misses == 2
    assert progress.seen == [1, 2, 3, 4, 5]
    assert result.cells[0].stats is result.cells[2].stats is result.cells[4].stats


@pytest.mark.parametrize(
    "jobs,timeout", [(1, None), (2, None), (1, 5.0)],
    ids=["serial", "pool", "timeout"],
)
def test_empty_sweep_settles_nothing(tmp_path, monkeypatch, jobs, timeout):
    def no_pool(*args, **kwargs):
        raise AssertionError("an empty sweep started a pool")

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
    progress = _Recorder()
    result = run_sweep([], jobs=jobs, cache=CellCache(str(tmp_path)),
                       timeout=timeout, progress=progress)
    assert result.cells == [] and result.errors == 0
    assert (result.cache_hits, result.cache_misses) == (0, 0)
    assert _entries(tmp_path) == []
    assert progress.seen == [] and progress.closed


@pytest.mark.parametrize("jobs", [1, 2])
def test_rerun_runlog_marks_resumed_cells_as_cache_reads(tmp_path, monkeypatch, jobs):
    cells = _cells()
    cache = CellCache(str(tmp_path / "cache"))
    _interrupt_on_call(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    monkeypatch.undo()

    path = str(tmp_path / "rerun.jsonl")
    log = RunLog(path, kind="sweep", total=len(cells))
    run_sweep(cells, jobs=jobs, cache=cache, use_memo=False, runlog=log)
    log.close()
    events = read_runlog(path)
    sources = {e["cell"]: e["source"] for e in events if e["event"] == "cell-finish"}
    assert sources == {
        cell.label(): "cache" if i < 2 else "run" for i, cell in enumerate(cells)
    }
    (fin,) = [e for e in events if e["event"] == "finish"]
    assert fin["done"] == len(cells) and fin["errors"] == 0


# -- the CLI and the figures resume the same way ----------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_cli_rerun_reports_the_resumed_cells(tmp_path, monkeypatch, capsys, jobs):
    argv = ["sweep", "--workloads", "queue,hashmap",
            "--designs", "intel-x86,strandweaver", "--ops", str(OPS),
            "-j", str(jobs), "--cache-dir", str(tmp_path), "--json"]

    def interrupt_at_two(self, done):
        if done == 2:
            raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(Progress, "update", interrupt_at_two)
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--progress"])
    assert len(_entries(tmp_path)) == 2
    capsys.readouterr()
    clear_cache()

    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["cache_hits"], doc["cache_misses"]) == (2, 2)
    assert len(_entries(tmp_path)) == 4


FIGURES = {
    "table2": table2,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "models": model_sensitivity,
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_interrupted_figure_resumes_from_the_cache(tmp_path, monkeypatch, name):
    figure = FIGURES[name]
    with monkeypatch.context() as patch:
        calls = _count_calls(patch)
        control = figure(ops_per_thread=2, jobs=1, cache=None).to_json()
    total = len(calls)
    clear_cache()

    cache = CellCache(str(tmp_path))
    with monkeypatch.context() as patch:
        _interrupt_on_call(patch, 3)
        with pytest.raises(KeyboardInterrupt):
            figure(ops_per_thread=2, jobs=1, cache=cache)
    assert len(_entries(tmp_path)) == 2
    clear_cache()

    rerun_calls = _count_calls(monkeypatch)
    assert figure(ops_per_thread=2, jobs=1, cache=cache).to_json() == control
    assert len(rerun_calls) == total - 2


# -- pool workers exit with their parent ------------------------------------

_ORPHAN_SCRIPT = """
import os, time
from repro.harness import sweep

if os.fork() == 0:
    sweep._exit_with_parent()
    print(os.getpid(), flush=True)
    time.sleep(60)
    os._exit(0)
os.close(1)  # the worker alone holds the pipe
time.sleep(60)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _spawn_parent_and_worker():
    """A parent process whose forked child has run the pool-worker
    initializer; returns (parent process, child pid)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    if not line:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
        pytest.fail("the worker initializer did not run")
    return proc, int(line)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_worker_initializer_keeps_the_worker_while_the_parent_lives():
    proc, child = _spawn_parent_and_worker()
    try:
        time.sleep(4 * sweep._PARENT_POLL_S)
        assert _running(child)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_worker_initializer_exits_once_the_parent_is_killed():
    proc, child = _spawn_parent_and_worker()
    try:
        assert _running(child)
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
        deadline = time.monotonic() + 5.0
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(child), "the orphaned worker kept running"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()
