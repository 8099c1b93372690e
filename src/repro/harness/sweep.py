"""Parallel sweep engine: fan out simulation cells over a process pool.

Like the paper's evaluation — 8 benchmarks x 5 designs x 3 language
models plus the Figure 9/10 sweeps, each an independent gem5 run — our
cells are embarrassingly parallel: one cell is one (benchmark, design,
model, workload knobs, :class:`MachineConfig`) simulation with no shared
state.  :func:`run_sweep` evaluates any iterable of fully-specified
cells with

* **deterministic ordering** — results come back in input order no
  matter how the pool schedules them;
* **per-cell error capture** — one failed cell reports its exception
  class, message and traceback (:class:`CellFailure`), the rest of the
  sweep completes;
* **program affinity** — a pool task is a chunk of the cells that
  replay one canonical program (one (benchmark, model, workload
  config): :func:`repro.harness.experiment.program_key`), so a worker
  generates and specializes each program once; a group larger than
  ⌈outstanding cells / jobs⌉ is split into chunks of at most that size,
  so a one-program sweep still uses every worker.  Before each chunk a
  worker drops every other program, so it holds one at a time;
* **worker-loss isolation** — a worker that dies (OOM-killed, segfault,
  SIGKILL) poisons only the cell it was running: the pool is respawned
  and every cell of every unfinished chunk is re-executed in isolation,
  so the culprit is identified definitively instead of taking innocent
  neighbours down with a ``BrokenProcessPool``;
* **per-cell timeouts and bounded retries** — ``timeout`` kills a hung
  cell's worker and fails (or retries) just that cell (a chunk's
  deadline is ``timeout`` x its cell count); ``retries`` re-runs failing
  cells a bounded number of times, with the attempt count recorded in
  the failure;
* **three-level caching** — the in-process memo (shared with
  :func:`repro.harness.experiment.run_cell`), then the content-addressed
  on-disk cache (:mod:`repro.harness.cachedir`), then a real run.
  Identical cells appearing twice in one sweep are simulated once;
* **crash-safe resume** — a cell is settled (memo, on-disk cache,
  progress monitor) as soon as its outcome reaches this process: in the
  pool, when its chunk is collected.  A killed or interrupted sweep
  loses only the cells still running, and rerunning it reads the rest
  back from the cache.  Pool workers exit once their parent dies, so a
  killed sweep leaves no process behind.

``jobs <= 1`` runs every cell inline in this process (no pool, no
pickling), which is the bit-identical reference path the parallel path
is validated against.  Setting ``timeout`` forces the pool path even at
``jobs=1``: a hung cell can only be killed from outside its process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: test-only fault hooks, read inside the worker: a cell whose label
#: equals the value of KILL dies by SIGKILL (simulating an OOM-killed or
#: segfaulting worker); a cell matching HANG sleeps far past any test
#: timeout (simulating a livelocked cell).  Unset in production.
TEST_KILL_ENV = "REPRO_SWEEP_TEST_KILL"
TEST_HANG_ENV = "REPRO_SWEEP_TEST_HANG"
_HANG_SECONDS = 60.0
#: seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_S = 0.5

from repro.harness.cachedir import CellCache, cell_fingerprint, fingerprint_key
from repro.harness.experiment import (
    RunKey,
    default_config,
    memo_lookup,
    memo_store,
    program_key,
    release_programs,
    run_cell,
)
from repro.prof.runlog import Progress, RunLog
from repro.sim.config import TABLE_I, MachineConfig
from repro.sim.stats import MachineStats
from repro.workloads import WorkloadConfig


class SweepMonitor:
    """Fan-in point for campaign telemetry: forwards cell lifecycle
    events to an optional ``repro.runlog/1`` writer and an optional live
    progress line.  With neither attached every call is a no-op, so the
    engine's behaviour (and its deterministic results) are unchanged."""

    def __init__(
        self,
        total: int,
        runlog: Optional[RunLog] = None,
        progress: Optional[Progress] = None,
    ) -> None:
        self.runlog = runlog
        self.progress = progress
        self.total = total
        self.done = 0

    @property
    def enabled(self) -> bool:
        return self.runlog is not None or self.progress is not None

    def started(self, label: str, index: int) -> None:
        if self.runlog is not None:
            self.runlog.cell_start(label, index)

    def finished(
        self,
        label: str,
        index: int,
        ok: bool,
        wall_time_s: float,
        source: str = "run",
        worker: Optional[int] = None,
    ) -> None:
        self.done += 1
        if self.runlog is not None:
            self.runlog.cell_finish(
                label, index, ok, wall_time_s, source=source, worker=worker
            )
            self.runlog.maybe_heartbeat(self.done)
        if self.progress is not None:
            self.progress.update(self.done)

    def close(self, errors: int, busy_time_s: float) -> None:
        if self.runlog is not None:
            self.runlog.finish(self.done, errors, busy_time_s)
        if self.progress is not None:
            self.progress.close()


@dataclass(frozen=True)
class SweepCell:
    """One fully-specified simulation: everything that affects its result."""

    benchmark: str
    design: str
    model: str = "txn"
    ops_per_thread: int = 48
    ops_per_region: int = 1
    machine_cfg: MachineConfig = TABLE_I

    def workload_cfg(self) -> WorkloadConfig:
        return default_config(self.ops_per_thread, self.ops_per_region)

    def run_key(self) -> RunKey:
        return RunKey(
            self.benchmark,
            self.design,
            self.model,
            self.ops_per_thread,
            self.ops_per_region,
            self.machine_cfg,
        )

    def program_key(self) -> tuple:
        """Key of the canonical program this cell replays."""
        return program_key(self.benchmark, self.model, self.workload_cfg())

    def fingerprint(self) -> Dict[str, object]:
        return cell_fingerprint(
            self.benchmark, self.design, self.model,
            self.workload_cfg(), self.machine_cfg,
        )

    def key(self) -> str:
        """Content-address of this cell (the on-disk cache key)."""
        return fingerprint_key(self.fingerprint())

    def label(self) -> str:
        return f"{self.benchmark}/{self.design}/{self.model}"


@dataclass
class CellFailure:
    """Typed provenance of one cell's failure.

    ``kind`` is ``"exception"`` (the cell raised), ``"timeout"`` (it
    exceeded the per-cell budget and its worker was killed) or
    ``"worker-lost"`` (its worker process died — OOM killer, segfault,
    external SIGKILL).  ``attempts`` counts every execution attempt,
    including retries.
    """

    kind: str
    exception: str  #: exception class name (or a synthetic one)
    message: str
    traceback: str = ""
    attempts: int = 1

    def __str__(self) -> str:
        return self.traceback or f"{self.exception}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


@dataclass
class CellResult:
    """Outcome of one cell: stats on success, a typed failure otherwise."""

    cell: SweepCell
    stats: Optional[MachineStats]
    failure: Optional[CellFailure] = None
    wall_time: float = 0.0
    #: where the result came from: ``memo`` | ``cache`` | ``run``.
    source: str = "run"

    @property
    def error(self) -> Optional[str]:
        """Human-readable failure text (the traceback when available)."""
        return None if self.failure is None else str(self.failure)

    @property
    def ok(self) -> bool:
        return self.failure is None and self.stats is not None


@dataclass
class SweepResult:
    """All cell results, in input order, plus sweep-level accounting."""

    cells: List[CellResult]
    jobs: int = 1
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0

    def __post_init__(self) -> None:
        self._by_cell: Dict[SweepCell, CellResult] = {
            res.cell: res for res in self.cells
        }

    @property
    def errors(self) -> int:
        return sum(1 for res in self.cells if not res.ok)

    def result_for(self, cell: SweepCell) -> CellResult:
        return self._by_cell[cell]

    def stats_for(self, cell: SweepCell) -> MachineStats:
        """Stats of ``cell``; raises if the cell failed or is absent."""
        res = self._by_cell.get(cell)
        if res is None:
            raise KeyError(f"cell {cell.label()} was not part of this sweep")
        if not res.ok:
            raise RuntimeError(f"cell {cell.label()} failed:\n{res.error}")
        assert res.stats is not None
        return res.stats

    def to_json(self, deterministic: bool = False) -> Dict[str, object]:
        from repro.obs.export import sweep_to_json

        return sweep_to_json(self, deterministic=deterministic)


@dataclass
class CellPlan:
    """Execution plan for a cell list.

    Splits a sweep into what is already resolved (``results`` slots
    filled from the in-process memo or the on-disk cache) and what
    remains to run (``pending``: unique outstanding cell -> every input
    index it satisfies).  A rerun of a killed sweep resolves every cell
    the killed run settled from the cache, and runs only the rest.
    """

    cells: List[SweepCell]
    results: List[Optional[CellResult]]
    pending: Dict[SweepCell, List[int]]
    memo_hits: int = 0
    cache_hits: int = 0

    def outstanding(self) -> List[SweepCell]:
        """Unique cells still to execute, in first-appearance order."""
        return list(self.pending)

    @property
    def complete(self) -> bool:
        return all(res is not None for res in self.results)

    def finish(self) -> List[CellResult]:
        """The fully-resolved result list, in input order."""
        assert self.complete, "plan finished with unresolved cells"
        return [res for res in self.results if res is not None]


def plan_cells(
    cells: Iterable[SweepCell],
    cache: Optional[CellCache] = None,
    use_memo: bool = True,
    monitor: Optional[SweepMonitor] = None,
) -> CellPlan:
    """Resolve memo and cache hits; dedupe the rest into a plan.

    Identical outstanding cells are planned once and fanned back out to
    every index at settle time.
    """
    cell_list = list(cells)
    results: List[Optional[CellResult]] = [None] * len(cell_list)
    pending: Dict[SweepCell, List[int]] = {}
    memo_hits = cache_hits = 0
    for idx, cell in enumerate(cell_list):
        earlier = pending.get(cell)
        if earlier is not None:
            earlier.append(idx)
            continue
        if use_memo:
            hit = memo_lookup(cell.run_key())
            if hit is not None:
                results[idx] = CellResult(cell, hit, source="memo")
                memo_hits += 1
                if monitor is not None and monitor.enabled:
                    monitor.finished(cell.label(), idx, True, 0.0, source="memo")
                continue
        if cache is not None:
            t_cell = time.perf_counter()
            disk = cache.lookup(cell.fingerprint())
            if disk is not None:
                wall = time.perf_counter() - t_cell
                results[idx] = CellResult(
                    cell, disk, wall_time=wall,
                    source="cache",
                )
                cache_hits += 1
                if use_memo:
                    memo_store(cell.run_key(), disk)
                if monitor is not None and monitor.enabled:
                    monitor.finished(cell.label(), idx, True, wall, source="cache")
                continue
        pending[cell] = [idx]
    return CellPlan(
        cells=cell_list,
        results=results,
        pending=pending,
        memo_hits=memo_hits,
        cache_hits=cache_hits,
    )


def expand_cells(
    benchmarks: Sequence[str],
    designs: Sequence[str],
    models: Sequence[str] = ("txn",),
    ops_per_thread: int = 48,
    ops_per_region: int = 1,
    machine_cfg: MachineConfig = TABLE_I,
) -> List[SweepCell]:
    """Cartesian (benchmark x design x model) cell list, in stable order."""
    return [
        SweepCell(bench, design, model, ops_per_thread, ops_per_region, machine_cfg)
        for bench in benchmarks
        for design in designs
        for model in models
    ]


def _execute(cell: SweepCell) -> Tuple[str, object, float, int]:
    """Run one cell; never raises.  Returns (status, payload, seconds,
    worker pid).

    ``payload`` is the :class:`MachineStats` on ``"ok"``, or an
    ``(exception class name, message, traceback)`` triple on ``"error"``.
    """
    if os.environ.get(TEST_KILL_ENV) == cell.label():
        os.kill(os.getpid(), signal.SIGKILL)
    if os.environ.get(TEST_HANG_ENV) == cell.label():
        time.sleep(_HANG_SECONDS)
    t0 = time.perf_counter()
    try:
        stats = run_cell(
            cell.benchmark,
            cell.design,
            cell.model,
            ops_per_thread=cell.ops_per_thread,
            ops_per_region=cell.ops_per_region,
            machine_cfg=cell.machine_cfg,
        )
        return "ok", stats, time.perf_counter() - t0, os.getpid()
    except Exception as exc:
        payload = (type(exc).__name__, str(exc), traceback.format_exc())
        return "error", payload, time.perf_counter() - t0, os.getpid()


def _run_chunk(chunk: List[SweepCell]) -> List[Tuple[str, object, float, int]]:
    """Pool task: run cells that share one canonical program, one
    :func:`_execute` outcome per cell.

    Programs of other keys are dropped first, so the worker holds one at
    a time.  ``_execute`` is looked up on the module per cell, so a
    wrapper installed before the pool forks sees every cell.
    """
    release_programs(chunk[0].program_key())
    return [_execute(cell) for cell in chunk]


def _chunks(batch: List[SweepCell], jobs: int) -> List[List[SweepCell]]:
    """Pool tasks of one batch: its cells grouped by canonical program in
    first-appearance order, each group cut into chunks of at most
    ⌈len(batch) / jobs⌉ cells."""
    groups: Dict[tuple, List[SweepCell]] = {}
    for cell in batch:
        groups.setdefault(cell.program_key(), []).append(cell)
    size = -(-len(batch) // jobs)
    return [
        group[start:start + size]
        for group in groups.values()
        for start in range(0, len(group), size)
    ]


def _failure(status: str, payload: object, attempts: int) -> CellFailure:
    """Build the typed failure record for a non-``ok`` outcome."""
    if status == "error":
        exc_name, message, tb = payload  # type: ignore[misc]
        return CellFailure(
            kind="exception",
            exception=str(exc_name),
            message=str(message),
            traceback=str(tb),
            attempts=attempts,
        )
    if status == "timeout":
        return CellFailure(
            kind="timeout",
            exception="TimeoutError",
            message=str(payload),
            attempts=attempts,
        )
    return CellFailure(
        kind="worker-lost",
        exception="BrokenProcessPool",
        message=str(payload),
        attempts=attempts,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may contain hung or dead workers.

    A plain ``shutdown`` would block on (or leak) a hung worker, so the
    worker processes are terminated first.
    """
    for proc in list(getattr(pool, "_processes", {}).values() or []):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the parent process dies.

    A worker waiting on its task queue never learns that a SIGKILLed
    parent is gone, so a daemon thread polls ``os.getppid()`` and ends
    the worker when it changes.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run_solo(
    cell: SweepCell, timeout: Optional[float], retries: int, prior_attempts: int
) -> Tuple[str, object, float, Optional[int], int]:
    """Execute one cell in its own single-worker pool, with retries.

    Full isolation: if the worker dies or hangs here, this cell is the
    culprit by construction.  Returns (status, payload, seconds, worker
    pid or None, total attempts including ``prior_attempts``).
    """
    attempts = prior_attempts
    last: Tuple[str, object, float, Optional[int]] = (
        "worker-lost", "cell was never executed", 0.0, None
    )
    for _ in range(retries + 1):
        attempts += 1
        pool = ProcessPoolExecutor(max_workers=1, initializer=_exit_with_parent)
        clean = False
        try:
            (last,) = pool.submit(_run_chunk, [cell]).result(timeout=timeout)
            clean = True
        except FuturesTimeout:
            last = (
                "timeout",
                f"cell exceeded the per-cell timeout of {timeout:g}s",
                float(timeout or 0.0),
                None,
            )
        except Exception as exc:  # worker process died mid-cell
            last = (
                "worker-lost",
                f"worker process died while running this cell: {exc!r}",
                0.0,
                None,
            )
        finally:
            pool.shutdown() if clean else _kill_pool(pool)
        if last[0] == "ok":
            break
    return last[0], last[1], last[2], last[3], attempts


def _run_pool(
    unique: List[SweepCell],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    started: Callable[[SweepCell], None],
    settle: Callable[[SweepCell, str, object, float, Optional[int], int], None],
) -> None:
    """Fan cells over a process pool in per-program chunks, surviving
    hangs and dead workers, and ``settle`` each cell's final outcome as
    its chunk is collected.

    Each pool task is one chunk (:func:`_chunks`): cells that share a
    canonical program, at most ⌈cells in the batch / jobs⌉ of them, so a
    large group is split and every worker gets work.  One worker runs a
    chunk's cells one by one and generates and specializes the program
    once; it drops every other program first, so it holds one at a time
    (:func:`_run_chunk`).  A chunk's future is awaited for ``timeout`` x
    its cell count.

    Clean outcomes (ok / cell raised) are attributed per cell, with
    failed cells re-batched while they have retries left.  A hang or
    worker death cannot be attributed safely inside a shared pool — the
    broken future is not necessarily the broken cell — so the pool is
    torn down and every cell of every unfinished chunk re-runs through
    :func:`_run_solo`, where blame is unambiguous.  One poisoned cell
    therefore fails alone; its neighbours complete on the respawned path.
    If ``settle`` raises, or the user interrupts, the pool is torn down
    before the exception propagates.
    """
    attempts: Dict[SweepCell, int] = {cell: 0 for cell in unique}
    batch = list(unique)
    solo: List[SweepCell] = []
    while batch:
        for cell in batch:
            attempts[cell] += 1
        chunks = _chunks(batch, jobs)
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), initializer=_exit_with_parent
        )
        retry_batch: List[SweepCell] = []
        broken = clean = False
        try:
            futures = []
            for chunk in chunks:
                for cell in chunk:
                    started(cell)
                futures.append((chunk, pool.submit(_run_chunk, chunk)))
            for chunk, fut in futures:
                # Once the pool is compromised, only finished chunks are
                # harvested.
                deadline = None if timeout is None else timeout * len(chunk)
                try:
                    results = fut.result(timeout=0 if broken else deadline)
                except Exception:
                    # Which cell hung or killed its worker is unknowable
                    # from here: isolation will tell, with each cell's
                    # timeout measured fairly from its own start.  The
                    # aborted attempt is not charged to these cells.
                    broken = True
                    for cell in chunk:
                        attempts[cell] -= 1
                        solo.append(cell)
                    continue
                for cell, (status, payload, seconds, pid) in zip(chunk, results):
                    if status == "ok" or attempts[cell] > retries:
                        settle(cell, status, payload, seconds, pid, attempts[cell])
                    else:
                        retry_batch.append(cell)
            clean = not broken
        finally:
            pool.shutdown() if clean else _kill_pool(pool)
        batch = retry_batch
    for cell in solo:
        started(cell)
        status, payload, seconds, pid, attempts[cell] = _run_solo(
            cell, timeout, retries, attempts[cell]
        )
        settle(cell, status, payload, seconds, pid, attempts[cell])


def run_sweep(
    cells: Iterable[SweepCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    use_memo: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    runlog: Optional[RunLog] = None,
    progress: Optional[Progress] = None,
) -> SweepResult:
    """Evaluate every cell, fanning misses out over ``jobs`` processes.

    The pool's unit of work is a chunk of misses that share a canonical
    program, so a worker generates each program once and holds only the
    one it is running.  A group of more than ⌈misses / jobs⌉ cells is
    split into chunks of at most that size, so even a one-program sweep
    uses every worker (:func:`_run_pool`).

    Each cell is settled — stored in the memo and ``cache``, reported to
    the monitor — as soon as its outcome arrives, so an exception or a
    kill part-way leaves every finished cell in ``cache`` for a rerun.

    ``timeout`` bounds each cell's execution in seconds (a chunk is
    given ``timeout`` x its cell count, and the cells of a chunk that
    overruns are re-run one by one to find the culprit; forces the pool
    path even at ``jobs=1``).  ``retries`` re-runs a failing cell up to
    that many extra times before recording its :class:`CellFailure`.
    ``runlog`` streams ``repro.runlog/1`` campaign telemetry; ``progress`` drives a
    live status line — both are observation-only and never alter
    results (their wall-clock content is exactly why ``--deterministic``
    sweeps refuse them at the CLI).
    """
    cell_list = list(cells)
    t0 = time.perf_counter()
    monitor = SweepMonitor(len(cell_list), runlog=runlog, progress=progress)

    # Resolve memo and disk hits in the parent; dedupe the remainder so
    # identical cells are simulated once and fanned back out.
    plan = plan_cells(cell_list, cache=cache, use_memo=use_memo, monitor=monitor)
    cache_misses = len(plan.pending) if cache is not None else 0

    unique = plan.outstanding()

    def started(cell: SweepCell) -> None:
        if monitor.enabled:
            monitor.started(cell.label(), plan.pending[cell][0])

    def settle(
        cell: SweepCell, status: str, payload: object, seconds: float,
        pid: Optional[int], attempts: int,
    ) -> None:
        if status == "ok":
            assert isinstance(payload, MachineStats)
            res = CellResult(cell, payload, wall_time=seconds, source="run")
            if use_memo:
                memo_store(cell.run_key(), payload)
            if cache is not None:
                cache.store(cell.fingerprint(), payload)
        else:
            res = CellResult(
                cell, None, failure=_failure(status, payload, attempts),
                wall_time=seconds,
            )
        first, *duplicates = plan.pending[cell]
        for idx in plan.pending[cell]:
            plan.results[idx] = res
        if monitor.enabled:
            monitor.finished(
                cell.label(), first, res.ok, seconds, source="run", worker=pid
            )
            # Duplicate cells shared this execution; account them so the
            # campaign's done-count reaches the input cell total.
            for idx in duplicates:
                monitor.finished(cell.label(), idx, res.ok, 0.0, source="memo")

    if (jobs > 1 or timeout is not None) and unique:
        _run_pool(unique, max(jobs, 1), timeout, retries, started, settle)
    else:
        for cell in unique:
            started(cell)
            status, payload, seconds, pid = _execute(cell)
            attempts = 1
            while status != "ok" and attempts <= retries:
                status, payload, seconds, pid = _execute(cell)
                attempts += 1
            settle(cell, status, payload, seconds, pid, attempts)

    final = plan.finish()
    result = SweepResult(
        cells=final,
        jobs=jobs,
        wall_time=time.perf_counter() - t0,
        cache_hits=plan.cache_hits,
        cache_misses=cache_misses,
        memo_hits=plan.memo_hits,
    )
    if monitor.enabled:
        monitor.close(
            errors=result.errors,
            busy_time_s=sum(res.wall_time for res in final),
        )
    return result
