"""One unit of a benchmark workload, run in a fresh interpreter.

``run.py`` spawns this file once per unit, so every unit starts with
empty per-process program caches, exactly like a fresh ``repro sweep``
or ``repro soak`` invocation::

    python benchmarks/perf/unit.py env
    python benchmarks/perf/unit.py setup --workload fig9-dse
    python benchmarks/perf/unit.py run --workload fig9-dse --seed 1 --unit 0 \\
        --result out.json --workdir DIR [--trace --spans spans.json] [--record]

``env`` builds and loads the native replay core and reports the host;
``setup`` imports a workload's entry modules, checks the native core and
prints ``ready`` (``run.py`` times it), then the speed probe's time;
``run`` executes one unit and writes its result as JSON to ``--result``.
An untraced unit runs the speed probe (``speed.py``) before every cell
or case and reports its wall time both as measured (``host_wall_s``)
and at the reference host's speed (``wall_s``).  Importing this module
imports nothing from the program under test.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import SpanRecorder, layer_metrics, patched  # noqa: E402
from speed import SpeedLog, probe, slowdown  # noqa: E402

WORKLOADS = ("fig10-gen", "fig9-dse", "fig7-j2", "soak")

#: modules a fresh interpreter imports before it can run the workload.
ENTRY_MODULES = {
    "fig10-gen": ("repro.harness.sweep",),
    "fig9-dse": ("repro.harness.sweep",),
    "fig7-j2": ("repro.harness.sweep", "repro.harness.cachedir"),
    "soak": ("repro.chaos.soak",),
}

#: ops per thread of the sweep workloads, and crash cases per
#: (benchmark, design) of ``soak``.  ``full`` is the benchmark;
#: ``smoke`` keeps the test suite under a minute.
SCALES = {
    "full": {"fig10-gen": 32, "fig9-dse": 128, "fig7-j2": 96, "soak": 1},
    "smoke": {"fig10-gen": 8, "fig9-dse": 16, "fig7-j2": 8, "soak": 1},
}

#: soak at smoke scale covers two benchmarks instead of all eight.
SMOKE_SOAK_BENCHMARKS = ("queue", "hashmap")

#: the only workload that crosses the process pool.
POOL_JOBS = {"fig7-j2": 2}

#: speed probes a set-up child runs after it is ready; their median
#: scales its set-up time.
SETUP_SPEED_PROBES = 5


def digest(doc: object) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- sweep workloads ---------------------------------------------------------


def sweep_cells(workload: str, ops: int) -> list:
    """The cell list of a sweep workload, in figure order."""
    from dataclasses import replace

    from repro.harness.experiment import ALL_DESIGNS
    from repro.harness.figures import BENCH_ORDER, FIG10_OPS_PER_REGION
    from repro.harness.sweep import SweepCell
    from repro.sim.config import TABLE_I
    from repro.workloads import MICROBENCHMARKS

    if workload == "fig10-gen":
        return [
            SweepCell(bench, design, "sfr", ops, opr)
            for bench in MICROBENCHMARKS
            for opr in FIG10_OPS_PER_REGION
            for design in ("intel-x86", "strandweaver")
        ]
    if workload == "fig9-dse":
        cells = []
        for bench in ("queue", "rbtree"):
            cells += [SweepCell(bench, design, "sfr", ops) for design in ALL_DESIGNS]
            for design in ("strandweaver", "no-persist-queue"):
                for buffers in (1, 2, 4, 8):
                    for entries in (1, 2, 4, 8):
                        for media in (1000, 2000):
                            cfg = TABLE_I.with_strand(buffers, entries)
                            cfg = replace(cfg, pm=replace(cfg.pm, write_to_media=media))
                            cells.append(SweepCell(bench, design, "sfr", ops, machine_cfg=cfg))
        return cells
    if workload == "fig7-j2":
        return [
            SweepCell(bench, design, "txn", ops)
            for bench in BENCH_ORDER
            for design in ALL_DESIGNS
        ]
    raise ValueError(f"not a sweep workload: {workload}")


def cell_label(cell) -> str:
    """Golden-file key of a cell: every knob the workloads vary."""
    cfg = cell.machine_cfg
    return (
        f"{cell.benchmark}/{cell.design}/{cell.model}/opr{cell.ops_per_region}"
        f"/sb{cfg.strand.n_strand_buffers}x{cfg.strand.strand_buffer_entries}"
        f"/wtm{cfg.pm.write_to_media}"
    )


def run_order(workload: str, ops: int, seed: int, unit: int) -> list:
    """The seed fixes the order cells are submitted in; each unit of a
    run gets its own order.  Results do not depend on it."""
    cells = sweep_cells(workload, ops)
    random.Random(f"{workload}:{seed}:{unit}").shuffle(cells)
    return cells


@contextmanager
def pool_cache(workload: str, workdir: str) -> Iterator:
    """A fresh on-disk cell cache for the pool workload, else None."""
    if workload not in POOL_JOBS:
        yield None
        return
    from repro.harness.cachedir import CellCache

    path = tempfile.mkdtemp(prefix="cells-", dir=workdir)
    try:
        yield CellCache(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def root_span(rec: Optional[SpanRecorder]):
    return rec.span("run") if rec is not None else nullcontext()


def observe(
    stack: ExitStack, rec: Optional[SpanRecorder], workdir: str, owner: object, attr: str
) -> Optional[SpeedLog]:
    """An untraced unit probes host speed before every ``owner.attr``
    call (one cell or case); a traced unit times layers instead."""
    if rec is not None:
        return None
    log = SpeedLog(tempfile.mkdtemp(prefix="speed-", dir=workdir))
    stack.enter_context(log.wrapping(owner, attr))
    return log


def sweep_unit(
    workload: str, cells: list, workdir: str, rec: Optional[SpanRecorder] = None
) -> Dict:
    """Run the cells through ``run_sweep`` exactly as the figures do.

    A traced unit makes the same call serially (a span cannot follow a
    cell into a pool worker), with every layer call in a span.
    """
    from repro.harness import sweep

    jobs = 1 if rec is not None else POOL_JOBS.get(workload, 1)
    with pool_cache(workload, workdir) as cache, ExitStack() as stack:
        speed_log = observe(stack, rec, workdir, sweep, "_execute")
        if rec is not None:
            _trace_sweep_layers(stack, rec, cache)
        t0 = time.perf_counter()
        with root_span(rec):
            result = sweep.run_sweep(cells, jobs=jobs, cache=cache)
        wall = time.perf_counter() - t0
    outcomes: List[Tuple[str, Optional[str], Optional[str]]] = []
    for res in result.cells:
        stats_digest = digest(res.stats.summary()) if res.ok else None
        outcomes.append((cell_label(res.cell), stats_digest, res.error))
    unique = {id(res): res for res in result.cells}.values()
    ran = [res for res in unique if res.source == "run"]
    return {
        "wall_s": wall,
        "jobs": jobs,
        "attempted": len(cells),
        "outcomes": outcomes,
        "sim_ops": sum(res.stats.total.ops for res in unique if res.ok),
        "cell_walls": [res.wall_time for res in ran],
        "speed": speed_log.records() if speed_log is not None else [],
    }


def _trace_sweep_layers(stack: ExitStack, rec: SpanRecorder, cache) -> None:
    """Span the layer calls of a sweep: each cell (``sweep._execute``),
    generation and specialization as ``generation_for_cell`` makes them,
    replay, and the cell cache."""
    from repro.harness import experiment, sweep

    def canonical_ops(attrs, canonical, *_args, **_kwargs):
        attrs["ops"] = sum(len(t.ops) for t in canonical.program.threads)

    def stored_bytes(attrs, path, *_args, **_kwargs):
        attrs["bytes"] = os.path.getsize(path)

    stack.enter_context(patched(rec, sweep, "_execute", "cell", label=cell_label))
    stack.enter_context(
        patched(rec, experiment, "generate_canonical", "workloads.generate",
                after=canonical_ops, rss=True)
    )
    stack.enter_context(patched(rec, experiment, "specialize_run", "lang.specialize", rss=True))
    _trace_replay(stack, rec)
    if cache is not None:
        stack.enter_context(patched(rec, cache, "lookup", "harness.cachedir.lookup"))
        stack.enter_context(
            patched(rec, cache, "store", "harness.cachedir.store", after=stored_bytes)
        )


def _trace_replay(stack: ExitStack, rec: SpanRecorder) -> None:
    """Span every ``Machine.run``: ``sim.replay`` without a fault plan
    (the native core, or the Python tiers when it declines) and
    ``sim.reference`` under one; count the native core's declines."""
    from repro.sim import cnative
    from repro.sim.machine import Machine

    replayed: Dict[int, object] = {}

    def replay_name(_machine, _program, warm=True, fault_plan=None, media_faults=None):
        return "sim.replay" if fault_plan is None else "sim.reference"

    def replay_attrs(attrs, stats, _machine, program, *_args, **_kwargs):
        attrs["ops"] = stats.total.ops
        if stats.crash is None:
            attrs["first"] = id(program) not in replayed
            replayed[id(program)] = program  # kept alive, so no later program takes its id

    original_native = cnative.run_native

    def counted_native(*args, **kwargs):
        per_core = original_native(*args, **kwargs)
        if per_core is None:
            rec.count("sim.native.declines")
        return per_core

    stack.enter_context(patched(rec, Machine, "run", replay_name, after=replay_attrs))
    cnative.run_native = counted_native
    stack.callback(setattr, cnative, "run_native", original_native)


# -- soak ---------------------------------------------------------------------


def soak_plan(seed: int, unit: int, scale: str) -> List[Tuple[str, str, int]]:
    """(benchmark, design, first case seed) of every campaign in a unit.

    Every (benchmark, design) pair gets its own campaign, so each unit
    builds the same crash harnesses and the seed only draws the crash
    plans.  Case seeds are drawn per pair: consecutive seeds shared by
    all benchmarks would replay one plan eight times and make the run
    time swing with the seed.
    """
    from repro.harness.experiment import ALL_DESIGNS
    from repro.harness.figures import BENCH_ORDER

    benchmarks = SMOKE_SOAK_BENCHMARKS if scale == "smoke" else BENCH_ORDER
    return [
        (bench, design, random.Random(f"soak:{seed}:{unit}:{bench}:{design}").getrandbits(31))
        for bench in benchmarks
        for design in ALL_DESIGNS
    ]


@contextmanager
def replayed_ops(tally: List[int]) -> Iterator[None]:
    """Add the micro-ops every ``Machine.run`` simulates to ``tally[0]``."""
    from repro.sim.machine import Machine

    original = Machine.run

    def run(machine, *args, **kwargs):
        stats = original(machine, *args, **kwargs)
        tally[0] += stats.total.ops
        return stats

    Machine.run = run
    try:
        yield
    finally:
        Machine.run = original


def soak_unit(
    plan, cases_per_campaign: int, workdir: str, rec: Optional[SpanRecorder] = None
) -> Dict:
    """Run ``run_soak(bench, seeds=n, seed=first, designs=[design])`` for
    every campaign of the plan."""
    from repro.chaos import soak

    sim_ops = [0]
    campaigns = []
    with ExitStack() as stack:
        stack.enter_context(replayed_ops(sim_ops))
        speed_log = observe(stack, rec, workdir, soak, "run_soak_case")
        if rec is not None:
            _trace_soak_layers(stack, rec)
        t0 = time.perf_counter()
        with root_span(rec):
            for bench, design, first in plan:
                result = soak.run_soak(
                    bench, seeds=cases_per_campaign, seed=first, designs=[design]
                )
                campaigns.append((bench, design, result))
        wall = time.perf_counter() - t0
    outcomes = []
    for bench, design, result in campaigns:
        outcomes.append((f"{bench}/{design}", digest(result.summary()), None))
        outcomes += [
            (f"{bench}/{design}/seed{case.seed}", None, case.violation)
            for case in result.failures
        ]
    speed = speed_log.records() if speed_log is not None else []
    return {
        "wall_s": wall,
        "jobs": 1,
        "attempted": sum(len(result.cases) for _, _, result in campaigns),
        "outcomes": outcomes,
        "sim_ops": sim_ops[0],
        "cell_walls": [call_s for _, call_s in speed],
        "speed": speed,
    }


def _trace_soak_layers(stack: ExitStack, rec: SpanRecorder) -> None:
    """Span the layer calls a soak case makes."""
    from repro.chaos import harness as chaos_harness
    from repro.chaos import soak

    def program_ops(attrs, run, *_args, **_kwargs):
        attrs["ops"] = sum(len(t.ops) for t in run.program.threads)

    def case_label(workload, case_seed, _index, design_pool, *_args, **_kwargs):
        return f"{workload}/{soak.pick_design(case_seed, design_pool)}/seed{case_seed}"

    stack.enter_context(patched(rec, soak, "run_soak_case", "chaos.case", label=case_label))
    stack.enter_context(patched(rec, soak, "CrashHarness", "chaos.harness"))
    stack.enter_context(
        patched(rec, chaos_harness, "generate_for_design", "workloads.generate",
                after=program_ops, rss=True)
    )
    stack.enter_context(patched(rec, chaos_harness, "PersistDag", "core.model.dag"))
    stack.enter_context(patched(rec, chaos_harness, "analyze", "analysis.lint"))
    stack.enter_context(patched(rec, chaos_harness, "build_crash_image", "chaos.image"))
    stack.enter_context(patched(rec, chaos_harness, "recover", "lang.recovery"))
    _trace_replay(stack, rec)


# -- checks and entry points ----------------------------------------------------


def golden_dir(scale: str) -> str:
    return os.path.join(HERE, "golden", *(["smoke"] if scale == "smoke" else []))


def load_golden(directory: str, workload: str) -> Dict:
    path = os.path.join(directory, f"{workload}.json")
    if not os.path.exists(path):
        raise SystemExit(
            f"no golden outputs at {path}; record them with run.py --record-golden"
        )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outcomes(workload: str, outcomes, golden: Optional[Dict], seed: int, unit: int):
    """Failures of one unit: raised cells, unexpected violations, and
    digests that differ from the golden file."""
    if workload == "soak":
        expected = None if golden is None else golden["campaigns"].get(f"{seed}:{unit}")
    else:
        expected = None if golden is None else golden["cells"]
    failures = []
    for label, got, error in outcomes:
        if error is not None:
            failures.append(f"{label}: {error.strip().splitlines()[-1]}")
        elif expected is not None and expected.get(label) != got:
            failures.append(f"{label}: stats digest differs from the golden output")
    return failures


def cmd_env(_args) -> int:
    from repro.prof.bench import git_sha
    from repro.sim import cnative

    if not cnative.available():
        print(
            "the native replay core could not be built or loaded; timing the "
            "Python tiers would not measure the engine users run",
            file=sys.stderr,
        )
        return 3
    print(json.dumps({
        "engine_tier": "native",
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }))
    return 0


def cmd_setup(args) -> int:
    for module in ENTRY_MODULES[args.workload]:
        importlib.import_module(module)
    from repro.sim import cnative

    if not cnative.available():
        return 3
    print("ready", flush=True)
    # outside the timed part: how fast this vCPU runs just now
    print(statistics.median(probe() for _ in range(SETUP_SPEED_PROBES)), flush=True)
    return 0


def cmd_run(args) -> int:
    size = SCALES[args.scale][args.workload]
    golden = None
    if not args.record:
        golden = load_golden(args.golden or golden_dir(args.scale), args.workload)
        if golden["size"] != size:
            raise SystemExit(
                f"golden {args.workload} outputs were recorded at size {golden['size']}, "
                f"the workload now runs at {size}; record them again"
            )
    rec = SpanRecorder() if args.trace else None
    if args.workload == "soak":
        out = soak_unit(soak_plan(args.seed, args.unit, args.scale), size, args.workdir, rec)
    else:
        cells = run_order(args.workload, size, args.seed, args.unit)
        out = sweep_unit(args.workload, cells, args.workdir, rec)
    failures = check_outcomes(args.workload, out["outcomes"], golden, args.seed, args.unit)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "unit": args.unit,
        "attempted": out["attempted"],
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.record:
        result["digests"] = {label: got for label, got, _ in out["outcomes"]}
    if rec is None:
        walls = out["cell_walls"]
        # the probes ran inside the unit's wall time, spread over its jobs
        host_wall = out["wall_s"] - sum(p for p, _ in out["speed"]) / out["jobs"]
        factor = slowdown(out["speed"])
        result.update(
            wall_s=host_wall / factor,
            host_wall_s=host_wall,
            slowdown=factor,
            sim_ops=out["sim_ops"],
            jobs=out["jobs"],
            busy_s=sum(walls),
            cell_walls=walls,
            cell_p50_s=statistics.median(walls),
        )
    else:
        rec.dump(args.spans)
        result["layers"] = layer_metrics(rec.spans, rec.counters)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("env")
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", choices=WORKLOADS, required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", choices=WORKLOADS, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--unit", type=int, default=0)
    run.add_argument("--scale", choices=sorted(SCALES), default="full")
    run.add_argument("--result", required=True)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--spans")
    run.add_argument("--golden", help="golden directory (default: the scale's own)")
    run.add_argument("--record", action="store_true")
    run.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    return {"env": cmd_env, "setup": cmd_setup, "run": cmd_run}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
