"""Command-line entry point: regenerate artefacts, trace runs, dump stats.

Usage::

    python -m repro [table1|table2|fig7|fig8|fig9|fig10|models|all] [--ops N] [-j N] [--json]
    python -m repro sweep [--workloads w1,w2|all] [--designs d1,d2|all] [-j N] [--json]
    python -m repro trace <workload> --design <d> [--model m] [--out trace.json]
    python -m repro bench [--ops N] [--record] [--baseline BENCH_date.json --max-regress PCT]
    python -m repro crashtest <workload> --design <d> --crashes N [--seed S] [--json]
    python -m repro soak <workload> --seeds N [--design <d>] [--seed S] [--json]
    python -m repro lint <workload> [--design <d>|all] [--model m] [--json]

``trace`` replays one (workload, design, model) cell with the tracer on
and writes a Chrome/Perfetto trace-event JSON (open it in
ui.perfetto.dev) plus, with ``--stats-out``, the machine-readable stats
document.  ``bench`` times every figure and prints per-figure wall
time and cells/second.  ``crashtest``
crashes the simulator at N seeded fault points, recovers each crash
image and checks the workload's invariants — ``--design all`` runs the
differential oracle over every hardware design.  ``crashtest`` and
``soak`` always run the fixed ``CHAOS_CFG`` scale and the ``txn``
model, so they refuse ``--ops`` and other ``--model`` values.
``lint`` statically
analyses the compiled trace for persistency bugs (unflushed persists,
strand misuse, persistent races, over-serialization, torn writes)
without running the simulator — ``--design all`` lints every hardware
design and additionally fails if the deliberately broken NON-ATOMIC
design produces *no* errors (the linter must keep its teeth).  ``sweep``
evaluates an arbitrary (workload x design x model) matrix through the
parallel sweep engine and emits the ``repro.sweep/1`` artefact; figures
accept ``-j/--jobs`` to fan their cell lists over worker processes, and
both reuse results across invocations via the content-addressed on-disk
cache under ``.repro-cache/`` (disable with ``--no-cache``); ``--timeout``
and ``--retries`` bound each cell (a hung or killed worker fails only
its own cell).  Each cell enters the cache as soon as it finishes, so
rerunning a killed ``sweep`` or figure run resumes where it stopped.
``soak`` runs a randomized fault campaign — per-case
crash points, media-fault models and power failures injected *inside*
recovery, all derived from one master seed — and shrinks any unexpected
violation to a minimal replayable reproducer (``repro.soak/1``).

``bench --record`` appends the timed run to a
``repro.bench-trajectory/1`` store (git SHA, config fingerprint,
per-figure wall time, cells/sec); ``bench --baseline F --max-regress P``
re-measures and exits non-zero past the threshold.  Long campaigns
(``sweep``/``soak``) accept ``--progress`` (live status line) and
``--runlog F`` (``repro.runlog/1`` JSONL telemetry: per-cell start and
finish with wall time, heartbeats with ETA, worker pids).  Because the
run log is wall-clock telemetry it is refused in ``--deterministic``
sweeps.
"""

import argparse
import json
import sys

from repro.harness import (
    figure7,
    figure8,
    figure9,
    figure10,
    model_sensitivity,
    table1,
    table2,
)
from repro.workloads import MODELS

#: ``--ops`` when the flag is not given (``bench`` also reads
#: ``REPRO_BENCH_OPS``; ``crashtest``/``soak`` refuse the flag).
DEFAULT_OPS = 16

ARTEFACTS = {
    "table1": lambda ops, jobs, cache: table1(),
    "table2": lambda ops, jobs, cache: table2(ops_per_thread=ops, jobs=jobs, cache=cache),
    "fig7": lambda ops, jobs, cache: figure7(ops_per_thread=ops, jobs=jobs, cache=cache),
    "fig8": lambda ops, jobs, cache: figure8(ops_per_thread=ops, jobs=jobs, cache=cache),
    "fig9": lambda ops, jobs, cache: figure9(ops_per_thread=ops, jobs=jobs, cache=cache),
    "fig10": lambda ops, jobs, cache: figure10(ops_per_thread=ops, jobs=jobs, cache=cache),
    "models": lambda ops, jobs, cache: model_sensitivity(
        ops_per_thread=ops, jobs=jobs, cache=cache
    ),
}

COMMANDS = sorted(ARTEFACTS) + [
    "all", "sweep", "trace", "bench", "crashtest", "soak", "lint",
    "modelcheck", "repair",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="StrandWeaver reproduction: regenerate evaluation artefacts",
    )
    parser.add_argument(
        "artefact",
        nargs="?",
        default="all",
        choices=COMMANDS,
        help="table/figure to regenerate, or 'trace'/'bench'/'crashtest' "
        "(default: all)",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="workload to replay ('trace' and 'crashtest'), e.g. 'queue'",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help=f"operations per thread (default {DEFAULT_OPS}; the paper used "
        "~6250)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for figures and 'sweep' (default 1 = serial; "
        "results are bit-identical at any -j)",
    )
    parser.add_argument(
        "--workloads", default="all",
        help="'sweep': comma-separated benchmarks, or 'all' (default)",
    )
    parser.add_argument(
        "--designs", default="all",
        help="'sweep': comma-separated hardware designs, or 'all' (default)",
    )
    parser.add_argument(
        "--models", default="txn",
        help="'sweep': comma-separated language models, or 'all' (default: txn)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for figures and 'sweep'",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )
    parser.add_argument(
        "--deterministic", action="store_true",
        help="'sweep' --json: omit wall-clock and cache-provenance fields "
        "so output is byte-identical across -j levels and cache states",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of rendered tables",
    )
    parser.add_argument(
        "--design", default=None,
        help="hardware design for 'trace'/'crashtest'/'soak' (default: "
        "strandweaver; 'crashtest' also accepts 'all' for the differential "
        "oracle; 'soak' rotates over every design unless one is pinned)",
    )
    parser.add_argument(
        "--model", default="txn", choices=tuple(MODELS),
        help="language-level persistency model (default: txn)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path: trace JSON for 'trace' (default trace.json), "
        "trajectory store for 'bench --record', repaired trace for "
        "'repair --apply'",
    )
    parser.add_argument(
        "--stats-out", default=None,
        help="also write the run's stats document to this path ('trace')",
    )
    parser.add_argument(
        "--budget", type=int, default=200_000, metavar="N",
        help="modelcheck/repair: bounded-exhaustive crash-state enumeration "
        "budget; programs whose state space exceeds it degrade to pairwise "
        "order checking (default 200000)",
    )
    parser.add_argument(
        "--samples", type=int, default=5, metavar="N",
        help="modelcheck: machine-oracle crash points sampled across the "
        "clean run's makespan (default 5; 0 disables the oracle)",
    )
    parser.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="modelcheck: seed a deliberate semantics bug into the "
        "operational model (drop-barrier, drop-join, ignore-newstrand) — "
        "the checker must report a divergence",
    )
    parser.add_argument(
        "--apply", action="store_true",
        help="repair: write the repaired op stream as JSON to --out "
        "(default <target>.repaired.json)",
    )
    parser.add_argument(
        "--ring", type=int, default=0, metavar="N",
        help="keep only the most recent N trace events (0 = unbounded)",
    )
    parser.add_argument(
        "--crashes", type=int, default=50, metavar="N",
        help="number of seeded crash points for 'crashtest' (default 50)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="master seed for 'crashtest' fault schedules (default 7)",
    )
    parser.add_argument(
        "--torn", action="store_true",
        help="crashtest: also tear the latest durable store (checker stress; "
        "failures become the expected outcome for every design)",
    )
    parser.add_argument(
        "--no-writeback-faults", action="store_true",
        help="crashtest: disable injected delayed write-backs",
    )
    parser.add_argument(
        "--no-drop-faults", action="store_true",
        help="crashtest: disable delayed-persist (drop) faults",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="crashtest/soak: skip shrinking failures to minimal reproducers",
    )
    parser.add_argument(
        "--seeds", type=int, default=50, metavar="N",
        help="soak: number of randomized cases to run (default 50)",
    )
    parser.add_argument(
        "--no-media", action="store_true",
        help="soak: never attach a device-level media fault model",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="sweep: per-cell timeout in seconds (a hung cell's worker is "
        "killed and only that cell fails)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="sweep: re-run a failing cell up to N extra times (default 0)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="bench: time every figure and append the run to the "
        "trajectory store (--out, default BENCH_<date>.json)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="bench: compare this run against a committed trajectory "
        "store and fail on regression (see --max-regress)",
    )
    parser.add_argument(
        "--max-regress", type=float, default=300.0, metavar="PCT",
        help="bench: maximum tolerated total wall-time growth over the "
        "baseline, in percent (default 300)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="sweep/soak: live progress line on stderr",
    )
    parser.add_argument(
        "--runlog", default=None, metavar="FILE",
        help="sweep/soak: stream repro.runlog/1 JSONL campaign telemetry "
        "to FILE (refused with --deterministic)",
    )
    return parser


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.harness.experiment import default_config
    from repro.obs import Tracer, write_stats_json, write_trace
    from repro.sim.machine import DESIGNS, Machine
    from repro.workloads import WORKLOADS, generate_for_design

    if args.design is None:
        args.design = "strandweaver"
    if args.workload is None:
        print("trace requires a workload, e.g.: python -m repro trace queue",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from {sorted(DESIGNS)}",
              file=sys.stderr)
        return 2
    if args.ring < 0:
        print("--ring must be a positive event count (or 0 for unbounded)",
              file=sys.stderr)
        return 2
    tracer = (
        Tracer(mode="ring", capacity=args.ring) if args.ring else Tracer()
    )
    run = generate_for_design(
        WORKLOADS[args.workload], default_config(args.ops), args.design, args.model
    )
    stats = Machine(args.design, tracer=tracer).run(run.program)
    out = args.out or "trace.json"
    doc = write_trace(out, tracer)
    if args.stats_out:
        write_stats_json(args.stats_out, stats)
    if args.json:
        print(json.dumps(stats.summary(), sort_keys=True))
    else:
        summary = stats.summary()
        print(f"wrote {out}: {len(doc['traceEvents'])} trace records "
              f"({tracer.dropped} dropped)")
        print(f"  {args.workload} on {args.design} ({args.model}): "
              f"{summary['cycles']} cycles, {summary['clwbs']} CLWBs, "
              f"{summary['persist_stalls']} persist-stall cycles")
        print("  open in https://ui.perfetto.dev")
    return 0


def _cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.chaos import run_crashtest, run_differential
    from repro.sim.machine import DESIGNS
    from repro.workloads import WORKLOADS

    if args.design is None:
        args.design = "strandweaver"
    if args.workload is None:
        print("crashtest requires a workload, e.g.: "
              "python -m repro crashtest queue", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.design != "all" and args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from "
              f"{sorted(DESIGNS) + ['all']}", file=sys.stderr)
        return 2
    if args.crashes < 1:
        print("--crashes must be at least 1", file=sys.stderr)
        return 2
    kwargs = dict(
        crashes=args.crashes,
        seed=args.seed,
        torn=args.torn,
        writeback_faults=not args.no_writeback_faults,
        drop_faults=not args.no_drop_faults,
        shrink=not args.no_shrink,
    )
    if args.design == "all":
        result = run_differential(args.workload, **kwargs)
    else:
        result = run_crashtest(args.workload, args.design, **kwargs)
    if args.json:
        print(json.dumps(result.summary(), indent=1, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.chaos import run_soak
    from repro.sim.machine import DESIGNS
    from repro.workloads import WORKLOADS

    if args.workload is None:
        print("soak requires a workload, e.g.: python -m repro soak queue",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.design not in (None, "all") and args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from "
              f"{sorted(DESIGNS) + ['all']}", file=sys.stderr)
        return 2
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    designs = None if args.design in (None, "all") else [args.design]
    runlog = progress = None
    if args.runlog:
        from repro.prof.runlog import RunLog

        runlog = RunLog(
            args.runlog, kind="soak", total=args.seeds,
            meta={"workload": args.workload, "seed": args.seed},
        )
    if args.progress:
        from repro.prof.runlog import Progress

        progress = Progress(args.seeds, label="soak")
    try:
        result = run_soak(
            args.workload,
            seeds=args.seeds,
            seed=args.seed,
            designs=designs,
            media=not args.no_media,
            shrink=not args.no_shrink,
            runlog=runlog,
            progress=progress,
        )
    finally:
        if runlog is not None:
            runlog.close()
    if args.json:
        print(json.dumps(result.summary(), indent=1, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LINT_SCHEMA, analyze
    from repro.harness.experiment import default_config
    from repro.sim.machine import DESIGNS
    from repro.workloads import WORKLOADS, generate_for_design

    if args.design is None:
        args.design = "strandweaver"
    if args.workload is None:
        print("lint requires a workload, e.g.: python -m repro lint queue",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.design != "all" and args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from "
              f"{sorted(DESIGNS) + ['all']}", file=sys.stderr)
        return 2
    designs = sorted(DESIGNS) if args.design == "all" else [args.design]
    cfg = default_config(args.ops)
    reports = {}
    for design in designs:
        run = generate_for_design(WORKLOADS[args.workload], cfg, design, args.model)
        reports[design] = analyze(run.program, design=design)
    # Exit-code policy: ERROR findings on a correct design fail the lint;
    # the NON-ATOMIC design is *supposed* to error (it is the paper's
    # deliberately unsafe upper bound), so there a silent pass is the bug.
    ok = all(
        (not r.errors) if d != "non-atomic" else bool(r.errors)
        for d, r in reports.items()
    )
    if args.json:
        doc = {
            "schema": LINT_SCHEMA,
            "workload": args.workload,
            "model": args.model,
            "ok": ok,
            "designs": {d: r.to_json() for d, r in reports.items()},
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for design, report in reports.items():
            print(report.render())
            if design == "non-atomic" and report.errors:
                print("  (expected: NON-ATOMIC provides no ordering; the "
                      "differential crash oracle reproduces these)")
            print()
        print("lint OK" if ok else "lint FAILED")
    return 0 if ok else 1


def _modelcheck_targets(args: argparse.Namespace, designs):
    """Resolve the modelcheck/repair target into (name, program) pairs.

    A target is a litmus case, the whole litmus ``corpus``, or a workload
    name (compiled per design, litmus-sized state spaces not required —
    big programs degrade to pairwise checking).
    """
    from repro.analysis import LITMUS
    from repro.harness.experiment import default_config
    from repro.workloads import WORKLOADS, generate_for_design

    name = args.workload
    if name == "corpus":
        return [
            (case_name, lambda d, n=case_name: LITMUS[n].build())
            for case_name in sorted(LITMUS)
        ]
    if name in LITMUS:
        return [(name, lambda d, n=name: LITMUS[n].build())]
    if name in WORKLOADS:
        cfg = default_config(args.ops)

        def build(design, n=name):
            return generate_for_design(
                WORKLOADS[n], cfg, design, args.model
            ).program

        return [(name, build)]
    return None


def _cmd_modelcheck(args: argparse.Namespace) -> int:
    from repro.analysis import MODELCHECK_SCHEMA, MUTATIONS, check_program
    from repro.sim.machine import DESIGNS

    if args.workload is None:
        print("modelcheck requires a target, e.g.: python -m repro "
              "modelcheck corpus --design all", file=sys.stderr)
        return 2
    if args.design is None:
        args.design = "all"
    if args.design != "all" and args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from "
              f"{sorted(DESIGNS) + ['all']}", file=sys.stderr)
        return 2
    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(f"unknown mutation {args.mutate!r}; choose from "
              f"{sorted(MUTATIONS)}", file=sys.stderr)
        return 2
    if args.budget < 1:
        print("--budget must be at least 1", file=sys.stderr)
        return 2
    if args.samples < 0:
        print("--samples must be non-negative", file=sys.stderr)
        return 2
    designs = sorted(DESIGNS) if args.design == "all" else [args.design]
    targets = _modelcheck_targets(args, designs)
    if targets is None:
        from repro.analysis import LITMUS
        from repro.workloads import WORKLOADS

        print(f"unknown target {args.workload!r}; choose a litmus case "
              f"({', '.join(sorted(LITMUS))}), a workload "
              f"({', '.join(sorted(WORKLOADS))}), or 'corpus'",
              file=sys.stderr)
        return 2

    reports = []
    for name, build in targets:
        for design in designs:
            reports.append(
                check_program(
                    build(design),
                    design,
                    target=name,
                    budget=args.budget,
                    oracle_samples=args.samples,
                    mutate=args.mutate,
                )
            )
    agree = all(r.agree for r in reports)
    if args.json:
        doc = {
            "schema": MODELCHECK_SCHEMA,
            "target": args.workload,
            "designs": designs,
            "budget": args.budget,
            "mutation": args.mutate,
            "agree": agree,
            "reports": [r.to_json() for r in reports],
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for r in reports:
            print(r.render())
        n_div = sum(len(r.divergences) for r in reports)
        print(f"modelcheck {'OK' if agree else 'FAILED'}: "
              f"{len(reports)} report(s), {n_div} divergence(s)")
    return 0 if agree else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.analysis import LITMUS, repair
    from repro.sim.machine import DESIGNS

    if args.workload is None:
        print("repair requires a target, e.g.: python -m repro repair "
              "overser-double-clwb", file=sys.stderr)
        return 2
    if args.design is None:
        args.design = (
            LITMUS[args.workload].design
            if args.workload in LITMUS
            else "strandweaver"
        )
    if args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from {sorted(DESIGNS)}",
              file=sys.stderr)
        return 2
    targets = _modelcheck_targets(args, [args.design])
    if targets is None or args.workload == "corpus":
        print(f"unknown repair target {args.workload!r}; choose a litmus "
              f"case or a workload", file=sys.stderr)
        return 2
    (name, build), = targets
    result = repair(
        build(args.design), args.design, target=name, budget=args.budget
    )
    if args.apply and result.program is not None:
        out = args.out or f"{name}.repaired.json"
        _write_repaired_trace(out, result)
        if not args.json:
            print(f"wrote repaired trace to {out}")
    if args.json:
        print(json.dumps(result.to_json(), indent=1, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.verified else 1


def _write_repaired_trace(path: str, result) -> None:
    """Serialise the repaired program as a portable op-stream document."""
    program = result.program
    doc = {
        "schema": "repro.repair/1-trace",
        "target": result.target,
        "design": result.design,
        "edits": [e.to_json() for e in result.edits],
        "threads": [
            [
                {
                    "kind": op.kind.name,
                    "addr": op.addr,
                    "size": op.size,
                    "data": op.data.hex(),
                    "lock_id": op.lock_id,
                    "cycles": op.cycles,
                    "gseq": op.gseq,
                    "region": op.region,
                    "label": op.label,
                }
                for op in trace.ops
            ]
            for trace in program.threads
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _make_cache(args: argparse.Namespace):
    from repro.harness.cachedir import DEFAULT_CACHE_DIR, CellCache

    if args.no_cache:
        return None
    return CellCache(args.cache_dir or DEFAULT_CACHE_DIR)


def _parse_matrix_axis(raw: str, universe, axis: str):
    """Split a comma list, mapping 'all' to the full ordered universe."""
    if raw == "all":
        return list(universe), None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in universe]
    if not names:
        return None, f"--{axis} must name at least one entry"
    if unknown:
        return None, (
            f"unknown {axis} {unknown!r}; choose from {sorted(universe)} or 'all'"
        )
    return names, None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.experiment import ALL_DESIGNS, ALL_MODELS
    from repro.harness.figures import BENCH_ORDER
    from repro.harness.report import render_table
    from repro.harness.sweep import expand_cells, run_sweep
    from repro.obs.export import sweep_to_json, write_sweep_json
    from repro.workloads import WORKLOADS

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    bench_universe = tuple(BENCH_ORDER) + tuple(
        name for name in sorted(WORKLOADS) if name not in BENCH_ORDER
    )
    workloads, err = _parse_matrix_axis(args.workloads, bench_universe, "workloads")
    if err:
        print(err, file=sys.stderr)
        return 2
    designs, err = _parse_matrix_axis(args.designs, ALL_DESIGNS, "designs")
    if err:
        print(err, file=sys.stderr)
        return 2
    models, err = _parse_matrix_axis(args.models, ALL_MODELS, "models")
    if err:
        print(err, file=sys.stderr)
        return 2
    if args.retries < 0:
        print("--retries must be non-negative", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("--timeout must be a positive number of seconds", file=sys.stderr)
        return 2
    if args.deterministic and (args.runlog or args.progress):
        # The run log and progress line are wall-clock telemetry; a
        # deterministic sweep must not produce either (the whole point
        # of --deterministic is byte-identical artefacts).
        print("--deterministic excludes --runlog/--progress: the run log "
              "is wall-clock telemetry", file=sys.stderr)
        return 2
    cells = expand_cells(workloads, designs, models, ops_per_thread=args.ops)
    runlog = progress = None
    if args.runlog:
        from repro.prof.runlog import RunLog

        runlog = RunLog(
            args.runlog, kind="sweep", total=len(cells),
            meta={"jobs": args.jobs, "ops_per_thread": args.ops},
        )
    if args.progress:
        from repro.prof.runlog import Progress

        progress = Progress(len(cells), label="sweep")
    try:
        result = run_sweep(
            cells, jobs=args.jobs, cache=_make_cache(args),
            timeout=args.timeout, retries=args.retries,
            runlog=runlog, progress=progress,
        )
    finally:
        if runlog is not None:
            runlog.close()
    doc = sweep_to_json(result, deterministic=args.deterministic)
    if args.out:
        write_sweep_json(args.out, result, deterministic=args.deterministic)
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True, allow_nan=False))
    else:
        rows = []
        for res in result.cells:
            rows.append([
                res.cell.benchmark,
                res.cell.design,
                res.cell.model,
                res.stats.cycles if res.ok else "ERROR",
                res.source,
                f"{res.wall_time:.2f}s",
            ])
        print(render_table(
            f"Sweep: {len(result.cells)} cells (-j {result.jobs})",
            ["benchmark", "design", "model", "cycles", "source", "wall"],
            rows,
        ))
        print(
            f"wall {result.wall_time:.2f}s  cache {result.cache_hits} hit / "
            f"{result.cache_misses} miss  memo {result.memo_hits} hit  "
            f"errors {result.errors}"
        )
        for res in result.cells:
            if not res.ok:
                print(f"\nFAILED {res.cell.label()}:\n{res.error}")
    return 0 if result.errors == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import time as _time

    from repro.prof.bench import append_run, check_regression, record_run, resolve_ops

    ops = resolve_ops(args.ops, DEFAULT_OPS)
    entry = record_run(ops_per_thread=ops)
    rc = 0
    if args.json:
        print(json.dumps(entry, indent=1, sort_keys=True, allow_nan=False))
    else:
        figures = entry["figures"]
        for name, fig in figures.items():
            print(f"  {name:8s} {fig['wall_s']:8.3f}s  {fig['cells']:3d} cells  "
                  f"{fig['cells_per_s']:8.2f} cells/s")
        print(f"  total    {entry['total_wall_s']:8.3f}s  "
              f"{entry['total_cells']:3d} cells  "
              f"{entry['cells_per_s']:8.2f} cells/s  "
              f"(ops={ops}, sha {str(entry['git_sha'])[:12]})")
    if args.baseline:
        ok, report = check_regression(args.baseline, entry, args.max_regress)
        print(report, file=sys.stderr if args.json else sys.stdout)
        rc = 0 if ok else 1
    if args.record:
        out = args.out or _time.strftime("BENCH_%Y-%m-%d.json")
        doc = append_run(out, entry)
        print(f"recorded run {len(doc['runs'])} in {out}",
              file=sys.stderr if args.json else sys.stdout)
    return rc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.artefact in ("crashtest", "soak"):
        if args.ops is not None or args.model != "txn":
            from repro.chaos import CHAOS_CFG

            print(f"{args.artefact} runs CHAOS_CFG ({CHAOS_CFG.n_threads} threads x "
                  f"{CHAOS_CFG.ops_per_thread} ops/thread) with the txn model; "
                  "--ops and --model are not supported", file=sys.stderr)
            return 2
    elif args.artefact != "bench" and args.ops is None:
        args.ops = DEFAULT_OPS
    if args.artefact == "trace":
        return _cmd_trace(args)
    if args.artefact == "bench":
        return _cmd_bench(args)
    if args.artefact == "crashtest":
        return _cmd_crashtest(args)
    if args.artefact == "soak":
        return _cmd_soak(args)
    if args.artefact == "lint":
        return _cmd_lint(args)
    if args.artefact == "modelcheck":
        return _cmd_modelcheck(args)
    if args.artefact == "repair":
        return _cmd_repair(args)
    if args.artefact == "sweep":
        return _cmd_sweep(args)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    cache = _make_cache(args)
    names = sorted(ARTEFACTS) if args.artefact == "all" else [args.artefact]
    if args.json:
        docs = [ARTEFACTS[name](args.ops, args.jobs, cache).to_json() for name in names]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=1, allow_nan=False))
    else:
        for name in names:
            print(ARTEFACTS[name](args.ops, args.jobs, cache).render())
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
