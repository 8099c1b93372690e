"""Command-line entry point: regenerate artefacts, trace runs, check crashes.

Usage (``python -m repro <command> --help`` lists a command's options;
with no command, ``all`` runs)::

    python -m repro table1 [--json]
    python -m repro {table2|fig7|fig8|fig9|fig10|models|all} [--ops N] [-j N] [--no-cache] [--cache-dir DIR] [--json]
    python -m repro sweep [--workloads w1,w2|all] [--designs d1,d2|all] [--models m1,m2|all] [--ops N] [-j N] [--json]
    python -m repro trace <workload> [--design d] [--model m] [--ops N] [--out trace.json] [--stats-out F] [--ring N]
    python -m repro bench [--ops N] [--record [FILE]] [--baseline FILE --max-regress PCT] [--json]
    python -m repro crashtest <workload> [--design d|all] [--crashes N] [--seed S] [--torn] [--json]
    python -m repro soak <workload> [--design d|all] [--seeds N] [--seed S] [--no-media] [--json]
    python -m repro lint <workload> [--design d|all] [--model m] [--ops N] [--json]
    python -m repro modelcheck <litmus|workload|corpus> [--design d|all] [--budget N] [--samples K] [--mutate m] [--json]
    python -m repro repair <litmus|workload> [--design d] [--budget N] [--apply [FILE]] [--json]

Each command has its own parser, which declares only the options that
command reads.  Unknown workload and design names, out-of-range numbers,
a missing target, an option the command does not read and an
abbreviated option are argparse usage errors: exit status 2, before any
work runs.

``crashtest`` and ``soak`` always run the fixed ``CHAOS_CFG`` scale and
the ``txn`` model, so they have no ``--ops`` or ``--model``.  ``lint
--design all`` also fails if the deliberately broken NON-ATOMIC design
produces *no* errors (the linter must keep its teeth).  Figures and
``sweep`` fan their cells over ``-j`` worker processes with
bit-identical results, and settle each cell into the content-addressed
cache under ``.repro-cache/`` as it finishes (``--no-cache`` disables
it), so rerunning a killed run resumes where it stopped.  The
``--runlog`` and ``--progress`` telemetry of ``sweep``/``soak`` is
wall-clock data, so a ``--deterministic`` sweep refuses it.
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
from repro.harness.experiment import ALL_DESIGNS, ALL_MODELS
from repro.harness.figures import BENCH_ORDER
from repro.sim.machine import DESIGNS
from repro.workloads import MODELS, WORKLOADS

#: ``--ops`` when the flag is not given (``bench`` also reads
#: ``REPRO_BENCH_OPS``; ``crashtest``/``soak`` have no ``--ops``).
DEFAULT_OPS = 16

#: The artefact commands.  Table I takes no arguments; every other
#: figure function takes ``ops_per_thread``, ``jobs`` and ``cache``.
ARTEFACTS = {
    "table1": table1,
    "table2": table2,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "models": model_sensitivity,
}

COMMANDS = sorted(ARTEFACTS) + [
    "all", "sweep", "trace", "bench", "crashtest", "soak", "lint",
    "modelcheck", "repair",
]

CHAOS_NOTE = (
    "Crash campaigns always run the fixed CHAOS_CFG scale with the txn "
    "model, so there is no --ops or --model."
)


def _bounded(kind, low, *, above=False):
    """argparse ``type=``: a ``kind`` number at least ``low``, or above
    it with ``above``."""

    def parse(text):
        value = kind(text)
        if not (value > low if above else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if above else 'at least'} {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _axis(universe, axis):
    """argparse ``type=`` for a sweep axis: a comma list, or 'all' for the
    full ordered universe."""

    def parse(raw):
        if raw == "all":
            return list(universe)
        names = [name.strip() for name in raw.split(",") if name.strip()]
        unknown = [name for name in names if name not in universe]
        if not names:
            raise argparse.ArgumentTypeError("must name at least one entry")
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {axis} {unknown!r}; choose from {sorted(universe)} or 'all'"
            )
        return names

    return parse


def _parent() -> argparse.ArgumentParser:
    """A ``parents=`` parser, for arguments shared by several commands."""
    return argparse.ArgumentParser(add_help=False, allow_abbrev=False)


def _build_parser() -> argparse.ArgumentParser:
    as_json = _parent()
    as_json.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of rendered text",
    )
    ops = _parent()
    ops.add_argument(
        "--ops", type=_bounded(int, 1), default=DEFAULT_OPS,
        help=f"operations per thread (default {DEFAULT_OPS}; the paper used "
        "~6250)",
    )
    pool = _parent()
    pool.add_argument(
        "-j", "--jobs", type=_bounded(int, 1), default=1, metavar="N",
        help="worker processes (default 1 = serial; results are "
        "bit-identical at any -j)",
    )
    pool.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache",
    )
    pool.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )
    telemetry = _parent()
    telemetry.add_argument(
        "--progress", action="store_true", help="live progress line on stderr",
    )
    telemetry.add_argument(
        "--runlog", default=None, metavar="FILE",
        help="stream repro.runlog/1 JSONL campaign telemetry to FILE",
    )
    model = _parent()
    model.add_argument(
        "--model", default="txn", choices=tuple(MODELS),
        help="language-level persistency model (default: txn)",
    )
    seeding = _parent()
    seeding.add_argument(
        "--seed", type=int, default=7,
        help="master seed of the fault schedules (default 7)",
    )
    seeding.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking failures to minimal reproducers",
    )
    budget = _parent()
    budget.add_argument(
        "--budget", type=_bounded(int, 1), default=200_000, metavar="N",
        help="bounded-exhaustive crash-state enumeration budget; programs "
        "whose state space exceeds it degrade to pairwise order checking "
        "(default 200000)",
    )
    workload = _parent()
    workload.add_argument("workload", choices=sorted(WORKLOADS))
    designs = sorted(DESIGNS)

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="StrandWeaver reproduction: regenerate evaluation "
        "artefacts (default command: all)",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )

    def command(name, func, summary, parents=(), epilog=None):
        sub = subparsers.add_parser(
            name, help=summary, description=summary, epilog=epilog,
            parents=[as_json, *parents], allow_abbrev=False,
        )
        sub.set_defaults(func=func)
        return sub

    for name, func in sorted(ARTEFACTS.items()):
        command(name, _cmd_artefacts, (func.__doc__ or name).splitlines()[0],
                [] if name == "table1" else [ops, pool])
    command("all", _cmd_artefacts, "every table and figure above, in name "
            "order", [ops, pool])

    sweep = command(
        "sweep", _cmd_sweep, "evaluate a (workload x design x model) matrix "
        "through the parallel sweep engine (repro.sweep/1)",
        [ops, pool, telemetry],
    )
    sweep.add_argument(
        "--workloads", default="all",
        type=_axis(tuple(BENCH_ORDER) + tuple(
            name for name in sorted(WORKLOADS) if name not in BENCH_ORDER
        ), "workloads"),
        help="comma-separated benchmarks, or 'all' (default)",
    )
    sweep.add_argument(
        "--designs", default="all", type=_axis(ALL_DESIGNS, "designs"),
        help="comma-separated hardware designs, or 'all' (default)",
    )
    sweep.add_argument(
        "--models", default="txn", type=_axis(ALL_MODELS, "models"),
        help="comma-separated language models, or 'all' (default: txn)",
    )
    sweep.add_argument(
        "--deterministic", action="store_true",
        help="--json: omit wall-clock and cache-provenance fields so output "
        "is byte-identical across -j levels and cache states (excludes "
        "--runlog and --progress)",
    )
    sweep.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the repro.sweep/1 document to FILE",
    )
    sweep.add_argument(
        "--timeout", type=_bounded(float, 0, above=True), default=None,
        metavar="SEC",
        help="per-cell timeout in seconds (a hung cell's worker is killed "
        "and only that cell fails)",
    )
    sweep.add_argument(
        "--retries", type=_bounded(int, 0), default=0, metavar="N",
        help="re-run a failing cell up to N extra times (default 0)",
    )

    trace = command(
        "trace", _cmd_trace, "replay one cell with the tracer on and write "
        "a Chrome/Perfetto trace", [workload, ops, model],
    )
    trace.add_argument(
        "--design", default="strandweaver", choices=designs,
        help="hardware design (default: strandweaver)",
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="trace-event JSON path (default trace.json)",
    )
    trace.add_argument(
        "--stats-out", default=None, metavar="FILE",
        help="also write the run's repro.stats/1 document to FILE",
    )
    trace.add_argument(
        "--ring", type=_bounded(int, 0), default=0, metavar="N",
        help="keep only the most recent N trace events (0 = unbounded)",
    )

    bench = command(
        "bench", _cmd_bench, "time every figure and print per-figure wall "
        "time and cells/second",
    )
    bench.add_argument(
        "--ops", type=_bounded(int, 1), default=None,
        help=f"operations per thread (default $REPRO_BENCH_OPS, else "
        f"{DEFAULT_OPS})",
    )
    bench.add_argument(
        "--record", nargs="?", const="", default=None, metavar="FILE",
        help="append the run to the trajectory store FILE (default "
        "BENCH_<date>.json)",
    )
    bench.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="compare this run against a committed trajectory store and "
        "fail on regression (see --max-regress)",
    )
    bench.add_argument(
        "--max-regress", type=float, default=300.0, metavar="PCT",
        help="maximum tolerated total wall-time growth over the baseline, "
        "in percent (default 300)",
    )

    crashtest = command(
        "crashtest", _cmd_crashtest, "crash the simulator at seeded fault "
        "points, recover each crash image and check the workload's "
        "invariants", [workload, seeding], epilog=CHAOS_NOTE,
    )
    crashtest.add_argument(
        "--design", default="strandweaver", choices=designs + ["all"],
        help="hardware design, or 'all' for the differential oracle "
        "(default: strandweaver)",
    )
    crashtest.add_argument(
        "--crashes", type=_bounded(int, 1), default=50, metavar="N",
        help="number of seeded crash points (default 50)",
    )
    crashtest.add_argument(
        "--torn", action="store_true",
        help="also tear the latest durable store (checker stress; failures "
        "become the expected outcome for every design)",
    )
    crashtest.add_argument(
        "--no-writeback-faults", action="store_true",
        help="disable injected delayed write-backs",
    )
    crashtest.add_argument(
        "--no-drop-faults", action="store_true",
        help="disable delayed-persist (drop) faults",
    )

    soak = command(
        "soak", _cmd_soak, "run a randomized fault campaign and shrink any "
        "unexpected violation (repro.soak/1)", [workload, seeding, telemetry],
        epilog=CHAOS_NOTE,
    )
    soak.add_argument(
        "--design", default="all", choices=designs + ["all"],
        help="pin one hardware design (default: rotate over all)",
    )
    soak.add_argument(
        "--seeds", type=_bounded(int, 1), default=50, metavar="N",
        help="number of randomized cases to run (default 50)",
    )
    soak.add_argument(
        "--no-media", action="store_true",
        help="never attach a device-level media fault model",
    )

    lint = command(
        "lint", _cmd_lint, "statically analyse a workload's compiled trace "
        "for persistency bugs", [workload, ops, model],
    )
    lint.add_argument(
        "--design", default="strandweaver", choices=designs + ["all"],
        help="hardware design, or 'all' (default: strandweaver)",
    )

    modelcheck = command(
        "modelcheck", _cmd_modelcheck, "check the declarative axioms, the "
        "operational persist DAG and the machine agree on crash states",
        [ops, model, budget],
    )
    modelcheck.add_argument(
        "target", help="a litmus case, a workload, or 'corpus'",
    )
    modelcheck.add_argument(
        "--design", default="all", choices=designs + ["all"],
        help="hardware design, or 'all' (default)",
    )
    modelcheck.add_argument(
        "--samples", type=_bounded(int, 0), default=5, metavar="N",
        help="machine-oracle crash points sampled across the clean run's "
        "makespan (default 5; 0 disables the oracle)",
    )
    modelcheck.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="seed a deliberate semantics bug into the operational model "
        "(drop-barrier, drop-join, ignore-newstrand) — the checker must "
        "report a divergence",
    )

    repair = command(
        "repair", _cmd_repair, "search minimal fence/flush edits that make "
        "a trace lint-clean and model-check-clean", [ops, model, budget],
    )
    repair.add_argument("target", help="a litmus case or a workload")
    repair.add_argument(
        "--design", default=None, choices=designs,
        help="hardware design (default: a litmus case's own design, else "
        "strandweaver)",
    )
    repair.add_argument(
        "--apply", nargs="?", const="", default=None, metavar="FILE",
        help="write the repaired op stream as JSON to FILE (default "
        "<target>.repaired.json)",
    )
    return parser


def _cmd_artefacts(args: argparse.Namespace) -> int:
    names = sorted(ARTEFACTS) if args.command == "all" else [args.command]
    cache = None if args.command == "table1" else _make_cache(args)
    results = (
        table1() if name == "table1" else ARTEFACTS[name](
            ops_per_thread=args.ops, jobs=args.jobs, cache=cache
        )
        for name in names
    )
    if args.json:
        docs = [result.to_json() for result in results]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=1, allow_nan=False))
    else:
        for result in results:
            print(result.render())
            print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.harness.experiment import default_config
    from repro.obs import Tracer, write_stats_json, write_trace
    from repro.sim.machine import Machine
    from repro.workloads import generate_for_design

    tracer = (
        Tracer(mode="ring", capacity=args.ring) if args.ring else Tracer()
    )
    run = generate_for_design(
        WORKLOADS[args.workload], default_config(args.ops), args.design, args.model
    )
    stats = Machine(args.design, tracer=tracer).run(run.program)
    doc = write_trace(args.out, tracer)
    if args.stats_out:
        write_stats_json(args.stats_out, stats)
    if args.json:
        print(json.dumps(stats.summary(), sort_keys=True))
    else:
        summary = stats.summary()
        print(f"wrote {args.out}: {len(doc['traceEvents'])} trace records "
              f"({tracer.dropped} dropped)")
        print(f"  {args.workload} on {args.design} ({args.model}): "
              f"{summary['cycles']} cycles, {summary['clwbs']} CLWBs, "
              f"{summary['persist_stalls']} persist-stall cycles")
        print("  open in https://ui.perfetto.dev")
    return 0


def _cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.chaos import run_crashtest, run_differential

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
            designs=None if args.design == "all" else [args.design],
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
    from repro.workloads import generate_for_design

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


def _modelcheck_targets(args: argparse.Namespace):
    """Resolve the modelcheck/repair target into (name, program) pairs.

    A target is a litmus case, the whole litmus ``corpus``, or a workload
    name (compiled per design, litmus-sized state spaces not required —
    big programs degrade to pairwise checking).
    """
    from repro.analysis import LITMUS
    from repro.harness.experiment import default_config
    from repro.workloads import generate_for_design

    name = args.target
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
    from repro.analysis import LITMUS, MODELCHECK_SCHEMA, MUTATIONS, check_program

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(f"unknown mutation {args.mutate!r}; choose from "
              f"{sorted(MUTATIONS)}", file=sys.stderr)
        return 2
    designs = sorted(DESIGNS) if args.design == "all" else [args.design]
    targets = _modelcheck_targets(args)
    if targets is None:
        print(f"unknown target {args.target!r}; choose a litmus case "
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
            "target": args.target,
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

    if args.design is None:
        args.design = (
            LITMUS[args.target].design if args.target in LITMUS else "strandweaver"
        )
    targets = _modelcheck_targets(args)
    if targets is None or args.target == "corpus":
        print(f"unknown repair target {args.target!r}; choose a litmus "
              f"case or a workload", file=sys.stderr)
        return 2
    (name, build), = targets
    result = repair(
        build(args.design), args.design, target=name, budget=args.budget
    )
    if args.apply is not None and result.program is not None:
        out = args.apply or f"{name}.repaired.json"
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.report import render_table
    from repro.harness.sweep import expand_cells, run_sweep
    from repro.obs.export import sweep_to_json, write_sweep_json

    if args.deterministic and (args.runlog or args.progress):
        # The run log and progress line are wall-clock telemetry; a
        # deterministic sweep must not produce either (the whole point
        # of --deterministic is byte-identical artefacts).
        print("--deterministic excludes --runlog/--progress: the run log "
              "is wall-clock telemetry", file=sys.stderr)
        return 2
    cells = expand_cells(
        args.workloads, args.designs, args.models, ops_per_thread=args.ops
    )
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
    if args.record is not None:
        out = args.record or _time.strftime("BENCH_%Y-%m-%d.json")
        doc = append_run(out, entry)
        print(f"recorded run {len(doc['runs'])} in {out}",
              file=sys.stderr if args.json else sys.stdout)
    return rc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(argv or ["all"])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
