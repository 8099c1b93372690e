"""Layer-resolved benchmark of the StrandWeaver reproduction.

Measure one workload (the form ``BENCHMARK.json`` runs)::

    python3 benchmarks/perf/run.py --workload fig9-dse --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every unit of work runs in a fresh interpreter (``unit.py``), one at a
time, and metrics are medians over the units of a run.  ``--workload
all`` (or a comma list) interleaves the workloads round-robin so machine
drift lands on all of them; ``--out`` keeps every sample, and
``--compare A.json B.json`` judges two such reports against the bounds
in ``BENCHMARK.json``.  ``--record-golden`` rewrites the golden digests
every run is checked against.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
UNIT = os.path.join(HERE, "unit.py")
#: scratch space inside the checkout: unit results, pool caches, spans.
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)

from speed import REFERENCE_PROBE_S  # noqa: E402
from unit import SCALES, WORKLOADS, golden_dir  # noqa: E402

#: switches that would change which engine runs or what it runs; a
#: child must never inherit them.  The native core is built inside the
#: checkout, so its build-directory override goes too.
SCRUBBED_ENV = (
    "REPRO_SIM_REFERENCE",
    "REPRO_SIM_NO_C",
    "REPRO_PROF_PHASES",
    "REPRO_BENCH_OPS",
    "REPRO_CC_CACHE",
)
SCRUBBED_PREFIX = "REPRO_SWEEP_TEST_"

SETUP_SAMPLES = 5
#: the soak seeds with recorded digests; 1007 is held out from tuning.
GOLDEN_SOAK_SEEDS = (7, 1007)
GOLDEN_SOAK_UNITS = {"full": 12, "smoke": 2}
BUILD_TIMEOUT_S = 600
UNIT_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in SCRUBBED_ENV and not key.startswith(SCRUBBED_PREFIX)
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _start(args: Sequence[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, UNIT, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one group: a timeout kills pool workers too
    )


def _finish(proc: subprocess.Popen, timeout: float) -> Tuple[str, str]:
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return out, err


def call_unit(args: Sequence[str], timeout: float = UNIT_TIMEOUT_S) -> str:
    """Run ``unit.py`` to completion; its stdout, or BenchError."""
    proc = _start(args)
    try:
        out, err = _finish(proc, timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"unit.py {' '.join(args)} exceeded {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"unit.py {' '.join(args)} exited {proc.returncode}:\n{err.strip()}"
        )
    return out


def time_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the workload's entry modules and loaded the native core, at the
    reference host's speed (the child probes its vCPU once ready)."""
    t0 = time.perf_counter()
    proc = _start(["setup", "--workload", workload])
    watchdog = threading.Timer(60, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        probe_s = proc.stdout.readline()
    finally:
        watchdog.cancel()
    _, err = _finish(proc, 60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up of {workload} failed:\n{err.strip()}")
    return elapsed * REFERENCE_PROBE_S / float(probe_s)


class Runner:
    """Spawns units and keeps their results."""

    def __init__(self, scale: str, golden: Optional[str], workdir: str) -> None:
        self.scale = scale
        self.golden = golden
        self.workdir = workdir
        self.spans_dir = os.path.join(WORK, "spans")
        os.makedirs(self.spans_dir, exist_ok=True)

    def unit(
        self, workload: str, seed: int, unit: int, trace: bool = False, record: bool = False
    ) -> Dict:
        kind = "traced" if trace else "untraced"
        result = os.path.join(self.workdir, f"{workload}-{seed}-{unit}-{kind}.json")
        args = [
            "run", "--workload", workload, "--seed", str(seed), "--unit", str(unit),
            "--scale", self.scale, "--result", result, "--workdir", self.workdir,
        ]
        if trace:
            spans = os.path.join(self.spans_dir, f"{workload}-seed{seed}-unit{unit}.json")
            args += ["--trace", "--spans", spans]
        if record:
            args.append("--record")
        if self.golden:
            args += ["--golden", self.golden]
        call_unit(args)
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        if trace:
            doc["spans_path"] = spans
        return doc


# -- measurement -------------------------------------------------------------


def measure(
    runner: Runner,
    workloads: List[str],
    seed: int,
    seconds: float,
    trace: bool,
    repeat: int,
) -> Dict[str, Dict]:
    """Run rounds of units, one workload after another, until at least
    ``repeat`` rounds are done and the next round would overrun
    ``seconds`` per workload.  With ``trace`` every round adds a traced
    unit after each untraced one; without, a timed set-up precedes each
    unit (at least ``SETUP_SAMPLES`` in all), so set-up time is sampled
    across the run like the units are."""
    runs = {w: {"untraced": [], "traced": [], "setup": []} for w in workloads}
    deadline = time.perf_counter() + seconds * len(workloads)
    round_s: List[float] = []
    unit = 0
    while True:
        t0 = time.perf_counter()
        for w in workloads:
            if not trace:
                runs[w]["setup"].append(time_setup(w))
            runs[w]["untraced"].append(runner.unit(w, seed, unit))
            if trace:
                runs[w]["traced"].append(runner.unit(w, seed, unit, trace=True))
        round_s.append(time.perf_counter() - t0)
        unit += 1
        if unit >= repeat and time.perf_counter() + statistics.median(round_s) > deadline:
            break
    while not trace and len(runs[workloads[0]]["setup"]) < SETUP_SAMPLES:
        for w in workloads:
            runs[w]["setup"].append(time_setup(w))
    return runs


def spread(samples: List[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / abs(mid) if mid else 0.0


def tail(walls: List[float]) -> Tuple[float, str, int]:
    """Highest of p75/p90/p99 with at least ten cells beyond it."""
    best = (statistics.median(walls), "p50", len(walls) // 2)
    if len(walls) < 2:
        return best
    cuts = statistics.quantiles(walls, n=100)
    for pct in (75, 90, 99):
        beyond = sum(1 for w in walls if w > cuts[pct - 1])
        if beyond >= 10:
            best = (cuts[pct - 1], f"p{pct}", beyond)
    return best


def end_to_end_samples(run: Dict) -> Dict[str, List[float]]:
    units = run["untraced"]
    return {
        "wall_s": [u["wall_s"] for u in units],
        "cells_per_s": [u["attempted"] / u["wall_s"] for u in units],
        "sim_mops_per_s": [u["sim_ops"] / u["wall_s"] / 1e6 for u in units],
        "peak_rss_mb": [u["peak_rss_mb"] for u in units],
        "setup_s": run["setup"],
    }


def per_layer_samples(run: Dict) -> Tuple[Dict[str, List[float]], Dict[str, object]]:
    """Per-layer samples, plus notes for the report (tail percentile)."""
    untraced, traced = run["untraced"], run["traced"]
    samples: Dict[str, List[float]] = {
        key: [u["layers"][key] for u in traced] for key in traced[0]["layers"]
    }
    tails = [tail(u["cell_walls"]) for u in untraced]
    samples["harness.sweep.busy_s"] = [u["busy_s"] for u in untraced]
    samples["harness.sweep.overhead_s"] = [
        u["host_wall_s"] - u["busy_s"] / u["jobs"] for u in untraced
    ]
    samples["harness.sweep.cell_p50_s"] = [u["cell_p50_s"] for u in untraced]
    samples["harness.sweep.cell_ptail_s"] = [t[0] for t in tails]
    samples["host.slowdown"] = [u["slowdown"] for u in untraced]
    busy = statistics.median(samples["harness.sweep.busy_s"])
    wall = statistics.median(u["host_wall_s"] for u in untraced)
    samples["harness.sweep.regen_factor"] = [busy / s for s in samples["trace.layer_s"]]
    samples["trace.overhead_frac"] = [s / wall - 1.0 for s in samples["trace.wall_s"]]
    notes = {
        "cell_ptail": sorted({f"{pct} with {n} cells beyond" for _, pct, n in tails}),
        "attributed_frac": statistics.median(
            layer / total
            for layer, total in zip(samples["trace.layer_s"], samples["trace.wall_s"])
        ),
    }
    return samples, notes


def summarize(
    spec: Dict, runs: Dict[str, Dict], trace: bool
) -> Tuple[Dict[str, Dict], bool, int, int]:
    """Metric values and samples per workload, plus the correctness tally."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    out: Dict[str, Dict] = {}
    attempted = failed = 0
    for workload, run in runs.items():
        units = run["untraced"] + run["traced"]
        attempted += sum(u["attempted"] for u in units)
        failed += sum(u["failed"] for u in units)
        if trace:
            samples, notes = per_layer_samples(run)
        else:
            samples, notes = end_to_end_samples(run), {}
        metrics = {}
        for m in section:
            values = samples[m["name"]]
            metrics[m["name"]] = {
                "value": statistics.median(values),
                "unit": m["unit"],
                "samples": values,
                "spread": spread(values),
            }
        out[workload] = {
            "metrics": metrics,
            "notes": notes,
            "failures": [f for u in units for f in u["failures"]],
        }
    return out, failed == 0, attempted, failed


def print_report(summary: Dict[str, Dict]) -> None:
    for workload, doc in summary.items():
        print(f"== {workload}")
        for name, m in doc["metrics"].items():
            print(
                f"  {name:<34} {m['value']:>14.6g} {m['unit']:<9} "
                f"spread {100 * m['spread']:5.1f}%  n={len(m['samples'])}"
            )
        for key, value in doc["notes"].items():
            print(f"  {key}: {value}")
        for failure in doc["failures"]:
            print(f"  FAILED {failure}")


# -- golden outputs ------------------------------------------------------------


def record_golden(runner: Runner, workloads: List[str], scale: str) -> None:
    directory = runner.golden or golden_dir(scale)
    os.makedirs(directory, exist_ok=True)
    for workload in workloads:
        doc = {"workload": workload, "size": SCALES[scale][workload]}
        if workload == "soak":
            campaigns = {}
            for seed in GOLDEN_SOAK_SEEDS:
                for unit in range(GOLDEN_SOAK_UNITS[scale]):
                    campaigns[f"{seed}:{unit}"] = _recorded(runner, workload, seed, unit)
            doc["campaigns"] = campaigns
        else:
            doc["cells"] = _recorded(runner, workload, 0, 0)
        path = os.path.join(directory, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {path}")


def _recorded(runner: Runner, workload: str, seed: int, unit: int) -> Dict[str, str]:
    result = runner.unit(workload, seed, unit, record=True)
    if result["failed"]:
        raise BenchError(f"refusing to record failing outputs: {result['failures']}")
    return {label: got for label, got in result["digests"].items() if got is not None}


# -- compare ---------------------------------------------------------------------


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, str]:
    """Relative change from A to B (positive = worse) and its verdict."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return worse, "ok" if all_better else "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def compare(spec: Dict, path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    regressed = 0
    print(f"{'workload':<10} {'metric':<15} {'A':>12} {'B':>12} {'worse':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload, wa in doc_a["workloads"].items():
            wb = doc_b["workloads"].get(workload)
            if wb is None or name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            a, b = wa["metrics"][name]["samples"], wb["metrics"][name]["samples"]
            worse, word = verdict(a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"
            print(
                f"{workload:<10} {name:<15} {statistics.median(a):>12.6g} "
                f"{statistics.median(b):>12.6g} {100 * worse:>+7.1f}% "
                f"{100 * metric['bound']:>5.0f}%  {word}"
            )
    return 1 if regressed else 0


# -- entry point -------------------------------------------------------------------


def parse_args(argv: Optional[List[str]], spec: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=4, help="minimum units per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny scale for the tests")
    parser.add_argument("--golden", help="golden directory (default: the scale's own)")
    parser.add_argument("--out", help="write every sample and the host to this JSON file")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    args.workloads = list(dict.fromkeys(names))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(spec, *args.compare)
    scale = "smoke" if args.smoke else "full"
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        env = json.loads(call_unit(["env"], timeout=BUILD_TIMEOUT_S))
        runner = Runner(scale, args.golden, workdir)
        if args.record_golden:
            record_golden(runner, args.workloads, scale)
            return 0
        runs = measure(runner, args.workloads, args.seed, args.seconds,
                       bool(args.trace), args.repeat)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary, correct, attempted, failed = summarize(spec, runs, bool(args.trace))
    print(f"host: {json.dumps(env, sort_keys=True)}  scale: {scale}  seed: {args.seed}")
    print_report(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "env": env,
                "scale": scale,
                "seed": args.seed,
                "trace": args.trace,
                "workloads": summary,
                "units": runs,
            }, fh, indent=1)
    single = len(summary) == 1
    metrics = {
        (name if single else f"{workload}/{name}"): {"value": m["value"], "unit": m["unit"]}
        for workload, doc in summary.items()
        for name, m in doc["metrics"].items()
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
