"""Bench trajectory store and regression gate (``repro bench --record``).

``repro bench --record`` times each evaluation figure at a fixed scale
and *appends* the measurement to a trajectory file
(``BENCH_<date>.json``, schema ``repro.bench-trajectory/1``), so the
repository accumulates a wall-clock history alongside the simulated
results: every entry carries the git SHA, the full workload+machine
config fingerprint, and per-figure wall time and cells/second.  The
ROADMAP-item-1 engine rewrite is steered — and guarded — by this file:
``repro bench --baseline <file> --max-regress PCT`` re-measures and
exits non-zero when total wall time regressed past the threshold (CI
runs it with a generous 3x bound to absorb runner-speed noise).

Figures are timed simulation-cold: the run-cell memo is cleared before
each figure and the on-disk cache is bypassed, so a measurement is
always the real cost of *simulating* that figure's cells.  Generated
and compiled programs, by contrast, persist across the figures of one
recorded run — they are per-(benchmark, model, config) artefacts shared
between figures by design (the paper likewise compiles each benchmark
once per target), and each program's one-time generation cost lands in
the first figure that needs it.  Cell counts come from the memo delta
(each unique cell is memoised exactly once).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

BENCH_TRAJECTORY_SCHEMA = "repro.bench-trajectory/1"

#: environment variable: sets the default ``--ops`` scale of ``repro
#: bench`` (an explicit ``--ops`` flag still wins).
BENCH_OPS_ENV = "REPRO_BENCH_OPS"

#: figures timed per recorded run, in execution order.
BENCH_FIGURES = ("table2", "fig7", "fig8", "fig9", "fig10")


def git_sha() -> str:
    """HEAD commit of the working tree, or ``"unknown"`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except Exception:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def config_fingerprint(ops_per_thread: int) -> str:
    """SHA-256 identity of the exact configuration being timed."""
    from repro.harness.cachedir import fingerprint_key
    from repro.harness.experiment import default_config
    from repro.sim.config import TABLE_I

    return fingerprint_key({
        "workload": dataclasses.asdict(default_config(ops_per_thread)),
        "machine": dataclasses.asdict(TABLE_I),
    })


def resolve_ops(cli_ops: Optional[int], default_ops: int = 16) -> int:
    """The bench scale: an explicit ``--ops`` (``cli_ops`` not None)
    wins, else the :data:`BENCH_OPS_ENV` environment variable, else
    ``default_ops``.  An environment value that is not an integer >= 1
    is a usage error, like ``--ops 0``: exit 2, naming the variable."""
    if cli_ops is not None:
        return cli_ops
    env = os.environ.get(BENCH_OPS_ENV)
    if not env:
        return default_ops
    try:
        ops = int(env)
    except ValueError:
        ops = 0
    if ops < 1:
        print(f"{BENCH_OPS_ENV} must be an integer >= 1, got {env!r}", file=sys.stderr)
        raise SystemExit(2)
    return ops


def record_run(ops_per_thread: int = 16) -> Dict[str, object]:
    """Time every bench figure cold; returns one trajectory entry."""
    from repro.harness import figure7, figure8, figure9, figure10, table2
    from repro.harness.experiment import clear_cache, clear_memo, memo_size

    builders = {
        "table2": lambda: table2(ops_per_thread=ops_per_thread),
        "fig7": lambda: figure7(ops_per_thread=ops_per_thread),
        "fig8": lambda: figure8(ops_per_thread=ops_per_thread),
        "fig9": lambda: figure9(ops_per_thread=ops_per_thread),
        "fig10": lambda: figure10(ops_per_thread=ops_per_thread),
    }
    figures: Dict[str, Dict[str, object]] = {}
    total_wall = 0.0
    total_cells = 0
    clear_cache()
    for name in BENCH_FIGURES:
        # Simulation is timed cold (the run-cell memo is dropped per
        # figure); generated + compiled programs are kept — they are
        # per-(benchmark, model, config) artefacts the figures share by
        # design, and their one-time cost is inside the first figure
        # that needs each of them.
        clear_memo()
        t0 = time.perf_counter()
        builders[name]()
        wall = time.perf_counter() - t0
        cells = memo_size()
        total_wall += wall
        total_cells += cells
        figures[name] = {
            "wall_s": round(wall, 6),
            "cells": cells,
            "cells_per_s": round(cells / wall, 3) if wall > 0 else 0.0,
        }
    clear_cache()
    return {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "ops_per_thread": ops_per_thread,
        "config_fingerprint": config_fingerprint(ops_per_thread),
        "figures": figures,
        "total_wall_s": round(total_wall, 6),
        "total_cells": total_cells,
        "cells_per_s": round(total_cells / total_wall, 3) if total_wall else 0.0,
    }


def load_trajectory(path: str) -> Dict[str, object]:
    """Load a trajectory file; a missing file is an empty trajectory."""
    if not os.path.exists(path):
        return {"schema": BENCH_TRAJECTORY_SCHEMA, "runs": []}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_TRAJECTORY_SCHEMA!r}, "
            f"got {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
    if not isinstance(doc.get("runs"), list):
        raise ValueError(f"{path}: trajectory 'runs' must be a list")
    return doc


def append_run(path: str, entry: Dict[str, object]) -> Dict[str, object]:
    """Append ``entry`` to the trajectory at ``path`` (created if new)."""
    from repro.obs.export import dump_json

    doc = load_trajectory(path)
    doc["runs"].append(entry)  # type: ignore[union-attr]
    dump_json(path, doc)
    return doc


def _baseline_entry(
    doc: Dict[str, object], entry: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Most recent comparable baseline run: same ops scale, preferring
    an identical config fingerprint."""
    runs: List[Dict[str, object]] = [
        run for run in doc.get("runs", [])  # type: ignore[union-attr]
        if run.get("ops_per_thread") == entry["ops_per_thread"]
    ]
    same_cfg = [
        run for run in runs
        if run.get("config_fingerprint") == entry["config_fingerprint"]
    ]
    pool = same_cfg or runs
    return pool[-1] if pool else None


def check_regression(
    baseline_path: str,
    entry: Dict[str, object],
    max_regress_pct: float,
) -> Tuple[bool, str]:
    """Gate ``entry`` against the committed trajectory.

    Returns ``(ok, report)``: the gate fails when total wall time grew
    more than ``max_regress_pct`` percent over the most recent
    comparable baseline run.  Per-figure deltas are reported but do not
    gate individually (they are noisier than the total).
    """
    doc = load_trajectory(baseline_path)
    base = _baseline_entry(doc, entry)
    if base is None:
        return False, (
            f"{baseline_path}: no baseline run at "
            f"ops_per_thread={entry['ops_per_thread']} to compare against"
        )
    base_total = float(base["total_wall_s"])
    cur_total = float(entry["total_wall_s"])
    limit = base_total * (1.0 + max_regress_pct / 100.0)
    delta_pct = 100.0 * (cur_total - base_total) / base_total if base_total else 0.0
    lines = [
        f"baseline {str(base.get('git_sha', 'unknown'))[:12]} ({base.get('ts')}): "
        f"total {base_total:.3f}s -> current {cur_total:.3f}s "
        f"({delta_pct:+.1f}%, limit +{max_regress_pct:g}%)"
    ]
    base_figs: Dict[str, Dict[str, object]] = base.get("figures", {})  # type: ignore[assignment]
    cur_figs: Dict[str, Dict[str, object]] = entry["figures"]  # type: ignore[assignment]
    for name in BENCH_FIGURES:
        if name not in base_figs or name not in cur_figs:
            continue
        b = float(base_figs[name]["wall_s"])
        c = float(cur_figs[name]["wall_s"])
        rel = f"{100.0 * (c - b) / b:+.1f}%" if b > 0 else "n/a"
        lines.append(f"  {name:8s} {b:8.3f}s -> {c:8.3f}s  {rel}")
    ok = cur_total <= limit
    lines.append("bench gate OK" if ok else
                 f"bench gate FAILED: {cur_total:.3f}s > {limit:.3f}s")
    return ok, "\n".join(lines)
