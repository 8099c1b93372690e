"""Machine-readable JSON export of simulation statistics.

Two documents are produced:

* :func:`stats_to_json` — one machine run, schema ``repro.stats/1``:
  the :meth:`~repro.sim.stats.MachineStats.summary` dict, the full
  per-core counter breakdown, and any metrics collected by a tracer.
* :func:`bench_summary` — schema ``repro.bench/1``: the cycles/stall
  summary of every (benchmark, design) cell at a fixed scale.  Written
  as ``BENCH_trace.json`` it is a stable, diffable record the harness
  can compare across PRs to catch timing regressions.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

from repro.sim.stats import CoreStats, MachineStats

STATS_SCHEMA = "repro.stats/1"
BENCH_SCHEMA = "repro.bench/1"
SWEEP_SCHEMA = "repro.sweep/1"

#: CoreStats fields exported per core, in declaration order.
_CORE_FIELDS = tuple(f.name for f in dataclasses.fields(CoreStats) if f.name != "metrics")


def dump_json(path: str, doc: Dict[str, object]) -> None:
    """Write ``doc`` as indented, sorted JSON, rejecting NaN/Infinity.

    ``allow_nan=False`` makes every exporter fail loudly instead of
    emitting the non-standard ``Infinity``/``NaN`` literals that most
    JSON parsers refuse.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def core_to_json(core: CoreStats) -> Dict[str, int]:
    out = {name: getattr(core, name) for name in _CORE_FIELDS}
    out["persist_stalls"] = core.persist_stalls
    return out


def core_from_json(doc: Dict[str, int]) -> CoreStats:
    """Inverse of :func:`core_to_json` (derived fields are recomputed)."""
    return CoreStats(**{name: int(doc[name]) for name in _CORE_FIELDS if name in doc})


def machine_stats_to_doc(stats: MachineStats) -> Dict[str, object]:
    """Minimal lossless record of a run (the on-disk cache payload)."""
    return {
        "design": stats.design,
        "per_core": [core_to_json(core) for core in stats.per_core],
    }


def machine_stats_from_doc(doc: Dict[str, object]) -> MachineStats:
    """Rebuild a :class:`MachineStats` from :func:`machine_stats_to_doc`.

    Tracer metrics and crash state are intentionally not round-tripped:
    cached cells behave exactly like fresh untraced runs.
    """
    per_core = doc["per_core"]
    if not isinstance(per_core, list):
        raise ValueError("malformed stats document: per_core must be a list")
    return MachineStats(
        design=str(doc["design"]),
        per_core=[core_from_json(core) for core in per_core],
    )


def stats_to_json(stats: MachineStats) -> Dict[str, object]:
    """Full machine-run export: summary, per-core counters, metrics."""
    doc: Dict[str, object] = {
        "schema": STATS_SCHEMA,
        "summary": stats.summary(),
        "per_core": [core_to_json(core) for core in stats.per_core],
    }
    if stats.metrics is not None:
        doc["metrics"] = stats.metrics.to_json()
    return doc


def write_stats_json(path: str, stats: MachineStats) -> Dict[str, object]:
    doc = stats_to_json(stats)
    dump_json(path, doc)
    return doc


def sweep_to_json(sweep, deterministic: bool = False) -> Dict[str, object]:
    """Schema ``repro.sweep/1``: per-cell stats, wall time, cache counters.

    ``sweep`` is a :class:`repro.harness.sweep.SweepResult` (duck-typed
    here to keep this module free of harness imports).  With
    ``deterministic=True`` the wall-clock and cache-provenance fields are
    omitted, leaving a document that is byte-identical across ``-j``
    levels and cold/warm caches — the form CI diffs.
    """
    cells: List[Dict[str, object]] = []
    for res in sweep.cells:
        cell: Dict[str, object] = {
            "benchmark": res.cell.benchmark,
            "design": res.cell.design,
            "model": res.cell.model,
            "ops_per_thread": res.cell.ops_per_thread,
            "ops_per_region": res.cell.ops_per_region,
            "key": res.cell.key(),
            "ok": res.ok,
            "error": res.error,
            "failure": None if res.failure is None else res.failure.to_json(),
            "summary": res.stats.summary() if res.stats is not None else None,
        }
        if not deterministic:
            cell["source"] = res.source
            cell["wall_time_s"] = round(res.wall_time, 6)
        cells.append(cell)
    doc: Dict[str, object] = {
        "schema": SWEEP_SCHEMA,
        "n_cells": len(cells),
        "errors": sweep.errors,
        "cells": cells,
    }
    if not deterministic:
        doc.update(
            jobs=sweep.jobs,
            wall_time_s=round(sweep.wall_time, 6),
            cache_hits=sweep.cache_hits,
            cache_misses=sweep.cache_misses,
            memo_hits=sweep.memo_hits,
        )
    return doc


def write_sweep_json(path: str, sweep, deterministic: bool = False) -> Dict[str, object]:
    doc = sweep_to_json(sweep, deterministic=deterministic)
    dump_json(path, doc)
    return doc


def load_sweep_json(path: str) -> Dict[str, object]:
    """Load and normalise a ``repro.sweep/1`` document.

    Deterministic exports omit the wall-clock and provenance fields
    (see :func:`sweep_to_json`), which used to make them a different
    shape from live exports — consumers indexing ``cell["wall_time_s"]``
    crashed on a ``--deterministic`` artefact.  The normaliser restores
    every omitted field with its neutral value (``source="unknown"``,
    zero wall time, ``jobs=1``, zeroed cache counters) so both forms
    round-trip through the same tooling.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != SWEEP_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SWEEP_SCHEMA!r}, got "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
    cells = doc.get("cells")
    if not isinstance(cells, list):
        raise ValueError(f"{path}: sweep 'cells' must be a list")
    for cell in cells:
        cell.setdefault("source", "unknown")
        cell.setdefault("wall_time_s", 0.0)
    doc.setdefault("jobs", 1)
    doc.setdefault("wall_time_s", 0.0)
    doc.setdefault("cache_hits", 0)
    doc.setdefault("cache_misses", 0)
    doc.setdefault("memo_hits", 0)
    return doc


def bench_summary(
    ops_per_thread: int = 8,
    model: str = "txn",
    benchmarks: Optional[Sequence[str]] = None,
    designs: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run every (benchmark, design) cell and return a diffable summary.

    The simulator is deterministic, so at a fixed ``ops_per_thread`` the
    resulting document is byte-stable across runs — any diff between PRs
    is a real timing-model change.
    """
    # Imported lazily: the harness imports the simulator, which imports
    # repro.obs — a module-level import here would be circular.
    from repro.harness.experiment import ALL_DESIGNS, run_cell
    from repro.harness.figures import BENCH_ORDER

    benchmarks = tuple(benchmarks or BENCH_ORDER)
    designs = tuple(designs or ALL_DESIGNS)
    cells: List[Dict[str, object]] = []
    for bench in benchmarks:
        for design in designs:
            stats = run_cell(bench, design, model, ops_per_thread=ops_per_thread)
            cell: Dict[str, object] = {"benchmark": bench, "model": model}
            cell.update(stats.summary())
            cells.append(cell)
    return {
        "schema": BENCH_SCHEMA,
        "model": model,
        "ops_per_thread": ops_per_thread,
        "benchmarks": list(benchmarks),
        "designs": list(designs),
        "cells": cells,
    }


def write_bench_summary(path: str, **kwargs) -> Dict[str, object]:
    doc = bench_summary(**kwargs)
    dump_json(path, doc)
    return doc
