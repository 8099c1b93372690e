"""Experiment driver: (benchmark x design x language model) -> stats.

Each hardware design replays a trace generated with its own ISA dialect —
the same functional work, instrumented with the design's ordering
primitives, exactly as the paper compiles each benchmark once per target.
Results are memoised per process because several figures share runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.lang.dialect import dialect_for_design
from repro.sim.config import MachineConfig, TABLE_I
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats
from repro.workloads import WORKLOADS, WorkloadConfig
from repro.workloads.base import GeneratedRun, generate_canonical, specialize_run

#: design order used in every figure (Figure 7's legend order).
ALL_DESIGNS = ("intel-x86", "hops", "no-persist-queue", "strandweaver", "non-atomic")

#: language-level persistency models evaluated (Section VI-A).
ALL_MODELS = ("txn", "atlas", "sfr")


@dataclass(frozen=True)
class RunKey:
    """Complete identity of one simulation cell.

    Embeds the *full* :class:`MachineConfig` (a frozen, hashable
    dataclass tree).  A previous revision fingerprinted only the two
    strand-buffer fields, so two configs differing in PM timing or core
    parameters silently shared a memoised result.
    """

    benchmark: str
    design: str
    model: str
    ops_per_thread: int
    ops_per_region: int
    machine_cfg: MachineConfig


_CACHE: Dict[RunKey, MachineStats] = {}

#: canonical marker runs, keyed by :func:`program_key` — one functional
#: execution serves every design (repro.lang.specialize).
_CANONICAL: Dict[tuple, GeneratedRun] = {}

#: specialized runs, keyed by (program key, dialect name).  Designs that
#: share a dialect (strandweaver and no-persist-queue both replay strand
#: traces) share one program object *and* its per-trace compiled arrays;
#: machine configuration never affects generation, so Figure 9's six
#: strand-buffer variants also all hit this cache.
_PROGRAMS: Dict[tuple, GeneratedRun] = {}


def program_key(benchmark: str, model: str, wl_cfg: WorkloadConfig) -> tuple:
    """Identity of the canonical program a cell replays: every design
    and machine config of one (benchmark, model, workload config) shares
    it.  The sweep groups pool work by this key."""
    return (benchmark, model, wl_cfg)


def generation_for_cell(
    benchmark: str, design: str, model: str, wl_cfg: WorkloadConfig
) -> GeneratedRun:
    """Generate (or reuse) the run a cell replays.

    Two-level cache: the functional workload executes once per
    (benchmark, model, config) under the marker dialect, then each
    concrete dialect's program is specialized from it once.
    """
    ckey = program_key(benchmark, model, wl_cfg)
    pkey = (ckey, dialect_for_design(design).name)
    run = _PROGRAMS.get(pkey)
    if run is None:
        canonical = _CANONICAL.get(ckey)
        if canonical is None:
            canonical = generate_canonical(WORKLOADS[benchmark], wl_cfg, model)
            _CANONICAL[ckey] = canonical
        run = specialize_run(canonical, design)
        _PROGRAMS[pkey] = run
    return run


def release_programs(keep: tuple) -> None:
    """Drop every canonical program and specialization (with the replay
    streams cached on them) whose :func:`program_key` is not ``keep``.

    A sweep's pool worker calls this before each chunk of cells, so it
    holds one program at a time.  Serial runs never call it: they keep
    every program for reuse across figures.
    """
    for key in [key for key in _CANONICAL if key != keep]:
        del _CANONICAL[key]
    for key in [key for key in _PROGRAMS if key[0] != keep]:
        del _PROGRAMS[key]


def memo_lookup(key: RunKey) -> Optional[MachineStats]:
    """In-process memo probe (shared with :mod:`repro.harness.sweep`)."""
    return _CACHE.get(key)


def memo_store(key: RunKey, stats: MachineStats) -> None:
    _CACHE[key] = stats


def default_config(ops_per_thread: int = 48, ops_per_region: int = 1) -> WorkloadConfig:
    """The workload scale used by the reproduction figures.

    The paper runs 50K ops per benchmark in gem5; we default to a smaller
    scale that finishes in seconds per cell while staying in steady state
    (speedups are stable beyond ~30 ops/thread).

    The persistent heap scales with the run length (TPC-C's tables grow
    with the op count) but never shrinks below the historical 8 MiB
    floor, so every configuration that fit before is byte-identical.
    Allocation is bump-pointer from a fixed base, so a larger heap
    changes no addresses — only how far the workloads may grow.  Nor
    does it cost memory: the PM image holds only the pages a run
    writes (:mod:`repro.pmem.space`), whatever ``pm_size`` is.
    """
    pm_size = 1 << 23
    need = 8192 * 8 * ops_per_thread  # generous per-op footprint
    while pm_size < need:
        pm_size <<= 1
    return WorkloadConfig(
        n_threads=8,
        ops_per_thread=ops_per_thread,
        ops_per_region=ops_per_region,
        log_entries=4096,
        pm_size=pm_size,
    )


def run_cell(
    benchmark: str,
    design: str,
    model: str = "txn",
    ops_per_thread: int = 48,
    ops_per_region: int = 1,
    machine_cfg: Optional[MachineConfig] = None,
) -> MachineStats:
    """Run one (benchmark, design, model) cell and return its stats."""
    if benchmark not in WORKLOADS:
        raise ValueError(f"unknown benchmark {benchmark!r}; choose from {sorted(WORKLOADS)}")
    cfg = machine_cfg or TABLE_I
    key = RunKey(benchmark, design, model, ops_per_thread, ops_per_region, cfg)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    wl_cfg = default_config(ops_per_thread, ops_per_region)
    run = generation_for_cell(benchmark, design, model, wl_cfg)
    stats = Machine(design, cfg).run(run.program)
    _CACHE[key] = stats
    return stats


def speedup(
    benchmark: str,
    design: str,
    model: str = "txn",
    baseline: str = "intel-x86",
    **kwargs,
) -> float:
    """Speedup of ``design`` over ``baseline`` on one benchmark."""
    base = run_cell(benchmark, baseline, model, **kwargs)
    this = run_cell(benchmark, design, model, **kwargs)
    return this.speedup_over(base)


def memo_size() -> int:
    """Number of distinct cells memoised so far (perf accounting: the
    bench recorder counts a figure's cells as its memo-entry delta)."""
    return len(_CACHE)


def clear_memo() -> None:
    """Forget memoised *stats* but keep generated programs.

    The bench recorder uses this between figures: each figure's
    simulation cost is measured cold, while trace generation — one
    functional execution per (benchmark, model, config), specialized and
    compiled once per dialect — is the shared, reusable artefact the
    compiled-engine design intends (figures legitimately replay the same
    programs; the paper, likewise, compiles each benchmark once).
    """
    _CACHE.clear()


def clear_cache() -> None:
    _CACHE.clear()
    _CANONICAL.clear()
    _PROGRAMS.clear()
