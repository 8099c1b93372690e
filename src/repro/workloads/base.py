"""Workload harness: turns a benchmark into traced multi-threaded runs.

A :class:`Workload` owns a persistent data structure and a deterministic
per-thread operation plan.  :func:`generate` executes the plan under a
cooperative round-robin scheduler, producing

* the final functional PM image (data structures really live in PM),
* the per-thread micro-op traces consumed by the timing simulator, and
* the log layout needed by recovery.

One generated run is replayed on *every* hardware design whose dialect
produced it, so Figure 7 comparisons replay semantically identical work.
"""

from __future__ import annotations

import random
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Type

from repro.core.ops import Program
from repro.lang.dialect import IsaDialect, dialect_for_design
from repro.lang.logbuf import LogLayout
from repro.lang.runtime import DirectAccessor, PersistencyModel, PmRuntime
from repro.lang.atlas import AtlasModel
from repro.lang.redo import RedoTxnModel
from repro.lang.sfr import SfrModel
from repro.lang.txn import TxnModel
from repro.pmem.alloc import PmAllocator
from repro.pmem.space import PersistentMemory


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs shared by every benchmark."""

    n_threads: int = 8
    ops_per_thread: int = 64
    seed: int = 42
    pm_size: int = 1 << 22
    log_entries: int = 8192  #: per-thread undo-log capacity
    ops_per_region: int = 1  #: data-structure ops per failure-atomic region (Fig. 10)


class CheckFailure(AssertionError):
    """A data-structure invariant does not hold."""


class Workload(ABC):
    """One benchmark of Table II."""

    #: registry key and Table II row name.
    name = "abstract"
    #: per-op application compute (cycles), calibrated per benchmark so
    #: that relative CKC matches Table II's write-intensity ordering.
    compute_per_op = 200

    def __init__(self, cfg: WorkloadConfig) -> None:
        self.cfg = cfg
        self.rng = random.Random(cfg.seed ^ zlib.crc32(self.name.encode()))

    # -- to implement -------------------------------------------------------

    @abstractmethod
    def setup(self, acc: DirectAccessor, alloc: PmAllocator) -> None:
        """Build the initial persistent state (untraced, pre-baseline)."""

    @abstractmethod
    def locks_for(self, tid: int, op_indices: Sequence[int]) -> List[int]:
        """Locks (in acquisition order) covering the given plan ops."""

    @abstractmethod
    def body(self, rt: PmRuntime, tid: int, op_index: int) -> None:
        """Execute one planned data-structure operation, traced."""

    @abstractmethod
    def check(self, acc: DirectAccessor) -> None:
        """Raise :class:`CheckFailure` unless all invariants hold."""


@dataclass
class GeneratedRun:
    """Everything produced by one workload execution."""

    workload: Workload
    config: WorkloadConfig
    dialect: IsaDialect
    model: PersistencyModel
    space: PersistentMemory
    layout: LogLayout
    runtime: PmRuntime
    program: Program

    def check_image(self, image: PersistentMemory) -> None:
        """Run the workload's invariants against ``image`` (normally a
        recovered crash image); raises :class:`CheckFailure` on violation."""
        self.workload.check(DirectAccessor(image))


#: language-level persistency models by name.
MODELS: Dict[str, Type[PersistencyModel]] = {
    "txn": TxnModel,
    "atlas": AtlasModel,
    "sfr": SfrModel,
    "redo-txn": RedoTxnModel,
}


def make_model(name: str, **kwargs) -> PersistencyModel:
    """Instantiate a language-level persistency model by name."""
    if name not in MODELS:
        raise ValueError(f"unknown persistency model {name!r}")
    return MODELS[name](**kwargs)


def generate(
    workload_cls: Type[Workload],
    cfg: WorkloadConfig,
    dialect: IsaDialect,
    model: PersistencyModel,
) -> GeneratedRun:
    """Run the workload functionally, emitting a sealed program for one dialect."""
    space = PersistentMemory(cfg.pm_size)
    layout = LogLayout(base=64, capacity=cfg.log_entries, n_threads=cfg.n_threads)
    heap_base = (layout.end + 63) & ~63
    alloc = PmAllocator(space, heap_base, cfg.pm_size - heap_base)

    workload = workload_cls(cfg)
    rt = PmRuntime(space, layout, dialect, model, cfg.n_threads)
    workload.setup(DirectAccessor(space), alloc)
    space.mark_clean()

    regions_per_thread = max(1, cfg.ops_per_thread // cfg.ops_per_region)
    for round_idx in range(regions_per_thread):
        for tid in range(cfg.n_threads):
            base_op = round_idx * cfg.ops_per_region
            op_indices = [
                base_op + j
                for j in range(cfg.ops_per_region)
                if base_op + j < cfg.ops_per_thread
            ]
            if not op_indices:
                continue
            locks = workload.locks_for(tid, op_indices)
            for lock_id in locks:
                rt.lock(tid, lock_id)
            rt.txn_begin(tid)
            for op_index in op_indices:
                workload.body(rt, tid, op_index)
                rt.compute(tid, workload.compute_per_op)
            rt.txn_end(tid)
            for lock_id in reversed(locks):
                rt.unlock(tid, lock_id)
    for tid in range(cfg.n_threads):
        rt.finish(tid)
    rt.program.seal()

    workload.check(DirectAccessor(space))
    return GeneratedRun(
        workload=workload,
        config=cfg,
        dialect=dialect,
        model=model,
        space=space,
        layout=layout,
        runtime=rt,
        program=rt.program,
    )


def generate_for_design(
    workload_cls: Type[Workload],
    cfg: WorkloadConfig,
    design: str,
    model_name: str = "txn",
    **model_kwargs,
) -> GeneratedRun:
    """Convenience wrapper: pick the dialect matching a hardware design."""
    dialect = dialect_for_design(design)
    model = make_model(model_name, **model_kwargs)
    return generate(workload_cls, cfg, dialect, model)


def generate_canonical(
    workload_cls: Type[Workload],
    cfg: WorkloadConfig,
    model_name: str = "txn",
    **model_kwargs,
) -> GeneratedRun:
    """Run the workload once under the marker dialect.

    The result is dialect-neutral: its program carries tagged placeholder
    fences at every ordering point and can be rewritten for any concrete
    dialect with :func:`specialize_run` — the functional image, lock
    order, and every addressed op are identical for all dialects, so the
    (expensive) functional execution happens once instead of once per
    design.  See :mod:`repro.lang.specialize`.
    """
    from repro.lang.specialize import MarkerDialect

    model = make_model(model_name, **model_kwargs)
    return generate(workload_cls, cfg, MarkerDialect(), model)


def specialize_run(canonical: GeneratedRun, design: str) -> GeneratedRun:
    """Derive the run a direct ``generate_for_design`` call would produce.

    The specialized program is op-for-op identical to direct generation
    (pinned by ``tests/sim/test_fastcore_identity.py``); the functional
    artefacts (workload, space, layout, runtime) are *shared* with the
    canonical run — they are read-only after generation and identical
    across dialects.
    """
    from repro.lang.specialize import specialize

    dialect = dialect_for_design(design)
    return GeneratedRun(
        workload=canonical.workload,
        config=canonical.config,
        dialect=dialect,
        model=canonical.model,
        space=canonical.space,
        layout=canonical.layout,
        runtime=canonical.runtime,
        program=specialize(canonical.program, dialect.name),
    )
