"""Materialise a machine-state crash into a PM image.

The machine's :class:`~repro.sim.durability.CrashState` says which stores
the hardware made durable by the crash cycle.  This module turns that
frontier — plus the plan's injected faults — into the set of stores
applied over the durable baseline:

* **CLWB-sourced** durable stores are applied unconditionally: the
  design's persist hardware carried them to the ADR domain, and whether
  that respected the persist DAG is exactly what the harness is testing
  (NON-ATOMIC is allowed to produce inconsistent frontiers here).
* **Drop faults** re-time seeded durable stores to *after* the crash,
  together with every persist-DAG successor.  Nothing short of an
  ordering primitive bounds how long hardware may sit on a CLWB, so a
  persist the simulator's in-order pipeline happened to accept by the
  crash may, on real silicon, still be in a fill buffer.  Removing an
  up-closed set from a consistent cut leaves a consistent cut, so for
  correct designs this is just an earlier durable frontier (their fences
  turn the dropped store's delay into delays of everything after it);
  NON-ATOMIC's near-edgeless DAG drops a log entry while keeping its
  in-place update — the exact state its missing ordering admits.
* **Write-back-sourced** durability — natural dirty evictions observed
  during the run, and the plan's injected delayed write-backs of
  in-flight stores — is admitted only when the store's persist-DAG
  predecessors are already in the image (a guarded fixpoint).  The
  tag-only cache model lacks the eviction interlocks the real designs
  have (StrandWeaver's snoop-buffer drain, x86's ordering of write-backs
  behind fences), so an unguarded eviction would break even correct
  designs; NON-ATOMIC's near-edgeless DAG means the guard admits its
  evictions freely — which is precisely its recovery bug.
* **Torn writes** (opt-in) truncate the latest-accepted durable store to
  an 8-byte-aligned prefix, modelling an ADR failure mid-line.  This
  violates strong persist atomicity by construction, so correct designs
  are *expected* to fail under it — it exists to prove the workload
  checkers can see sub-store corruption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import compress
from typing import List, Set, Tuple

from repro.chaos.plan import FaultPlan
from repro.core.model import PersistDag
from repro.core.ops import Op
from repro.pmem.space import PersistentMemory
from repro.sim.durability import SOURCE_WRITEBACK, CrashState
from repro.workloads.base import GeneratedRun

#: seed perturbations decoupling the three fault RNG streams.
_TORN_SALT = 0x70528EED
_DROP_SALT = 0xD20958A1


@dataclass
class ImageInfo:
    """The write-back accounting crash reports carry."""

    n_injected: int = 0  #: injected delayed write-backs admitted
    n_guard_blocked: int = 0  #: write-back candidates the guard rejected


def _satisfaction(dag: PersistDag, included: Set[int]) -> bytearray:
    """Per-node satisfaction: store nodes must be in ``included``; virtual
    drain/acquire nodes carry no data and are satisfied when all their
    predecessors are.  One ascending pass over the virtual nodes suffices
    because predecessor indices are always smaller."""
    sat = bytearray(len(dag))
    for idx in included:
        sat[idx] = 1
    pred, start, is_sat = dag.pred, dag.pred_start, sat.__getitem__
    for idx in compress(range(len(dag)), dag.kinds):  # the non-store nodes
        sat[idx] = all(map(is_sat, pred[start[idx] : start[idx + 1]]))
    return sat


def durable_cut(
    crash: CrashState, plan: FaultPlan, dag: PersistDag
) -> Tuple[List[Op], ImageInfo]:
    """Compute the stores a crash under ``plan`` exposes, plus accounting."""
    info = ImageInfo()
    node_of = dag.node_of_gseq

    included: Set[int] = set()
    candidates: List[Tuple[int, str]] = []  # (node idx, "writeback"|"injected")
    for rec in crash.durable:
        idx = node_of.get(rec.op.gseq)
        if idx is None:
            continue
        if rec.source == SOURCE_WRITEBACK:
            candidates.append((idx, "writeback"))
        else:
            included.add(idx)

    if plan.drop_faults and included:
        _apply_drops(dag, included, plan)

    if plan.writeback_faults:
        rng = random.Random(plan.seed)
        for rec in crash.in_flight:
            idx = node_of.get(rec.op.gseq)
            if idx is not None and rng.random() < plan.writeback_prob:
                candidates.append((idx, "injected"))

    # Guarded fixpoint: admit a write-back candidate only once all its
    # persist-DAG predecessors are in the image.  Iterate until no
    # candidate makes progress — admitting one can unblock another.
    pending = candidates
    progress = True
    while progress and pending:
        progress = False
        sat = _satisfaction(dag, included)
        still: List[Tuple[int, str]] = []
        for idx, source in pending:
            if idx in included:
                continue
            if all(map(sat.__getitem__, dag.preds(idx))):
                included.add(idx)
                if source == "injected":
                    info.n_injected += 1
                progress = True
            else:
                still.append((idx, source))
        pending = still
    info.n_guard_blocked = len(pending)

    ops = [dag.ops[i] for i in sorted(included)]
    if plan.torn:
        ops = _apply_torn(ops, crash, plan)
    return ops, info


def _apply_drops(dag: PersistDag, included: Set[int], plan: FaultPlan) -> None:
    """Re-time seeded durable stores (and their DAG successors) past the
    crash, mutating ``included`` in place."""
    rng = random.Random(plan.seed ^ _DROP_SALT)
    seeds = [idx for idx in sorted(included) if rng.random() < plan.drop_prob]
    included -= dag.upward_close(seeds)


def _apply_torn(ops: List[Op], crash: CrashState, plan: FaultPlan) -> List[Op]:
    """Tear the latest-accepted durable multi-word store to a prefix."""
    applied_gseqs = {op.gseq for op in ops}
    victims = [
        rec
        for rec in crash.durable
        if rec.op.gseq in applied_gseqs and rec.op.size > 8
    ]
    if not victims:
        return ops
    victim = max(victims, key=lambda rec: (rec.durable, rec.op.gseq))
    rng = random.Random(plan.seed ^ _TORN_SALT)
    keep = 8 * rng.randrange(victim.op.size // 8)  # 0 .. size-8, aligned
    out: List[Op] = []
    for op in ops:
        if op.gseq != victim.op.gseq:
            out.append(op)
        elif keep > 0:
            out.append(replace(op, size=keep, data=op.data[:keep]))
    return out


def build_crash_image(
    run: GeneratedRun, crash: CrashState, plan: FaultPlan, dag: PersistDag
) -> Tuple[PersistentMemory, ImageInfo]:
    """Materialise the PM image a crash under ``plan`` exposes."""
    ops, info = durable_cut(crash, plan, dag)
    return run.space.crash_image(ops), info
