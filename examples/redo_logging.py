#!/usr/bin/env python
"""Redo logging with group commit — the paper's future-work sketch (VII).

Runs the same single-threaded queue workload under undo logging and under
redo logging with increasing group-commit batches, compares cycles on
StrandWeaver, and crash-tests the redo protocol (including the
retired-sequence watermark that keeps partial invalidations safe).
"""

import random

from repro.core.crash import materialise, random_cut
from repro.core.model import PersistDag
from repro.harness.report import render_table
from repro.lang.dialect import StrandDialect
from repro.lang.recovery import recover
from repro.lang.redo import RedoTxnModel
from repro.lang.runtime import DirectAccessor
from repro.lang.txn import TxnModel
from repro.sim.machine import run_design
from repro.workloads import WORKLOADS, WorkloadConfig, generate

CFG = WorkloadConfig(n_threads=1, ops_per_thread=48, log_entries=4096,
                     pm_size=1 << 22)


def main() -> None:
    rows = []
    runs = {}
    for label, model in [
        ("undo", TxnModel()),
        ("redo gc=1", RedoTxnModel(group_commit=1)),
        ("redo gc=4", RedoTxnModel(group_commit=4)),
        ("redo gc=8", RedoTxnModel(group_commit=8)),
    ]:
        run = generate(WORKLOADS["queue"], CFG, StrandDialect(), model)
        stats = run_design("strandweaver", run.program)
        runs[label] = run
        rows.append([label, int(stats.cycles), stats.clwbs,
                     int(stats.persist_stalls)])
    base = rows[0][1]
    for row in rows:
        row.append(base / row[1])
    print(render_table(
        "Queue (1 thread) on StrandWeaver: undo vs redo logging",
        ["model", "cycles", "CLWBs", "persist stalls", "vs undo"],
        rows,
    ))

    print("\nCrash-testing redo with group commit (25 random crash states)...")
    run = runs["redo gc=4"]
    dag = PersistDag(run.program)
    rng = random.Random(7)
    replayed = 0
    # Random cuts, plus targeted "crash right after a group's marker
    # persisted" cuts — the case recovery must repair by replaying.
    markers = [i for i, op in enumerate(dag.ops) if op.label == "commit-marker"]
    cuts = [random_cut(dag, rng, 0.5) for _ in range(25)]
    cuts += [dag.downward_close({m}) for m in markers]
    for cut in cuts:
        image = materialise(dag, cut, run.space)
        report = recover(image, run.layout)
        replayed += report.n_replayed
        run.workload.check(DirectAccessor(image))
    print(f"all {len(cuts)} consistent; {replayed} redo entries replayed")
    print("\nTransactions crash-vanish atomically until their group commit —")
    print("the group commit (JoinStrand + marker + watermark) is the")
    print("durability point, exactly as the paper's sketch prescribes.")


if __name__ == "__main__":
    main()
