"""Benchmarks of Table II and their shared harness."""

from typing import Dict, Type

from repro.workloads.arrayswap import ArraySwapWorkload
from repro.workloads.base import (
    MODELS,
    CheckFailure,
    GeneratedRun,
    Workload,
    WorkloadConfig,
    generate,
    generate_for_design,
    make_model,
)
from repro.workloads.hashmap import HashmapWorkload
from repro.workloads.nstore import (
    NStoreBalanced,
    NStoreReadHeavy,
    NStoreWorkload,
    NStoreWriteHeavy,
)
from repro.workloads.queue import QueueWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.workloads.tpcc import TpccWorkload

#: Table II benchmark registry, in the paper's row order.
WORKLOADS: Dict[str, Type[Workload]] = {
    "queue": QueueWorkload,
    "hashmap": HashmapWorkload,
    "arrayswap": ArraySwapWorkload,
    "rbtree": RBTreeWorkload,
    "tpcc": TpccWorkload,
    "nstore-rd": NStoreReadHeavy,
    "nstore-bal": NStoreBalanced,
    "nstore-wr": NStoreWriteHeavy,
}

#: The five microbenchmarks (Figure 10 sweeps these).
MICROBENCHMARKS = ("queue", "hashmap", "arrayswap", "rbtree", "tpcc")

__all__ = [
    "ArraySwapWorkload",
    "CheckFailure",
    "GeneratedRun",
    "HashmapWorkload",
    "MICROBENCHMARKS",
    "MODELS",
    "NStoreBalanced",
    "NStoreReadHeavy",
    "NStoreWorkload",
    "NStoreWriteHeavy",
    "QueueWorkload",
    "RBTreeWorkload",
    "TpccWorkload",
    "WORKLOADS",
    "Workload",
    "WorkloadConfig",
    "generate",
    "generate_for_design",
    "make_model",
]
