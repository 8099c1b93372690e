"""Crash-state generation from the persist DAG.

A crash may expose any PM image formed by a **consistent cut** of the
persist DAG: a down-closed set of persists applied over the durable
baseline.  This module provides

* exhaustive enumeration of cuts for small litmus programs (used to check
  the allowed/forbidden outcomes of Figure 2),
* randomized cut sampling for property-based crash-recovery testing of
  the language-level runtimes, and
* helpers that materialise a cut into a :class:`PersistentMemory` image.

Unflushed stores *may* appear in a cut (a cache write-back can persist
them at any time) and flushed-but-unordered stores may be missing — both
exactly as the hardware model allows.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List, Set, Tuple

from repro.core.model import STORE, PersistDag
from repro.pmem.space import PersistentMemory


def enumerate_cuts(dag: PersistDag, limit: int = 200_000) -> Iterator[Set[int]]:
    """Yield every consistent cut of ``dag`` (small programs only).

    Cuts are enumerated by processing nodes in visibility order and
    branching on include/exclude, exclude first; a node can be included
    only when all of its predecessors are.  The depth-first search keeps
    its decisions on an explicit stack, so a DAG of any depth enumerates
    without recursion.  Raises ``ValueError`` if more than ``limit``
    cuts would be produced, to catch accidental use on big programs.
    """
    n = len(dag)
    produced = 0
    included: Set[int] = set()
    decisions: List[Tuple[int, bool]] = []  # (node, included?) per level
    idx = 0
    while True:
        if idx < n:
            # Exclude idx first; its include branch waits on the stack.
            decisions.append((idx, False))
            idx += 1
            continue
        produced += 1
        if produced > limit:
            raise ValueError(f"more than {limit} cuts; program too large to enumerate")
        yield set(included)
        # Backtrack to the deepest excluded node that may be included.
        while decisions:
            node, was_included = decisions.pop()
            if was_included:
                included.remove(node)
            elif included.issuperset(dag.preds(node)):
                included.add(node)
                decisions.append((node, True))
                idx = node + 1
                break
        else:
            return


def random_cut(dag: PersistDag, rng: random.Random, density: float = 0.5) -> Set[int]:
    """Sample a consistent cut by downward-closing a random seed set."""
    seed = [i for i in range(len(dag)) if rng.random() < density]
    return dag.downward_close(seed)


def prefix_cut(dag: PersistDag, k: int) -> Set[int]:
    """The cut consisting of the first ``k`` persists in visibility order.

    Every visibility-order prefix is consistent because all PMO edges
    point from earlier to later ``gseq``.
    """
    return set(range(min(k, len(dag))))


def frontier_cut(dag: PersistDag, rng: random.Random, drop: float = 0.3) -> Set[int]:
    """Sample a cut biased towards "almost everything persisted".

    Every node draws once, in reverse visibility order, and is dropped
    with probability ``drop``; a dropped node forces all its successors
    out.  Successors sit above their source, so no node is forced out
    before its draw, and one ascending pass then settles the cut.  This
    produces the adversarial near-crash-at-the-end states where recovery
    bugs hide.
    """
    n = len(dag)
    dropped = [idx for idx in range(n - 1, -1, -1) if rng.random() < drop]
    return set(range(n)) - dag.upward_close(dropped)


def materialise(
    dag: PersistDag, cut: Iterable[int], space: PersistentMemory
) -> PersistentMemory:
    """Apply a cut's persists over ``space``'s durable baseline.

    Virtual drain/acquire nodes in the cut carry no data and are skipped.
    """
    ops = [dag.ops[idx] for idx in cut if dag.kinds[idx] == STORE]
    return space.crash_image(ops)


def reachable_values(
    dag: PersistDag,
    space: PersistentMemory,
    extract: Callable[[PersistentMemory], Tuple],
    limit: int = 200_000,
) -> Set[Tuple]:
    """All distinct ``extract`` results over every consistent cut.

    The litmus tests of Figure 2 use this to check that forbidden PM
    states are unreachable and allowed states are reachable.
    """
    out: Set[Tuple] = set()
    for cut in enumerate_cuts(dag, limit=limit):
        out.add(extract(materialise(dag, cut, space)))
    return out
