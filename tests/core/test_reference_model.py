"""Cross-validation of the persist DAG against a brute-force reference.

The production model (:mod:`repro.core.model`) builds a *sparse*
generating set of PMO edges (nearest-non-empty sub-epoch groups, per-byte
last writers, virtual sync nodes).  This test implements Equations 1-4
literally and quadratically — for every pair of stores, decide order
straight from the definitions, then take the transitive closure — and
checks both models agree on ``ordered_before`` for every pair, on
randomly generated lock-free programs.
"""

from hypothesis import given, settings, strategies as st

from repro.core.model import STORE, PersistDag, annotate_thread
from repro.core.ops import OpKind, Program, TraceCursor


def reference_order(program: Program):
    """O(n^3) literal implementation of Eqs. 1-4 (no locks supported)."""
    stores = [op for op in program.all_ops() if op.kind is OpKind.STORE]
    n = len(stores)
    # Label stores via the reference annotator.
    labels = {}
    for trace in program.threads:
        anns = annotate_thread(trace.ops)
        for op, ann in zip(trace.ops, anns):
            if op.kind is OpKind.STORE:
                labels[id(op)] = ann
    edge = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = stores[i], stores[j]
            if a.gseq >= b.gseq:
                continue
            la, lb = labels[id(a)], labels[id(b)]
            if a.tid == b.tid:
                # Eq. 1: same strand instance, barrier between them.
                if la.strand == lb.strand and la.sub_epoch < lb.sub_epoch:
                    edge[i][j] = True
                # Eq. 2: a JoinStrand between them.
                if la.js_epoch < lb.js_epoch:
                    edge[i][j] = True
            # Eq. 3: byte overlap, visibility order.
            if a.addr < b.addr + b.size and b.addr < a.addr + a.size:
                edge[i][j] = True
    # Eq. 4: transitive closure (Floyd-Warshall style).
    for k in range(n):
        for i in range(n):
            if edge[i][k]:
                for j in range(n):
                    if edge[k][j]:
                        edge[i][j] = True
    return stores, edge


def dag_matrix(program: Program, stores):
    dag = PersistDag(program)
    index = {}
    for idx, op in enumerate(dag.ops):
        if dag.kinds[idx] == STORE:
            index[id(op)] = idx
    n = len(stores)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i][j] = dag.ordered_before(
                    index[id(stores[i])], index[id(stores[j])]
                )
    return out


_op = st.tuples(
    st.sampled_from(["store", "store", "pb", "ns", "js"]),
    st.integers(0, 2),
)


def build(threads) -> Program:
    prog = Program(len(threads))
    val = 1
    for tid, ops in enumerate(threads):
        cur = TraceCursor(prog, tid)
        for kind, slot in ops:
            if kind == "store":
                cur.store(slot * 16, bytes([val % 255 + 1]) * 8)
                val += 1
            elif kind == "pb":
                cur.persist_barrier()
            elif kind == "ns":
                cur.new_strand()
            elif kind == "js":
                cur.join_strand()
    return prog


@given(st.lists(st.lists(_op, max_size=10), min_size=1, max_size=2))
@settings(max_examples=120, deadline=None)
def test_dag_matches_literal_eqs_1_to_4(threads):
    prog = build(threads)
    stores, ref = reference_order(prog)
    got = dag_matrix(prog, stores)
    for i in range(len(stores)):
        for j in range(len(stores)):
            if i == j:
                continue
            assert got[i][j] == ref[i][j], (
                f"disagreement on stores {i}->{j}: dag={got[i][j]} "
                f"reference={ref[i][j]}\n"
                f"i={stores[i]!r} j={stores[j]!r}"
            )


def test_reference_on_known_program():
    prog = Program(1)
    c = TraceCursor(prog, 0)
    c.store(0, b"\x01" * 8)
    c.persist_barrier()
    c.store(16, b"\x01" * 8)
    c.new_strand()
    c.store(32, b"\x01" * 8)
    stores, ref = reference_order(prog)
    assert ref[0][1] and not ref[0][2] and not ref[1][2]
