"""Declarative PMO axioms (Eqs. 1-4): labels, relations, crash states."""

import pytest

from repro.analysis.pmo import DeclarativePmo, StateSpaceExceeded
from repro.core.ops import Op, OpKind, Program

A, B, C = 0x1000, 0x1040, 0x1080


def _prog(*kinds_and_addrs):
    """One-thread program from (kind, addr) shorthand tuples."""
    p = Program(1)
    for kind, addr in kinds_and_addrs:
        p.emit(0, Op(kind, addr=addr, size=8))
    return p


class TestEq1PersistBarrier:
    def test_barrier_orders_same_strand_stores(self):
        p = _prog((OpKind.STORE, A), (OpKind.PERSIST_BARRIER, 0), (OpKind.STORE, B))
        pmo = DeclarativePmo(p, "strandweaver")
        assert pmo.ordered_before(0, 1)
        assert ((0, 0), (0, 2)) in pmo.order_pairs()
        # exactly the three down-closed sets of a 2-chain
        assert pmo.count_states() == 3

    def test_unseparated_stores_are_unordered(self):
        p = _prog((OpKind.STORE, A), (OpKind.STORE, B))
        pmo = DeclarativePmo(p, "strandweaver")
        assert not pmo.ordered_before(0, 1)
        assert pmo.count_states() == 4

    def test_new_strand_discards_the_barrier_edge(self):
        p = _prog(
            (OpKind.STORE, A),
            (OpKind.PERSIST_BARRIER, 0),
            (OpKind.NEW_STRAND, 0),
            (OpKind.STORE, B),
        )
        pmo = DeclarativePmo(p, "strandweaver")
        assert not pmo.ordered_before(0, 1)
        assert pmo.count_states() == 4


class TestEq2JoinStrand:
    def test_join_orders_across_strands(self):
        p = _prog(
            (OpKind.STORE, A),
            (OpKind.NEW_STRAND, 0),
            (OpKind.JOIN_STRAND, 0),
            (OpKind.STORE, B),
        )
        pmo = DeclarativePmo(p, "strandweaver")
        assert pmo.ordered_before(0, 1)
        assert (0, 1) in pmo.edges["eq2"]
        assert pmo.count_states() == 3


class TestEq3Atomicity:
    def test_byte_conflicting_stores_order_by_visibility(self):
        p = Program(2)
        p.emit(0, Op(OpKind.STORE, addr=A, size=8))
        p.emit(1, Op(OpKind.STORE, addr=A, size=8))
        pmo = DeclarativePmo(p, "non-atomic")
        # even the weakest design keeps strong persist atomicity
        assert pmo.ordered_before(0, 1)
        assert pmo.count_states() == 3

    def test_disjoint_addresses_stay_concurrent(self):
        p = Program(2)
        p.emit(0, Op(OpKind.STORE, addr=A, size=8))
        p.emit(1, Op(OpKind.STORE, addr=B, size=8))
        pmo = DeclarativePmo(p, "strandweaver")
        assert not pmo.ordered_before(0, 1)
        assert not pmo.ordered_before(1, 0)

    def test_partial_overlap_counts_as_conflict(self):
        p = Program(2)
        p.emit(0, Op(OpKind.STORE, addr=A, size=8))
        p.emit(1, Op(OpKind.STORE, addr=A + 4, size=8))
        pmo = DeclarativePmo(p, "strandweaver")
        assert pmo.ordered_before(0, 1)


class TestDesignProjection:
    def test_x86_never_sees_a_persist_barrier(self):
        p = _prog((OpKind.STORE, A), (OpKind.PERSIST_BARRIER, 0), (OpKind.STORE, B))
        pmo = DeclarativePmo(p, "intel-x86")
        assert not pmo.ordered_before(0, 1)

    def test_x86_sfence_orders(self):
        p = _prog((OpKind.STORE, A), (OpKind.SFENCE, 0), (OpKind.STORE, B))
        pmo = DeclarativePmo(p, "intel-x86")
        assert pmo.ordered_before(0, 1)

    def test_strandweaver_never_sees_an_sfence(self):
        p = _prog((OpKind.STORE, A), (OpKind.SFENCE, 0), (OpKind.STORE, B))
        pmo = DeclarativePmo(p, "strandweaver")
        assert not pmo.ordered_before(0, 1)


class TestSyncLockTransfer:
    def test_drained_stores_precede_the_acquirers_stores(self):
        p = Program(2)
        p.emit(0, Op(OpKind.STORE, addr=A, size=8))
        p.emit(0, Op(OpKind.JOIN_STRAND))
        p.emit(0, Op(OpKind.LOCK_REL, lock_id=1))
        p.emit(1, Op(OpKind.LOCK_ACQ, lock_id=1))
        p.emit(1, Op(OpKind.STORE, addr=B, size=8))
        pmo = DeclarativePmo(p, "strandweaver")
        assert pmo.ordered_before(0, 1)
        assert ((0, 0), (1, 1)) in pmo.order_pairs()

    def test_undrained_release_transfers_nothing(self):
        p = Program(2)
        p.emit(0, Op(OpKind.STORE, addr=A, size=8))
        p.emit(0, Op(OpKind.LOCK_REL, lock_id=1))  # no drain before release
        p.emit(1, Op(OpKind.LOCK_ACQ, lock_id=1))
        p.emit(1, Op(OpKind.STORE, addr=B, size=8))
        pmo = DeclarativePmo(p, "strandweaver")
        assert not pmo.ordered_before(0, 1)


class TestReachability:
    def _chain(self):
        return DeclarativePmo(
            _prog((OpKind.STORE, A), (OpKind.PERSIST_BARRIER, 0), (OpKind.STORE, B)),
            "strandweaver",
        )

    def test_down_closed_sets_are_reachable(self):
        pmo = self._chain()
        assert pmo.is_reachable([])
        assert pmo.is_reachable([(0, 0)])
        assert pmo.is_reachable([(0, 0), (0, 2)])

    def test_missing_ancestor_is_unreachable(self):
        pmo = self._chain()
        assert not pmo.is_reachable([(0, 2)])  # B without A

    def test_unknown_key_is_unreachable(self):
        pmo = self._chain()
        assert not pmo.is_reachable([(0, 1)])  # the barrier is not a store
        assert not pmo.is_reachable([(7, 7)])

    def test_states_are_exactly_the_down_sets(self):
        pmo = self._chain()
        states = set(pmo.reachable_states())
        assert states == {
            frozenset(),
            frozenset({(0, 0)}),
            frozenset({(0, 0), (0, 2)}),
        }

    def test_budget_overflow_raises(self):
        # 12 independent stores: 2^12 = 4096 down-sets
        p = _prog(*[(OpKind.STORE, A + 64 * i) for i in range(12)])
        pmo = DeclarativePmo(p, "strandweaver")
        with pytest.raises(StateSpaceExceeded):
            pmo.count_states(limit=100)
        assert pmo.count_states(limit=5000) == 4096

    def test_states_come_exclude_branch_first(self):
        p = _prog(*[(OpKind.STORE, A + 64 * i) for i in range(3)])
        order = [
            sorted(seq for _tid, seq in state)
            for state in DeclarativePmo(p, "strandweaver").reachable_states()
        ]
        assert order == [[], [2], [1], [1, 2], [0], [0, 2], [0, 1], [0, 1, 2]]

    def test_budget_applies_beyond_the_recursion_limit(self):
        # One enumeration step per store: 1,200 stores run deeper than
        # the interpreter's default recursion limit of 1,000.
        p = _prog(*[(OpKind.STORE, A + 64 * i) for i in range(1200)])
        pmo = DeclarativePmo(p, "strandweaver")
        with pytest.raises(StateSpaceExceeded):
            pmo.count_states(limit=100)
