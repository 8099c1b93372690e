"""Direct unit tests for the per-design persist domains."""

import pytest

from repro.core.ops import Op, OpKind
from repro.core.strandweaver import NoPersistQueueDomain, StrandWeaverDomain
from repro.persistency.base import OutstandingSet
from repro.persistency.hops import HopsDomain
from repro.persistency.intel_x86 import IntelX86Domain
from repro.persistency.nonatomic import NonAtomicDomain
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MachineConfig
from repro.sim.engine import InOrderQueue
from repro.sim.memory import PMController
from repro.sim.stats import CoreStats


def make_domain(cls):
    cfg = MachineConfig(n_cores=1)
    pm = PMController(cfg.pm)
    hierarchy = CacheHierarchy(cfg, pm)
    stats = CoreStats()
    sq = InOrderQueue(cfg.core.store_queue_entries)
    return cls(0, cfg, hierarchy, pm, stats, sq), stats


def sfence():
    return Op(OpKind.SFENCE)


class TestOutstandingSet:
    def test_slot_waiting(self):
        s = OutstandingSet(2)
        s.add(100.0)
        s.add(200.0)
        assert s.wait_for_slot(0.0) == 100.0
        assert s.wait_for_slot(150.0) == 150.0

    def test_latest_and_clear(self):
        s = OutstandingSet(4)
        s.add(50.0)
        s.add(70.0)
        assert s.latest() == 70.0
        s.clear()
        assert s.latest() == 0.0


class TestIntelX86:
    def test_sfence_waits_for_clwb_ack(self):
        dom, stats = make_domain(IntelX86Domain)
        dom.clwb(0.0, 1)
        done = dom.fence(sfence(), 10.0)
        assert done >= 192.0
        assert stats.stall_fence > 0

    def test_sfence_with_nothing_outstanding_is_free(self):
        dom, stats = make_domain(IntelX86Domain)
        assert dom.fence(sfence(), 5.0) == 5.0
        assert stats.stall_fence == 0

    def test_rejects_strand_primitives(self):
        dom, _ = make_domain(IntelX86Domain)
        with pytest.raises(ValueError):
            dom.fence(Op(OpKind.PERSIST_BARRIER), 0.0)

    def test_clwb_window_backpressure(self):
        dom, stats = make_domain(IntelX86Domain)
        t = 0.0
        for _ in range(dom.CLWB_WINDOW + 4):
            t, _rob = dom.clwb(t, int(t) + 1)
        assert stats.stall_queue_full > 0


class TestHops:
    def test_ofence_does_not_stall(self):
        dom, stats = make_domain(HopsDomain)
        dom.clwb(0.0, 1)
        done = dom.fence(Op(OpKind.OFENCE), 5.0)
        assert done == 6.0  # one cycle, no wait
        assert stats.stall_fence == 0 and stats.stall_drain == 0

    def test_dfence_drains(self):
        dom, stats = make_domain(HopsDomain)
        dom.clwb(0.0, 1)
        done = dom.fence(Op(OpKind.DFENCE), 5.0)
        assert done >= 192.0
        assert stats.stall_drain > 0

    def test_epochs_chain_in_buffer(self):
        dom, _ = make_domain(HopsDomain)
        dom.clwb(0.0, 1)
        dom.fence(Op(OpKind.OFENCE), 1.0)
        dom.clwb(2.0, 2)
        # Draining both epochs takes at least two chained acks.
        assert dom.drain_all(3.0) >= 2 * 192.0


class TestStrandWeaver:
    def test_persist_barrier_gates_stores_on_issue_only(self):
        dom, stats = make_domain(StrandWeaverDomain)
        dom.clwb(0.0, 1)
        dom.fence(Op(OpKind.PERSIST_BARRIER), 1.0)
        # Issue was immediate (buffers empty), so stores are not gated to
        # the CLWB's *completion*.
        gated = dom.store_gate(2.0)
        assert gated < 100.0

    def test_join_strand_waits_for_completion(self):
        dom, stats = make_domain(StrandWeaverDomain)
        dom.clwb(0.0, 1)
        done = dom.fence(Op(OpKind.JOIN_STRAND), 2.0)
        assert done >= 192.0
        assert stats.stall_drain > 0

    def test_new_strand_rotates(self):
        dom, _ = make_domain(StrandWeaverDomain)
        assert dom.sbu.ongoing == 0
        dom.fence(Op(OpKind.NEW_STRAND), 0.0)
        assert dom.sbu.ongoing == 1

    def test_strands_overlap_chains(self):
        dom, _ = make_domain(StrandWeaverDomain)
        # chain on strand 0: clwb, PB, clwb
        dom.clwb(0.0, 1)
        dom.fence(Op(OpKind.PERSIST_BARRIER), 1.0)
        dom.clwb(2.0, 2)
        chained_drain = dom.sbu.buffers[0].drain_time(3.0)
        dom.fence(Op(OpKind.NEW_STRAND), 3.0)
        dom.clwb(4.0, 3)
        independent_drain = dom.sbu.buffers[1].drain_time(5.0)
        assert independent_drain < chained_drain

    def test_snoop_hook_registered(self):
        dom, _ = make_domain(StrandWeaverDomain)
        assert dom.hierarchy.drain_hooks[0] is not None

    def test_rejects_sfence(self):
        dom, _ = make_domain(StrandWeaverDomain)
        with pytest.raises(ValueError):
            dom.fence(sfence(), 0.0)


class TestNoPersistQueue:
    def test_clwb_occupies_store_queue(self):
        dom, _ = make_domain(NoPersistQueueDomain)
        dom.clwb(0.0, 1)
        # The store queue now holds the CLWB entry until it issues.
        assert dom.store_queue.drain_time(0.0) >= 0.0
        _, rob_done = dom.clwb(1.0, 2)
        assert rob_done >= 1.0


class TestNonAtomic:
    def test_fences_are_noops(self):
        dom, stats = make_domain(NonAtomicDomain)
        dom.clwb(0.0, 1)
        assert dom.fence(sfence(), 5.0) == 5.0
        assert stats.stall_fence == 0

    def test_drain_all_still_waits(self):
        dom, stats = make_domain(NonAtomicDomain)
        dom.clwb(0.0, 1)
        assert dom.drain_all(1.0) >= 192.0
