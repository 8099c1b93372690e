"""Cache hierarchy tests: tags, LRU, write-backs, coherence hooks."""

from dataclasses import replace

from repro.core.ops import Op, OpKind
from repro.sim.cache import CacheHierarchy, TagCache
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.durability import SOURCE_WRITEBACK, DurabilityTracker
from repro.sim.memory import PMController


def small_cache(assoc=2, sets=4):
    return TagCache(
        CacheConfig(
            size_bytes=assoc * sets * 64, assoc=assoc, line_bytes=64,
            hit_latency=4,
        )
    )


def make_hierarchy(n_cores=2):
    cfg = MachineConfig(n_cores=n_cores)
    pm = PMController(cfg.pm)
    return cfg, CacheHierarchy(cfg, pm)


class RecordingPM(PMController):
    """A PM controller that remembers the line of every write."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.written = []

    def write(self, t, line=-1):
        self.written.append(line)
        return super().write(t, line)


def tiny_hierarchy():
    """One core over a one-line L1 and a two-line L2, so every third line
    touched pushes one out of the L2."""
    cfg = replace(
        MachineConfig(n_cores=1),
        l1d=CacheConfig(size_bytes=64, assoc=1, line_bytes=64, hit_latency=4),
        l2=CacheConfig(size_bytes=128, assoc=2, line_bytes=64, hit_latency=32),
    )
    pm = RecordingPM(cfg.pm)
    return cfg, pm, CacheHierarchy(cfg, pm)


class TestTagCache:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(1) is None
        c.fill(1, dirty=False)
        assert c.lookup(1) is False

    def test_dirty_tracking(self):
        c = small_cache()
        c.fill(1, dirty=True)
        assert c.lookup(1) is True
        assert c.clean(1) is True
        assert c.lookup(1) is False

    def test_lru_eviction(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0, False)
        c.fill(1, False)
        c.lookup(0)  # refresh 0; victim should be 1
        victim = c.fill(2, False)
        assert victim == (1, False)

    def test_dirty_victim_reported(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0, dirty=True)
        victim = c.fill(1, dirty=False)
        assert victim == (0, True)

    def test_invalidate(self):
        c = small_cache()
        c.fill(3, dirty=True)
        assert c.invalidate(3) is True
        assert c.lookup(3) is None
        assert c.invalidate(3) is False


class TestHierarchy:
    def test_l1_hit_after_fill(self):
        _, h = make_hierarchy()
        done1, served1 = h.access(0, 10, False, 0.0)
        assert served1 == "pm"
        done2, served2 = h.access(0, 10, False, done1)
        assert served2 == "l1"

    def test_warm_serves_from_l2(self):
        _, h = make_hierarchy()
        h.warm([10])
        _, served = h.access(0, 10, False, 0.0)
        assert served == "l2"

    def test_l2_miss_reads_pm(self):
        """A line in neither cache is read from PM after both tag checks,
        and lands clean in the L2 and in the core's L1."""
        cfg, h = make_hierarchy()
        done, served = h.access(0, 10, False, 100.0)
        assert served == "pm"
        assert done == 100.0 + cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.pm.read_latency
        assert h.l2.misses == 1
        assert h.l2.lookup(10, touch=False) is False
        assert h.l1[0].lookup(10, touch=False) is False

    def test_dirty_l2_victim_is_written_back_to_pm(self):
        """Stored lines pushed out of the L2 are written to PM, and the
        durability tracker marks the store persisted by a write-back."""
        _, pm, h = tiny_hierarchy()
        h.durability = tracker = DurabilityTracker()
        tracker.note_store(Op(OpKind.STORE, addr=64, size=8), retire=0.0)
        t = 0.0
        for line in (1, 2):
            t, _ = h.access(0, line, True, t)
        for line in (100, 101, 102):
            t, _ = h.access(0, line, False, t)
        assert sorted(pm.written) == [1, 2]
        (record,) = tracker.records
        assert record.source == SOURCE_WRITEBACK
        assert record.durable <= t

    def test_clean_l2_victim_is_dropped(self):
        """Lines only ever loaded leave the L2 without a PM write."""
        _, pm, h = tiny_hierarchy()
        t = 0.0
        for line in range(8):
            t, served = h.access(0, line, False, t)
            assert served == "pm"
        assert pm.written == []

    def test_cross_core_dirty_transfer(self):
        cfg, h = make_hierarchy()
        h.access(0, 10, True, 0.0)  # core 0 dirties line
        t, _ = h.access(1, 10, True, 1000.0)
        assert h.coherence_transfers == 1
        assert t >= 1000.0 + cfg.coherence_transfer

    def test_drain_hook_invoked_on_steal(self):
        calls = []

        def hook(owner, line, t):
            calls.append((owner, line))
            return t + 500.0

        cfg, h = make_hierarchy()
        h.drain_hooks[0] = hook
        h.access(0, 10, True, 0.0)
        t, _ = h.access(1, 10, True, 100.0)
        assert calls == [(0, 10)]
        assert t >= 600.0

    def test_flush_cleans_line(self):
        _, h = make_hierarchy()
        h.access(0, 10, True, 0.0)
        assert h.l1[0].lookup(10, touch=False) is True
        h.flush(0, 10, 50.0)
        assert h.l1[0].lookup(10, touch=False) is False

    def test_flush_of_absent_line_is_cheap(self):
        cfg, h = make_hierarchy()
        depart = h.flush(0, 123, 10.0)
        assert depart == 10.0 + cfg.l1d.hit_latency
