"""Unit tests for the shared-resource timing primitives."""

import pytest

from repro.sim.engine import BandwidthResource, InOrderQueue


class TestBandwidthResource:
    def test_immediate_grant_when_idle(self):
        bw = BandwidthResource(8)
        assert bw.reserve(100.0) == 100.0

    def test_back_to_back_requests_spaced(self):
        bw = BandwidthResource(8)
        g1 = bw.reserve(0.0)
        g2 = bw.reserve(0.0)
        assert g2 >= g1 + 8 - 1e-9 or int(g2 / 8) != int(g1 / 8)

    def test_out_of_order_reservation_does_not_block_past(self):
        bw = BandwidthResource(8)
        future = bw.reserve(10_000.0)
        early = bw.reserve(16.0)
        assert early < future  # the earlier slot was still available

    def test_capacity_windows(self):
        bw = BandwidthResource(10, capacity=2)
        grants = sorted(bw.reserve(0.0) for _ in range(4))
        # Two fit in the first window, the rest spill into later windows.
        assert grants[0] < 10 and grants[1] < 10
        assert grants[2] >= 10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            BandwidthResource(0)
        with pytest.raises(ValueError):
            BandwidthResource(8, capacity=0)


class TestInOrderQueue:
    def test_retire_in_order(self):
        q = InOrderQueue(8)
        r1 = q.push(0.0, 100.0)
        r2 = q.push(0.0, 50.0)  # ready earlier, retires later
        assert r1 == 100.0
        assert r2 == 100.0

    def test_earliest_slot_when_full(self):
        q = InOrderQueue(2)
        q.push(0.0, 100.0)
        q.push(0.0, 200.0)
        assert q.earliest_slot(0.0) == 100.0
        assert q.earliest_slot(150.0) == 150.0

    def test_drain_time(self):
        q = InOrderQueue(4)
        q.push(0.0, 70.0)
        q.push(0.0, 30.0)
        assert q.drain_time(0.0) == 70.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            InOrderQueue(0)
