"""Counter/Histogram behaviour, especially percentile math."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.to_json() == {"type": "counter", "value": 6}


class TestHistogramPercentiles:
    def test_nearest_rank_on_1_to_100(self):
        h = Histogram()
        for v in range(100, 0, -1):  # reversed insert exercises the sort
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0

    def test_single_value(self):
        h = Histogram()
        h.observe(42.0)
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == 42.0

    def test_small_sample_rounds_up_rank(self):
        h = Histogram()
        for v in (10.0, 20.0, 30.0, 40.0):
            h.observe(v)
        # ceil(0.5 * 4) = 2nd value; ceil(0.51 * 4) = 3rd value.
        assert h.percentile(50) == 20.0
        assert h.percentile(51) == 30.0

    def test_empty_histogram_is_all_zero(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.to_json()["p99"] == 0.0

    def test_out_of_range_percentile_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_stats_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0
        assert h.max == 3.0

    def test_observe_after_percentile_keeps_order(self):
        h = Histogram()
        h.observe(5.0)
        h.observe(1.0)
        assert h.percentile(100) == 5.0
        h.observe(0.5)  # arrives below the sorted tail
        assert h.percentile(0) == 0.5
        assert h.percentile(100) == 5.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_scope_prefixes_names(self):
        reg = MetricsRegistry()
        scoped = reg.scope("core3")
        scoped.histogram("rob/occupancy").observe(1.0)
        assert reg.get("core3/rob/occupancy") is not None

    def test_to_json_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.histogram("a").observe(2.0)
        doc = reg.to_json()
        assert list(doc) == ["a", "b"]
        assert doc["a"]["type"] == "histogram"
        assert doc["b"]["type"] == "counter"
