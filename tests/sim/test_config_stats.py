"""Configuration and statistics tests."""

import pytest

from repro.sim.config import CLOCK_GHZ, TABLE_I
from repro.sim.stats import CoreStats, MachineStats, geomean


def test_table_i_defaults_match_paper():
    cfg = TABLE_I
    assert cfg.n_cores == 8
    assert CLOCK_GHZ == 2.0
    assert cfg.core.rob_entries == 224
    assert cfg.core.store_queue_entries == 64
    assert cfg.l1d.size_bytes == 32 * 1024 and cfg.l1d.assoc == 2
    assert cfg.l2.size_bytes == 28 * 1024 * 1024 and cfg.l2.assoc == 16
    assert cfg.pm.read_latency == 692  # 346 ns at 2 GHz
    assert cfg.pm.write_to_controller == 192  # 96 ns
    assert cfg.pm.write_to_media == 1000  # 500 ns
    assert cfg.strand.persist_queue_entries == 16
    assert cfg.strand.n_strand_buffers == 4
    assert cfg.strand.strand_buffer_entries == 4


def test_cache_set_count():
    assert TABLE_I.l1d.n_sets == 32 * 1024 // (2 * 64)


def test_with_strand_override():
    cfg = TABLE_I.with_strand(8, 2)
    assert cfg.strand.n_strand_buffers == 8
    assert cfg.strand.strand_buffer_entries == 2
    assert TABLE_I.strand.n_strand_buffers == 4  # original untouched


def test_table1_rendering_mentions_key_values():
    assert TABLE_I.table1() == {
        "Core": (
            "8-cores, 2GHz OoO, 6-wide dispatch, 8-wide commit, "
            "224-entry ROB, 72/64-entry LQ/SQ"
        ),
        "D-Cache": "32kB, 2-way, 64B, 2ns hit, 6 MSHRs",
        "L2-Cache": "28MB, 16-way, 64B, 16ns hit, 16 MSHRs",
        "PM controller": "64/32-entry write/read queue",
        "PM": "346ns read, 96ns write to controller, 500ns write to PM",
        "StrandWeaver": "16-entry persist queue, 4 strand buffers x 4 entries",
    }


def test_core_stats_persist_stalls():
    st = CoreStats(stall_fence=10, stall_queue_full=5, stall_drain=7, stall_lock=100)
    assert st.persist_stalls == 22  # lock waits are not persist stalls


def test_machine_stats_aggregation():
    ms = MachineStats(design="x")
    a = CoreStats(cycles=100, clwbs=4, stall_fence=10)
    b = CoreStats(cycles=150, clwbs=6, stall_fence=20)
    ms.per_core = [a, b]
    assert ms.cycles == 150
    assert ms.clwbs == 10
    assert ms.persist_stalls == 30
    assert ms.ckc == pytest.approx(1000 * 10 / 150)


def test_speedup_and_stall_ratio():
    fast = MachineStats(design="fast", per_core=[CoreStats(cycles=100, stall_fence=10)])
    slow = MachineStats(design="slow", per_core=[CoreStats(cycles=200, stall_fence=40)])
    assert fast.speedup_over(slow) == 2.0
    assert fast.stall_ratio_vs(slow) == 0.25


def test_stall_ratio_vs_zero_baseline_stays_finite():
    """A stall-free baseline must not leak ``inf`` into figure JSON."""
    import math

    stalled = MachineStats(design="a", per_core=[CoreStats(cycles=100, stall_fence=7)])
    clean = MachineStats(design="b", per_core=[CoreStats(cycles=100)])
    assert clean.stall_ratio_vs(clean) == 0.0
    ratio = stalled.stall_ratio_vs(clean)
    assert math.isfinite(ratio)
    assert ratio == 7.0  # absolute stall count as the finite proxy


def test_summary_reports_pm_traffic():
    core = CoreStats(cycles=10, pm_reads=3, pm_writes=5)
    summary = MachineStats(design="x", per_core=[core, CoreStats(pm_writes=2)]).summary()
    assert summary["pm_reads"] == 3
    assert summary["pm_writes"] == 7


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    assert geomean([2.0]) == pytest.approx(2.0)


def test_geomean_rejects_non_positive_values():
    with pytest.raises(ValueError, match="non-positive"):
        geomean([1.0, 0.0, 4.0])
    with pytest.raises(ValueError, match="non-positive"):
        geomean([-2.0])
