"""Harness smoke tests: figures regenerate with the paper's shape."""

import pytest

from repro.harness import figure7, figure8, run_cell, speedup, table1, table2
from repro.harness.experiment import clear_cache

OPS = 8  # tiny but representative scale for CI-speed shape checks


@pytest.fixture(autouse=True, scope="module")
def _warm_cache():
    clear_cache()
    yield


def test_table1_renders():
    result = table1()
    text = result.render()
    assert "346ns read" in text


def test_table2_reports_all_benchmarks():
    result = table2(ops_per_thread=OPS)
    names = [row[0] for row in result.rows]
    assert names[0] == "queue" and names[-1] == "nstore-wr"
    assert all(row[2] > 0 for row in result.rows)


def test_table2_nstore_wr_most_write_intensive():
    result = table2(ops_per_thread=OPS)
    ckc = {row[0]: row[2] for row in result.rows}
    assert ckc["nstore-wr"] >= ckc["tpcc"]
    assert ckc["nstore-wr"] >= ckc["queue"]
    assert ckc["nstore-wr"] >= ckc["rbtree"]


def test_figure7_strandweaver_beats_x86_everywhere():
    result = figure7(ops_per_thread=OPS)
    designs = result.columns[1:]
    sw = designs.index("strandweaver") + 1
    for row in result.rows[:-1]:  # skip the geomean row
        assert row[sw] > 1.0, f"{row[0]} regressed under StrandWeaver"


def test_figure7_design_ordering():
    result = figure7(ops_per_thread=OPS)
    geo = result.rows[-1]
    cols = result.columns
    by = {cols[i]: geo[i] for i in range(1, len(cols))}
    assert by["intel-x86"] == pytest.approx(1.0)
    assert by["strandweaver"] > by["intel-x86"]
    assert by["non-atomic"] >= by["strandweaver"]
    assert by["no-persist-queue"] > 1.0
    assert by["hops"] > 1.0


def test_figure7_speedup_in_paper_band():
    result = figure7(ops_per_thread=OPS)
    avg = result.summary["strandweaver_avg"]
    assert 1.1 < avg < 2.0  # paper: 1.45x average
    assert result.summary["strandweaver_max"] < 2.5  # paper: 1.97x max


def test_figure8_strandweaver_reduces_stalls():
    result = figure8(ops_per_thread=OPS)
    reduction = result.summary["strandweaver_stall_reduction_pct"]
    assert reduction > 30.0  # paper: 62.4% fewer stalls


def test_speedup_helper_consistent_with_figure():
    s = speedup("queue", "strandweaver", "txn", ops_per_thread=OPS)
    assert s > 1.0


def test_run_cell_cached():
    a = run_cell("queue", "intel-x86", "txn", ops_per_thread=OPS)
    b = run_cell("queue", "intel-x86", "txn", ops_per_thread=OPS)
    assert a is b


def test_run_cell_unknown_benchmark():
    with pytest.raises(ValueError):
        run_cell("btree", "intel-x86")


def test_figure_parallel_matches_serial():
    """A figure regenerated at -j 2 is identical to the serial run."""
    serial = table2(ops_per_thread=OPS)
    parallel = table2(ops_per_thread=OPS, jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_figure_renders_from_disk_cache(tmp_path):
    from repro.harness.cachedir import CellCache

    cache = CellCache(str(tmp_path))
    clear_cache()
    cold = table2(ops_per_thread=OPS, cache=cache)
    clear_cache()  # drop the memo so the warm pass must read from disk
    warm = table2(ops_per_thread=OPS, cache=cache)
    assert cold.to_json() == warm.to_json()
