"""Parallel sweep engine: determinism, program affinity, caching, collision-proofing."""

import dataclasses
import json
import os
import time

import pytest

from repro.harness import experiment, sweep
from repro.harness.cachedir import CACHE_SCHEMA, CellCache, fingerprint_key
from repro.harness.experiment import ALL_DESIGNS, clear_cache
from repro.harness.sweep import SweepCell, expand_cells, run_sweep
from repro.prof.runlog import RunLog, read_runlog
from repro.sim.config import TABLE_I

OPS = 4  # tiny but representative scale


def small_matrix():
    return expand_cells(
        ["queue", "hashmap"], ["intel-x86", "strandweaver"], ops_per_thread=OPS
    )


def one_program_configs():
    """Cells of one canonical program (queue on strandweaver under four
    strand-buffer configs): more than ⌈4 / 2⌉ cells, so a 2-job pool
    splits the group into two chunks."""
    return [
        SweepCell("queue", "strandweaver", ops_per_thread=OPS,
                  machine_cfg=TABLE_I.with_strand(buffers, entries))
        for buffers, entries in ((1, 1), (2, 2), (4, 4), (8, 8))
    ]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


# -- determinism ---------------------------------------------------------


def test_parallel_matches_serial_byte_identical():
    """`-j 1` and `-j N` produce byte-identical repro.sweep/1 JSON, both
    for a grid of programs and for one program split across workers."""
    for cells, jobs in ((small_matrix(), 4), (one_program_configs(), 2)):
        serial = run_sweep(cells, jobs=1, use_memo=False)
        parallel = run_sweep(cells, jobs=jobs, use_memo=False)
        a = json.dumps(serial.to_json(deterministic=True), sort_keys=True)
        b = json.dumps(parallel.to_json(deterministic=True), sort_keys=True)
        assert a == b


def test_pool_generates_each_program_once(tmp_path, monkeypatch):
    """Cells that share a canonical program run in one worker, which
    generates the program once: two programs, two generations."""
    calls = tmp_path / "generations.txt"
    original = experiment.generate_canonical

    def counted(*args, **kwargs):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    # the pool forks after the patch, so its workers inherit it
    monkeypatch.setattr(experiment, "generate_canonical", counted)
    cells = expand_cells(["queue", "hashmap"], ALL_DESIGNS, ops_per_thread=OPS)
    result = run_sweep(cells, jobs=2, use_memo=False)
    assert result.errors == 0
    assert len(calls.read_text().splitlines()) == 2


def test_split_program_runs_on_two_workers(tmp_path, monkeypatch):
    """A one-program sweep is split into chunks, so both workers of a
    2-job pool run cells."""
    original = sweep._execute

    def slowed(cell):
        # long enough that one worker cannot drain both chunks before
        # the other takes one
        time.sleep(0.3)
        return original(cell)

    monkeypatch.setattr(sweep, "_execute", slowed)
    cells = one_program_configs()
    path = str(tmp_path / "run.jsonl")
    result = run_sweep(
        cells, jobs=2, use_memo=False,
        runlog=RunLog(path, kind="sweep", total=len(cells)),
    )
    assert result.errors == 0
    finishes = [e for e in read_runlog(path) if e["event"] == "cell-finish"]
    assert len(finishes) == len(cells)
    assert len({e["worker"] for e in finishes}) == 2


def test_results_in_input_order():
    cells = small_matrix()
    result = run_sweep(cells, jobs=4, use_memo=False)
    assert [res.cell for res in result.cells] == cells


def test_duplicate_cells_simulated_once():
    cell = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    result = run_sweep([cell, cell, cell], jobs=2, use_memo=False)
    assert len(result.cells) == 3
    assert result.cells[0].stats is result.cells[2].stats


# -- error capture -------------------------------------------------------


def test_failed_cell_reports_without_killing_sweep():
    cells = [
        SweepCell("queue", "strandweaver", ops_per_thread=OPS),
        SweepCell("no-such-benchmark", "strandweaver", ops_per_thread=OPS),
        SweepCell("hashmap", "intel-x86", ops_per_thread=OPS),
    ]
    result = run_sweep(cells, jobs=2, use_memo=False)
    assert result.errors == 1
    ok, bad, ok2 = result.cells
    assert ok.ok and ok2.ok
    assert not bad.ok
    assert "no-such-benchmark" in bad.error
    with pytest.raises(RuntimeError, match="failed"):
        result.stats_for(cells[1])
    assert result.stats_for(cells[0]).cycles > 0


def test_stats_for_unknown_cell_raises():
    result = run_sweep([SweepCell("queue", "intel-x86", ops_per_thread=OPS)])
    with pytest.raises(KeyError):
        result.stats_for(SweepCell("rbtree", "hops", ops_per_thread=OPS))


# -- on-disk cache -------------------------------------------------------


def test_cache_cold_then_warm(tmp_path):
    cache = CellCache(str(tmp_path))
    cells = small_matrix()
    cold = run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    assert cold.cache_hits == 0 and cold.cache_misses == len(cells)
    warm = run_sweep(cells, jobs=1, cache=cache, use_memo=False)
    assert warm.cache_hits == len(cells) and warm.cache_misses == 0
    for a, b in zip(cold.cells, warm.cells):
        assert a.stats.summary() == b.stats.summary()
    a = json.dumps(cold.to_json(deterministic=True), sort_keys=True)
    b = json.dumps(warm.to_json(deterministic=True), sort_keys=True)
    assert a == b


def test_parallel_cold_warm_round_trip(tmp_path):
    cache = CellCache(str(tmp_path))
    cells = small_matrix()
    cold = run_sweep(cells, jobs=4, cache=cache, use_memo=False)
    warm = run_sweep(cells, jobs=4, cache=cache, use_memo=False)
    assert cold.cache_misses == len(cells)
    assert warm.cache_hits == len(cells)


def test_poisoned_cache_entry_ignored(tmp_path):
    """A stale schema version is recomputed, never served."""
    cache = CellCache(str(tmp_path))
    cell = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    run_sweep([cell], cache=cache, use_memo=False)
    path = cache.path_for(cell.key())
    doc = json.loads(open(path).read())

    poisoned = dict(doc, schema="repro.cell/0")
    with open(path, "w") as fh:
        json.dump(poisoned, fh)
    again = run_sweep([cell], cache=cache, use_memo=False)
    assert again.cache_hits == 0 and again.cache_misses == 1

    # A tampered fingerprint (content no longer matches the address) is
    # also a miss: entries are verified field-for-field on read.
    tampered = dict(doc)
    tampered["fingerprint"] = dict(doc["fingerprint"], model="atlas")
    with open(path, "w") as fh:
        json.dump(tampered, fh)
    assert cache.lookup(cell.fingerprint()) is None

    # Corrupt JSON is a miss, not a crash.
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cache.lookup(cell.fingerprint()) is None


def test_memo_shared_with_run_cell(tmp_path):
    from repro.harness.experiment import run_cell

    stats = run_cell("queue", "strandweaver", ops_per_thread=OPS)
    result = run_sweep(
        [SweepCell("queue", "strandweaver", ops_per_thread=OPS)],
        cache=CellCache(str(tmp_path)),
    )
    assert result.memo_hits == 1
    assert result.cells[0].stats is stats


# -- collision-proofing --------------------------------------------------


def test_full_config_fingerprint_distinguishes_pm_timing(tmp_path):
    """Two MachineConfigs differing only in PM timing never share a key."""
    slow_pm = dataclasses.replace(
        TABLE_I, pm=dataclasses.replace(TABLE_I.pm, write_to_controller=768)
    )
    a = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    b = SweepCell("queue", "strandweaver", ops_per_thread=OPS, machine_cfg=slow_pm)
    assert a.key() != b.key()

    cache = CellCache(str(tmp_path))
    result = run_sweep([a, b], jobs=1, cache=cache, use_memo=False)
    sa, sb = result.cells
    assert sa.stats.cycles != sb.stats.cycles
    # Each cell round-trips to its own entry with full-config keys.
    warm = run_sweep([a, b], jobs=1, cache=cache, use_memo=False)
    assert warm.cache_hits == 2
    assert warm.cells[0].stats.cycles == sa.stats.cycles
    assert warm.cells[1].stats.cycles == sb.stats.cycles


def test_fingerprint_covers_every_machine_config_field():
    """Any single-field change anywhere in the config tree changes the key."""
    base = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    variants = [
        dataclasses.replace(TABLE_I, n_cores=4),
        dataclasses.replace(TABLE_I, coherence_transfer=80),
        dataclasses.replace(TABLE_I, core=dataclasses.replace(TABLE_I.core, rob_entries=128)),
        dataclasses.replace(TABLE_I, pm=dataclasses.replace(TABLE_I.pm, read_latency=100)),
        dataclasses.replace(TABLE_I, pm=dataclasses.replace(TABLE_I.pm, media_banks=1)),
        dataclasses.replace(
            TABLE_I, strand=dataclasses.replace(TABLE_I.strand, persist_queue_entries=4)
        ),
        dataclasses.replace(
            TABLE_I, hops=dataclasses.replace(TABLE_I.hops, persist_buffer_entries=4)
        ),
    ]
    keys = {base.key()}
    for cfg in variants:
        keys.add(dataclasses.replace(base, machine_cfg=cfg).key())
    assert len(keys) == len(variants) + 1


def test_fingerprint_key_is_canonical():
    cell = SweepCell("queue", "strandweaver", ops_per_thread=OPS)
    assert cell.key() == fingerprint_key(cell.fingerprint())
    assert cell.fingerprint()["schema"] == CACHE_SCHEMA
