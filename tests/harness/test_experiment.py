"""Experiment-driver unit tests."""

import dataclasses

from repro.harness import experiment
from repro.harness.experiment import (
    ALL_DESIGNS,
    ALL_MODELS,
    clear_cache,
    default_config,
    run_cell,
)
from repro.harness.sweep import SweepCell, _run_chunk
from repro.sim.config import TABLE_I


def test_design_and_model_lists():
    assert ALL_DESIGNS[0] == "intel-x86"
    assert ALL_DESIGNS[-1] == "non-atomic"
    assert set(ALL_MODELS) == {"txn", "atlas", "sfr"}


def test_default_config_scales():
    cfg = default_config(ops_per_thread=10, ops_per_region=2)
    assert cfg.ops_per_thread == 10
    assert cfg.ops_per_region == 2
    assert cfg.n_threads == 8


def test_cache_distinguishes_machine_configs():
    clear_cache()
    a = run_cell("queue", "strandweaver", "txn", ops_per_thread=4)
    b = run_cell(
        "queue", "strandweaver", "txn", ops_per_thread=4,
        machine_cfg=TABLE_I.with_strand(1, 1),
    )
    assert a is not b
    assert a.cycles != b.cycles  # (1,1) strand buffers are much slower


def test_cache_distinguishes_models():
    clear_cache()
    a = run_cell("queue", "strandweaver", "txn", ops_per_thread=4)
    b = run_cell("queue", "strandweaver", "sfr", ops_per_thread=4)
    assert a is not b


def test_cache_distinguishes_pm_timing():
    """Regression: the memo key must cover the *full* MachineConfig.

    A previous RunKey fingerprinted only the strand-buffer fields, so two
    configs differing in PM timing silently shared one cached result.
    """
    clear_cache()
    slow_pm = dataclasses.replace(
        TABLE_I, pm=dataclasses.replace(TABLE_I.pm, write_to_controller=768)
    )
    a = run_cell("queue", "strandweaver", "txn", ops_per_thread=4)
    b = run_cell(
        "queue", "strandweaver", "txn", ops_per_thread=4, machine_cfg=slow_pm
    )
    assert a is not b
    assert a.cycles != b.cycles  # a 4x CLWB-ack latency must show up


def test_cache_distinguishes_cache_timing():
    clear_cache()
    slow_l1 = dataclasses.replace(
        TABLE_I, l1d=dataclasses.replace(TABLE_I.l1d, hit_latency=40)
    )
    a = run_cell("queue", "strandweaver", "txn", ops_per_thread=4)
    b = run_cell(
        "queue", "strandweaver", "txn", ops_per_thread=4, machine_cfg=slow_l1
    )
    assert a is not b
    assert a.cycles != b.cycles


def test_worker_release_keeps_only_the_current_program():
    """A pool worker that moves on to program B drops program A and its
    specializations (with the replay streams cached on them); B's stay."""
    clear_cache()
    chunk_a = [SweepCell("queue", design, ops_per_thread=4)
               for design in ("intel-x86", "strandweaver")]
    chunk_b = [SweepCell("hashmap", design, ops_per_thread=4)
               for design in ("intel-x86", "hops", "strandweaver")]
    for chunk in (chunk_a, chunk_b):
        outcomes = _run_chunk(chunk)
        assert [status for status, *_ in outcomes] == ["ok"] * len(chunk)
    key_b = chunk_b[0].program_key()
    assert chunk_a[0].program_key() != key_b
    assert list(experiment._CANONICAL) == [key_b]
    assert experiment._PROGRAMS
    assert {ckey for ckey, _dialect in experiment._PROGRAMS} == {key_b}
    clear_cache()
