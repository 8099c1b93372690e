"""Media fault model: determinism, null-model identity, policy visibility,
on both engine tiers."""

import dataclasses
import json

import pytest

from repro.faults import MediaFaultConfig, MediaFaultModel
from repro.sim import cnative
from repro.sim.config import TABLE_I
from repro.sim.machine import Machine
from repro.workloads import WORKLOADS, WorkloadConfig, generate_for_design

CFG = WorkloadConfig(n_threads=2, ops_per_thread=8, log_entries=512, pm_size=1 << 20)

FAULTY = MediaFaultConfig(
    seed=42, write_fail_prob=0.2, ecc_correctable_prob=0.1,
    ecc_uncorrectable_prob=0.01,
)


@pytest.fixture(params=["default", "reference"])
def tier(request, monkeypatch):
    """The engine tier ``_run`` replays on.  The reference engine is the
    oracle of the native core's media policy, so both must pass these
    tests; where the native core can be built, the default tier must
    replay every run on it."""
    if request.param == "reference":
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        yield
        return
    monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
    declined = []
    run_native = cnative.run_native

    def counting(*args, **kwargs):
        stats = run_native(*args, **kwargs)
        if stats is None:
            declined.append(args[0])
        return stats

    monkeypatch.setattr(cnative, "run_native", counting)
    yield
    assert declined == [] or not cnative.available()


def _run(design="strandweaver", media=None, machine_cfg=TABLE_I):
    run = generate_for_design(WORKLOADS["queue"], CFG, design, "txn")
    faults = MediaFaultModel(media) if media is not None else None
    return Machine(design, machine_cfg).run(run.program, media_faults=faults)


def _dump(stats):
    return json.dumps(stats.summary(), sort_keys=True)


# -- determinism ---------------------------------------------------------


def test_same_seed_bit_identical(tier):
    """One (workload, design, seed) triple -> byte-identical stats."""
    a = _run(media=FAULTY)
    b = _run(media=FAULTY)
    assert a.faults is not None and a.faults["retries"] >= 0
    assert _dump(a) == _dump(b)


def test_different_seed_different_fault_sequence(tier):
    a = _run(media=FAULTY)
    b = _run(media=dataclasses.replace(FAULTY, seed=43))
    assert a.faults != b.faults


# -- the null model is invisible -----------------------------------------


def test_zero_prob_config_identical_to_no_model(tier):
    """An attached all-zeros fault model must not perturb anything.

    Neither the timing nor the stats document may change: the controller
    discards a disabled model entirely, so the summary has no ``faults``
    key and every counter is bit-identical to a build without the fault
    layer.
    """
    plain = _run(media=None)
    nulled = _run(media=MediaFaultConfig())
    assert nulled.faults is None
    assert "faults" not in nulled.summary()
    assert _dump(plain) == _dump(nulled)


def test_disabled_model_draws_no_randomness():
    model = MediaFaultModel(MediaFaultConfig())
    state = model._rng.getstate()
    assert not model.write_fails(7)
    assert not model.write_uncorrectable(7)
    assert not model.read_correctable(7)
    assert model._rng.getstate() == state


def test_remapped_line_is_fault_free_without_consuming_randomness():
    model = MediaFaultModel(
        MediaFaultConfig(seed=1, write_fail_prob=1.0, ecc_correctable_prob=1.0)
    )
    assert model.remap(5, spare_lines=4)
    state = model._rng.getstate()
    assert not model.write_fails(5)
    assert not model.read_correctable(5)
    assert model._rng.getstate() == state
    assert model.write_fails(6)  # other lines still fault


# -- controller policy is timing-visible ---------------------------------


def test_write_retries_cost_cycles(tier):
    """Retries occupy media slots longer; under a small write queue the
    extra occupancy back-pressures acceptance and slows the whole run."""
    tight_queue = dataclasses.replace(
        TABLE_I,
        pm=dataclasses.replace(
            TABLE_I.pm, write_queue_entries=4, media_banks=2
        ),
    )
    media = dataclasses.replace(
        FAULTY, write_fail_prob=0.6, ecc_correctable_prob=0.0,
        ecc_uncorrectable_prob=0.0,
    )
    clean = _run(media=None, machine_cfg=tight_queue)
    faulty = _run(media=media, machine_cfg=tight_queue)
    assert faulty.faults["write_faults"] > 0
    assert faulty.faults["retries"] > 0
    assert faulty.faults["backoff_cycles"] > 0
    assert faulty.cycles > clean.cycles


def test_uncorrectable_wearout_remaps_to_spares(tier):
    media = MediaFaultConfig(seed=9, ecc_uncorrectable_prob=0.3)
    stats = _run(media=media)
    assert stats.faults["remaps"] > 0
    assert stats.faults["remap_denied"] == 0


def test_spare_exhaustion_degrades_instead_of_hanging(tier):
    """With zero spare lines every wear-out is denied, not retried forever."""
    no_spares = dataclasses.replace(
        TABLE_I, pm=dataclasses.replace(TABLE_I.pm, spare_lines=0)
    )
    media = MediaFaultConfig(seed=9, ecc_uncorrectable_prob=0.3)
    stats = _run(media=media, machine_cfg=no_spares)
    assert stats.faults["remaps"] == 0
    assert stats.faults["remap_denied"] > 0


def test_faults_summary_lands_in_stats_json(tier):
    from repro.obs.export import stats_to_json

    stats = _run(media=FAULTY)
    doc = stats_to_json(stats)
    assert doc["summary"]["faults"]["seed"] == FAULTY.seed
    json.dumps(doc, allow_nan=False)  # JSON-safe end to end
