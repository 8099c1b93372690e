"""Soak campaign: determinism, isolated replay, case purity, replay
flags, shrinker hand-off."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.chaos import CrashHarness, run_soak
from repro.chaos.harness import CHAOS_CFG
from repro.chaos.shrink import not_reproducible, shrink_crash_point
from repro.chaos.soak import (
    SoakCase,
    SoakResult,
    design_pool_for,
    pick_design,
    run_soak_case,
    sample_case_schedule,
)
from repro.sim.machine import DESIGNS


def _summary_blob(result):
    return json.dumps(result.summary(), sort_keys=True)


def test_soak_is_deterministic_run_to_run():
    """Same master seed -> byte-identical repro.soak/1 document."""
    a = run_soak("queue", seeds=6, seed=3)
    b = run_soak("queue", seeds=6, seed=3)
    assert _summary_blob(a) == _summary_blob(b)
    assert a.summary()["schema"] == "repro.soak/1"


def test_soak_correct_designs_survive_the_campaign():
    result = run_soak("queue", seeds=8, seed=3)
    assert result.ok, result.render()
    # The campaign must actually exercise the fault machinery.
    assert result.summary()["recovery_passes"] >= len(result.cases)
    assert any(c.media_faults for c in result.cases), (
        "no case drew a media fault model"
    )
    assert any(c.recovery_passes > 1 for c in result.cases), (
        "no case crashed during recovery"
    )


def test_failing_case_replays_in_isolation():
    """A case replayed via its private seed reproduces the same plan."""
    campaign = run_soak("queue", seeds=5, seed=11)
    for case in campaign.cases:
        solo = run_soak(
            "queue", seeds=1, seed=case.seed, designs=[case.design]
        )
        assert solo.cases[0].plan_desc == case.plan_desc
        assert solo.cases[0].violation == case.violation


def test_case_generation_is_independent_of_design_rotation():
    schedule = sample_case_schedule(1234)
    assert schedule == sample_case_schedule(1234)
    all_designs = ["intel-x86", "hops", "strandweaver"]
    chosen = pick_design(1234, all_designs)
    assert pick_design(1234, [chosen]) == chosen


def test_non_atomic_violations_are_expected_not_failures():
    result = run_soak("queue", seeds=8, seed=11, designs=["non-atomic"])
    assert result.ok
    assert result.expected_violations > 0, (
        "8 seeded crashes on NON-ATOMIC produced no violation; the "
        "campaign lost its teeth"
    )
    assert not result.failures


def test_unexpected_failure_is_shrunk_and_replayable(monkeypatch):
    """A violation on a correct design lands in ``failing`` with a shrink
    verdict and a replay command.  The fabricated violation does not
    reproduce, so the shrinker must return its canonical
    not-reproducible result instead of a bogus minimum."""
    real = CrashHarness.crash_schedule

    def fabricate(self, schedule, index=0):
        sample = real(self, schedule, index)
        sample.violation = "synthetic violation (test-only)"
        return sample

    monkeypatch.setattr(CrashHarness, "crash_schedule", fabricate)
    result = run_soak("queue", seeds=1, seed=3, designs=["strandweaver"])
    assert not result.ok
    case = result.cases[0]
    assert case.shrunk is not None
    assert case.shrunk.reproducible is False
    failing = result.summary()["failing"][0]
    assert "soak queue --design strandweaver" in failing["replay"]
    assert "not reproducible" in failing["shrunk"]


class TestCasePurity:
    """Each case depends only on its seed and index, so a long campaign
    can be split across processes with ``--seed`` and ``--seeds``."""

    def test_run_soak_case_matches_the_serial_campaign(self):
        pool = design_pool_for(None)
        serial = run_soak("queue", seeds=3, seed=7)
        for case in serial.cases:
            alone = run_soak_case("queue", case.seed, case.index, pool)
            assert alone == case

    def test_out_of_order_reassembly_is_identical(self):
        pool = design_pool_for(None)
        serial = run_soak("queue", seeds=4, seed=7)
        # run the second half first: order must not matter
        out = {}
        for idx in (2, 3, 0, 1):
            out[idx] = run_soak_case("queue", 7 + idx, idx, pool)
        assert [out[i] for i in sorted(out)] == serial.cases

    def test_design_pool_for_defaults_to_all_designs_sorted(self):
        assert design_pool_for(None) == sorted(DESIGNS)
        assert design_pool_for(["strandweaver"]) == ["strandweaver"]


class TestSplitCampaign:
    """``--seed S --seeds N`` split at any point into ``--seed S --seeds
    k`` and ``--seed S+k --seeds N-k`` runs the same cases; only each
    case's index within its own run differs."""

    @pytest.mark.parametrize("split", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["queue", "hashmap"])
    def test_halves_reproduce_the_whole_campaign(self, workload, split):
        whole = run_soak(workload, seeds=4, seed=7)
        head = run_soak(workload, seeds=split, seed=7)
        tail = run_soak(workload, seeds=4 - split, seed=7 + split)
        rejoined = head.cases + [
            dataclasses.replace(case, index=case.index + split) for case in tail.cases
        ]
        assert rejoined == whole.cases

    @pytest.mark.parametrize("design", ["all", "non-atomic"])
    def test_cli_summaries_of_the_halves_add_up(self, capsys, design):
        def soak(seeds, seed):
            rc = main(["soak", "queue", "--design", design, "--seeds", str(seeds),
                       "--seed", str(seed), "--json"])
            assert rc == 0
            return json.loads(capsys.readouterr().out)

        whole, head, tail = soak(5, 7), soak(2, 7), soak(3, 9)
        for key in ("cases", "failures", "expected_violations",
                    "recovery_passes", "media_cases", "media_retries"):
            assert head[key] + tail[key] == whole[key], key
        assert whole["failing"] == head["failing"] + tail["failing"] == []
        if design == "non-atomic":
            assert whole["expected_violations"] > 0


def _case(**over) -> SoakCase:
    doc = dict(index=3, seed=10, design="strandweaver", plan_desc="crash@5")
    doc.update(over)
    return SoakCase(**doc)


class TestReplayCommandFlags:
    """Replay one-liners must echo every campaign flag that shapes a case.

    A campaign run with ``--no-media`` draws a *different* plan for the
    same seed, so a replay without the flag chases a different failure
    than the one reported.  Pinned here so the flags can never silently
    drop out of the command again.
    """

    def _result(self, media: bool, shrink: bool) -> SoakResult:
        return SoakResult(
            workload="queue", seed=7, n_seeds=1, media=media,
            designs=["strandweaver"], shrink=shrink,
        )

    def test_default_flags_produce_the_bare_command(self):
        cmd = self._result(media=True, shrink=True).replay_command(_case())
        assert cmd == (
            "python -m repro soak queue --design strandweaver --seeds 1 --seed 10"
        )

    def test_no_media_campaign_echoes_no_media(self):
        cmd = self._result(media=False, shrink=True).replay_command(_case())
        assert "--no-media" in cmd

    def test_no_shrink_campaign_echoes_no_shrink(self):
        cmd = self._result(media=True, shrink=False).replay_command(_case())
        assert "--no-shrink" in cmd

    def test_both_flags_echo_together(self):
        cmd = self._result(media=False, shrink=False).replay_command(_case())
        assert "--no-media" in cmd and "--no-shrink" in cmd

    def test_summary_embeds_the_flagged_replay_for_failures(self):
        result = self._result(media=False, shrink=False)
        result.cases = [_case(violation="queue lost an element", expected=False)]
        (failing,) = result.summary()["failing"]
        assert "--no-media" in failing["replay"]
        assert "--no-shrink" in failing["replay"]


# -- shrinker guard rails ------------------------------------------------


def test_shrink_guard_non_reproducible_plan():
    """A plan that recovers cleanly yields the canonical result, not a
    search (one probe) and not None."""
    harness = CrashHarness("queue", "strandweaver", cfg=CHAOS_CFG)
    from repro.chaos import CrashTrigger, FaultPlan

    plan = FaultPlan(
        trigger=CrashTrigger("cycle", max(1.0, harness.horizon * 0.5)),
        seed=5,
    )
    assert harness.crash_once(plan).ok  # precondition: plan passes
    result = shrink_crash_point(harness, plan)
    assert result is not None
    assert result.reproducible is False
    assert result.minimal_at == plan.trigger.at
    assert result.probes == 1
    assert "not reproducible" in result.describe()
    # The canonical constructor used by other callers agrees.
    canon = not_reproducible(plan)
    assert canon.reproducible is False and canon.kind == plan.trigger.kind
