"""Resource-scaling regressions: the engine must survive long runs.

Two paper-scale failure modes are pinned here:

* ``BandwidthResource._windows`` grew one entry per time window for the
  whole run (unbounded memory at paper-length traces) — fixed by
  :meth:`BandwidthResource.prune`, driven periodically by the machine.
* ``BandwidthResource.reserve`` walked every full window linearly under
  saturation (O(windows) per reserve, quadratic per run) — fixed by
  path-compressed skip pointers.

Every fix must be *timing-neutral*: the grant sequence of the skip-jump
reserve is checked against a reference linear scan, and a pruned
machine run — a crash run too — must be bit-identical to an unpruned
one.
"""

import random

import pytest

import repro.sim.machine as machine_mod
from repro.chaos.harness import CHAOS_CFG, canonical_run
from repro.chaos.plan import CrashSchedule
from repro.faults import MediaFaultConfig
from repro.harness.experiment import default_config
from repro.sim.engine import BandwidthResource
from repro.sim.machine import DESIGNS, Machine
from repro.sim.memory import PMController
from repro.workloads import WORKLOADS, generate_for_design
from repro.workloads.base import specialize_run

#: media faults for the op-count crashes of the crash-pruning test.
CRASH_MEDIA = MediaFaultConfig(
    seed=11, write_fail_prob=0.05, ecc_correctable_prob=0.02,
    ecc_uncorrectable_prob=0.002,
)


def _linear_scan_reserve(windows, interval, capacity, t):
    """The pre-fix reserve semantics, as a reference oracle."""
    window = int(max(t, 0.0) / interval)
    while windows.get(window, 0) >= capacity:
        window += 1
    windows[window] = windows.get(window, 0) + 1
    return max(t, window * interval)


class TestSaturatedReserve:
    @pytest.mark.parametrize("capacity", [1, 3])
    def test_grants_identical_to_linear_scan(self, capacity):
        """Skip-pointer jumps must grant exactly what the linear scan
        granted, including under heavy same-window saturation and
        out-of-order arrival times."""
        rng = random.Random(20260808)
        bw = BandwidthResource(8.0, capacity=capacity)
        oracle = {}
        for _ in range(5000):
            # Cluster arrivals so windows saturate and chains form.
            t = float(rng.choice([0, 0, 0, 8, 16, rng.randrange(0, 400)]))
            got = bw.reserve(t)
            want = _linear_scan_reserve(oracle, 8.0, capacity, t)
            assert got == want
        assert bw._windows == oracle

    def test_saturated_reserve_is_amortized_constant(self):
        """After n saturated reserves at t=0 the skip chain from window 0
        must be compressed to a short hop count, not an n-link walk."""
        bw = BandwidthResource(1.0, capacity=1)
        n = 10_000
        for _ in range(n):
            bw.reserve(0.0)
        hops = 0
        w = 0
        while w in bw._skip:
            w = bw._skip[w]
            hops += 1
        assert hops <= 3, f"skip chain from window 0 is {hops} links long"
        # And the grants were the same arithmetic series the scan gives.
        assert bw.reserve(0.0) == float(n)


class TestWindowPruning:
    def test_prune_bounds_window_map(self):
        """A long synthetic run with a trailing low-water mark keeps the
        window map bounded instead of one entry per window forever."""
        bw = BandwidthResource(4.0)
        peak = 0
        for i in range(50_000):
            t = float(i * 4)
            bw.reserve(t)
            if i % 256 == 0:
                bw.prune(t - 64.0)
            peak = max(peak, bw.n_windows)
        assert peak <= 512, f"window map peaked at {peak} entries"
        bw.prune(float(50_000 * 4))
        assert bw.n_windows == 0

    def test_prune_never_changes_grants(self):
        """Pruning below the low-water mark must not perturb any grant
        at or after the mark."""
        rng = random.Random(7)
        base = BandwidthResource(8.0, capacity=2)
        pruned = BandwidthResource(8.0, capacity=2)
        t = 0.0
        for i in range(2000):
            t += rng.random() * 4.0
            jitter = rng.random() * 64.0  # out-of-order future arrivals
            assert base.reserve(t + jitter) == pruned.reserve(t + jitter)
            if i % 100 == 0:
                pruned.prune(t)  # low water: no future arrival precedes t
        assert pruned.n_windows < base.n_windows

    def test_machine_prunes_and_stays_bit_identical(self, monkeypatch):
        """Drive a real cell with an aggressive prune period: the stats
        must match the unpruned replay bit-for-bit, and the controller's
        window maps must end small."""
        # This exercises the reference engine's pruning (the native
        # core owns its own resource maps; its prune neutrality is
        # covered by the cross-engine identity suite).
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        cfg = default_config(ops_per_thread=48)
        run = generate_for_design(WORKLOADS["queue"], cfg, "strandweaver", "txn")

        captured = {}

        class SpyPM(PMController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured["pm"] = self

        monkeypatch.setattr(machine_mod, "PMController", SpyPM)
        monkeypatch.setattr(machine_mod, "PRUNE_PERIOD", 64)
        pruned = Machine("strandweaver").run(run.program)
        pm = captured["pm"]
        assert pm._accept.n_windows < 200
        assert pm._media.n_windows < 200

        monkeypatch.setattr(machine_mod, "PRUNE_PERIOD", 1 << 30)
        baseline = Machine("strandweaver").run(run.program)
        assert pruned.summary() == baseline.summary()
        assert [c.__dict__ for c in pruned.per_core] == [
            c.__dict__ for c in baseline.per_core
        ]

    @pytest.mark.parametrize("workload", ["queue", "hashmap", "tpcc"])
    def test_crash_runs_prune_without_changing_the_crash(self, workload, monkeypatch):
        """Crash runs prune like every run.  Crashing every design at 0.9
        of the run — by cycle, and by op count under media faults — with
        an aggressive prune period leaves the same crash as an unpruned
        replay, on the reference engine and on the default tier (the
        native core, for both plans), and the reference controller's
        window maps end small."""
        captured = {}

        class SpyPM(PMController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured["pm"] = self

        monkeypatch.setattr(machine_mod, "PMController", SpyPM)
        canonical = canonical_run(workload, CHAOS_CFG)
        for design in DESIGNS:
            program = specialize_run(canonical, design).program
            horizon = Machine(design).run(program).cycles
            total_ops = sum(len(t) for t in program.threads)
            for schedule in (
                CrashSchedule("cycle", 0.9, seed=0),
                CrashSchedule("ops", 0.9, seed=0, media=CRASH_MEDIA),
            ):
                plan = schedule.concretise(horizon, total_ops)
                crashes = []
                for period in (64, 1 << 30):
                    monkeypatch.setattr(machine_mod, "PRUNE_PERIOD", period)
                    for reference in ("1", ""):
                        monkeypatch.setenv("REPRO_SIM_REFERENCE", reference)
                        stats = Machine(design).run(program, fault_plan=plan)
                        crash = stats.crash
                        crashes.append((
                            crash.cycle,
                            [(r.op.tid, r.op.seq, r.source, r.durable)
                             for r in crash.durable],
                            [(r.op.tid, r.op.seq) for r in crash.in_flight],
                            stats.faults,
                        ))
                        if period == 64 and reference:
                            pm = captured.pop("pm")
                            assert pm._accept.n_windows < 200, (design, schedule.kind)
                            assert pm._media.n_windows < 200, (design, schedule.kind)
                assert crashes[1:] == crashes[:1] * 3, (design, schedule.kind)
