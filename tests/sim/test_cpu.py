"""CoreEngine-level tests: ROB pressure, store gating, CLWB-after-store."""

from repro.core.ops import Program, TraceCursor
from repro.sim.cpu import CoreEngine
from repro.sim.machine import Machine, run_design
from repro.sim.config import MachineConfig
from dataclasses import replace


def test_rob_pressure_throttles_dispatch():
    """With a tiny ROB, a long-latency op holds dispatch back."""
    small_rob = replace(
        MachineConfig(n_cores=1),
        core=replace(MachineConfig().core, rob_entries=4),
    )
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for i in range(40):
        cur.store(i * 64, b"\x01" * 8)
        cur.clwb(i * 64)
    small = Machine("no-persist-queue", small_rob).run(prog)

    prog2 = Program(1)
    cur = TraceCursor(prog2, 0)
    for i in range(40):
        cur.store(i * 64, b"\x01" * 8)
        cur.clwb(i * 64)
    big = Machine("no-persist-queue", MachineConfig(n_cores=1)).run(prog2)
    assert small.cycles >= big.cycles


def test_clwb_waits_for_store_retirement():
    """A CLWB of a line may not depart before its store reached the L1."""
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x01" * 8)
    cur.clwb(0)
    stats = run_design("strandweaver", prog)
    # Ack latency (192) must be fully serialised after the store.
    assert stats.cycles >= 192


def test_store_gate_after_persist_barrier():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.store(0, b"\x01" * 8)
    cur.clwb(0)
    cur.persist_barrier()
    cur.store(64, b"\x01" * 8)  # gated on the CLWB's *issue*, not its ack
    cur.clwb(64)
    cur.join_strand()
    stats = run_design("strandweaver", prog)
    # The chain is two acks deep (log then data), not more.
    assert 2 * 192 <= stats.cycles < 4 * 192


def test_compute_advances_clock_exactly():
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    cur.compute(5000)
    stats = run_design("non-atomic", prog)
    assert 5000 <= stats.cycles < 5100


def test_each_op_costs_a_fixed_dispatch_slot():
    """The front end charges every op ``DISPATCH_COST`` on top of its own
    latency: at most four ops per cycle."""
    assert CoreEngine.DISPATCH_COST == 0.25
    prog = Program(1)
    cur = TraceCursor(prog, 0)
    for _ in range(400):
        cur.compute(1)
    stats = run_design("non-atomic", prog)
    assert stats.cycles == 400 * (1 + CoreEngine.DISPATCH_COST)


def test_cold_accesses_read_pm():
    """Without a warm L2, a store and a load of lines never touched before
    each read their line from PM; with it, neither does."""
    def program():
        prog = Program(1)
        cur = TraceCursor(prog, 0)
        cur.store(0, b"\x01" * 8)
        cur.load(64, 8)
        return prog

    cold = Machine("non-atomic", MachineConfig(n_cores=1)).run(program(), warm=False)
    warm = Machine("non-atomic", MachineConfig(n_cores=1)).run(program())
    for stats in (cold, warm):
        assert (stats.total.stores, stats.total.loads) == (1, 1)
    assert cold.total.pm_reads == 2
    assert warm.total.pm_reads == 0
    assert cold.cycles > warm.cycles
