"""Shared fixtures for the StrandWeaver reproduction test suite."""

import random

import pytest

from repro.core.ops import Program, TraceCursor
from repro.pmem.space import PersistentMemory
from repro.workloads import WorkloadConfig


@pytest.fixture
def pm() -> PersistentMemory:
    space = PersistentMemory(1 << 16)
    space.mark_clean()
    return space


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_cfg() -> WorkloadConfig:
    """A fast workload configuration for functional tests."""
    return WorkloadConfig(
        n_threads=4, ops_per_thread=12, log_entries=1024, pm_size=1 << 21
    )


def single_thread_program() -> tuple:
    prog = Program(1)
    return prog, TraceCursor(prog, 0)


@pytest.fixture
def usage_error(capsys):
    """``usage_error(argv)`` runs ``python -m repro argv`` in process,
    asserts argparse refuses it with exit status 2, and returns stderr."""
    from repro.__main__ import main

    def run(argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    return run
