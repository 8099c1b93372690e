"""The examples must run end to end (they are documentation)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "litmus_semantics.py",
        "crash_recovery.py",
        "redo_logging.py",
        "design_space.py",
    ],
)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_cli_table1():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "simulator specification" in proc.stdout
