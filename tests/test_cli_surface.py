"""Command-line surface: commands, options and modules that no result
reads are gone — the campaign service (``repro sweep`` is the one
campaign runner), the phase profiler behind ``repro profile``, SARIF
export and the standalone cut verifier."""

import importlib.util

import pytest

from repro.__main__ import COMMANDS, main

DELETED_COMMANDS = ("serve", "submit", "profile")
DELETED_OPTIONS = (
    "--dir", "--host", "--port", "--resume", "--drain", "--worker-budget",
    "--rate", "--burst", "--url", "--follow", "--no-wait", "--status",
    "--cancel", "--format", "--sort", "--top", "--compare",
)
DELETED_MODULES = (
    "repro.service",
    "repro.prof.phases",
    "repro.prof.wallclock",
    "repro.analysis.sarif",
    "repro.core.verify",
)


@pytest.mark.parametrize("command", DELETED_COMMANDS)
def test_deleted_command_is_rejected(command, capsys):
    assert command not in COMMANDS
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("option", DELETED_OPTIONS)
def test_deleted_option_is_rejected(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--workloads", "queue", "--designs", "strandweaver",
              "--ops", "2", option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_deleted_module_is_gone(module):
    assert importlib.util.find_spec(module) is None
