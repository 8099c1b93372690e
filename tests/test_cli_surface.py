"""Command-line surface: ``repro sweep`` is the one campaign runner, so the
campaign-service commands and the options only they read are gone."""

import importlib.util

import pytest

from repro.__main__ import COMMANDS, main

SERVICE_COMMANDS = ("serve", "submit")
SERVICE_OPTIONS = (
    "--dir", "--host", "--port", "--resume", "--drain", "--worker-budget",
    "--rate", "--burst", "--url", "--follow", "--no-wait", "--status",
    "--cancel",
)


@pytest.mark.parametrize("command", SERVICE_COMMANDS)
def test_service_command_is_rejected(command, capsys):
    assert command not in COMMANDS
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("option", SERVICE_OPTIONS)
def test_service_option_is_rejected(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--workloads", "queue", "--designs", "strandweaver",
              "--ops", "2", option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_service_package_is_gone():
    assert importlib.util.find_spec("repro.service") is None
