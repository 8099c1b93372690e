"""Every module under ``repro`` imports, so a dangling import of a
deleted module fails here even where no linter or type checker runs."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_modules_are_found():
    assert "repro.sim.machine" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    importlib.import_module(module)
