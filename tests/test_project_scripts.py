"""Every console script that ``pyproject.toml`` declares points at a
callable that imports."""

import importlib

import pytest

from conftest import REPO

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11


def test_every_declared_script_target_imports():
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
