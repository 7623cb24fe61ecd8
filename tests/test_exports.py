"""Public surface: every name a module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import crackbem

MODULES = ["crackbem"] + [
    f"crackbem.{info.name}" for info in pkgutil.iter_modules(crackbem.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
