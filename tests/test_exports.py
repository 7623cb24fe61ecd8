"""Public surface: every name a module exports in __all__ resolves, and each
public name is declared in exactly one module's __all__."""

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


def test_package_exports_are_the_module_exports():
    declared = [
        export
        for name in MODULES[1:]
        for export in getattr(importlib.import_module(name), "__all__", ())
    ]
    assert len(declared) == len(set(declared))  # no name in two modules
    assert crackbem.__all__ == sorted(declared)
