"""Public surface: every name a module exports in __all__ resolves, each
public name is declared in exactly one module's __all__, and production code
uses each of them."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import crackbem

ROOT = Path(__file__).resolve().parents[1]
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


def referenced_names() -> set:
    """Every identifier the package, the demos and the benchmark read: the
    Name and Attribute nodes of their code, not strings or docstrings."""
    names = set()
    for folder in ("src/crackbem", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_public_names_are_used_outside_the_tests():
    # code that only tests call belongs in tests/oracles.py, built from
    # public pieces; a name counts as used wherever an identifier spells it
    public = set(crackbem.__all__)
    for name in crackbem.__all__:
        value = getattr(crackbem, name)
        if inspect.isclass(value):
            public |= {
                attr
                for attr, member in vars(value).items()
                if not attr.startswith("_")
                and (inspect.isfunction(member)
                     or isinstance(member, (property, classmethod, staticmethod)))
            }
    assert sorted(public - referenced_names()) == []
