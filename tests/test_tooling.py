"""Names that other files reach the package by.

The benchmark's traced run wraps package functions by name:
``perfbench/spans.py`` lists them in ``TRACED``, and a name that no longer
resolves on the package breaks every traced run.  The demos import from
the package root, so each name they import must be exported there, and
every name in an ``__all__`` must resolve.  Those files are read and
parsed here, never imported or executed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import cubecovers

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def traced_names() -> dict[str, list[str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_every_traced_name_resolves_on_the_package():
    traced = traced_names()
    assert traced
    for module_name, names in traced.items():
        owner = importlib.import_module(f"cubecovers.{module_name}")
        for qualified in names:
            value = owner
            for part in qualified.split("."):
                assert hasattr(value, part), f"cubecovers.{module_name}.{qualified}"
                value = getattr(value, part)
            assert callable(value), f"cubecovers.{module_name}.{qualified}"


def test_every_exported_name_resolves():
    modules = [cubecovers] + [
        importlib.import_module(f"cubecovers.{info.name}")
        for info in pkgutil.iter_modules(cubecovers.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_name_the_demos_import_is_exported():
    imported = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "cubecovers":
                imported.update(alias.name for alias in node.names)
    assert imported
    assert imported <= set(cubecovers.__all__), imported - set(cubecovers.__all__)
