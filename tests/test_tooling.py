"""The benchmark's traced run wraps package functions by name.

``perfbench/spans.py`` lists them in ``TRACED``; a name that no longer
resolves on the package breaks every traced run.  The file is read and
parsed here, never imported or executed.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
