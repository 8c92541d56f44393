"""Names that other files reach the package by, and the package's own
import graph.

The benchmark's traced run wraps package functions by name:
``perfbench/spans.py`` lists them in ``TRACED``, and a name that no longer
resolves on the package breaks every traced run.  The demos import from
the package root, so each name they import must be exported there, and
every name in an ``__all__`` must resolve.  Those files are read and
parsed here, never imported or executed.

The two sides of the graph/matrix dictionary are independent oracles only
while they share no code, so the modules each module imports from the
package are pinned in ``IMPORT_GRAPH``.

Every option of the command line is a setting that the tests and the
benchmark must cover, so the options of each subcommand are pinned in
``CLI_OPTIONS``: adding or dropping one is an edit there.

The matrix records of ``verify`` walk the acyclic digraphs at n <= 4 on
adjacency-row tuples decoded from their codes; building a value object per
graph doubled the time of a ``verify --n-max 5`` run, so they are required
here to build none, without timing anything.  They map each DAG once and
no other graph, so the calls of each dictionary map are counted too.

Every run of the command line pays for what ``cubecovers.cli`` imports, so
the worker pool, which only ``verify --jobs`` above 1 uses, is required to
stay off that path.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cubecovers
from cubecovers import (BitMatrix, Digraph, checks, cli, correspondence, count_dags,
                        is_acyclic_dfs)

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "cubecovers"

IMPORT_GRAPH = {
    "gf2": set(),
    "digraph": set(),
    "counting": set(),
    "asymptotics": set(),
    "series": {"counting"},
    "correspondence": {"digraph", "gf2"},
    "checks": {"correspondence", "counting", "digraph", "gf2", "series"},
    "cli": {"asymptotics", "checks", "correspondence", "counting", "digraph"},
    "__main__": {"cli"},
    "__init__": {"asymptotics", "correspondence", "counting", "digraph", "gf2",
                 "series"},
}


CLI_OPTIONS = {
    "count": ["kind", "--n"],
    "table": ["--max-n", "--format"],
    "enumerate": ["--n", "--orientable", "--matrices", "--format", "--enum-cap"],
    "verify": ["--n-max", "--series-order", "--order", "--series", "--jobs",
               "--enum-cap", "--format"],
    "constants": ["--digits", "--format"],
    "asymptotic": ["--n", "--digits", "--format"],
}


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


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, anywhere in
    its body, by absolute or relative import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: the package is the only parent
                module = f"cubecovers.{module}" if module else "cubecovers"
            # ``from cubecovers import x`` names the module x.
            names = ([f"cubecovers.{alias.name}" for alias in node.names]
                     if module == "cubecovers" else [module])
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("cubecovers."))
    return found


def test_package_imports_follow_the_dictionary():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(IMPORT_GRAPH)
    for name, path in sorted(modules.items()):
        assert package_imports(path) == IMPORT_GRAPH[name], name


def test_cli_options_are_pinned():
    options = {
        name: [opt for param in command.params for opt in param.opts]
        for name, command in cli.main.commands.items()
    }
    assert options == CLI_OPTIONS


def test_verify_builds_no_value_object_per_graph(monkeypatch):
    built = []
    for cls in (Digraph, BitMatrix):
        init = cls.__post_init__

        def counted(self, init=init):
            built.append(type(self))
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    records = checks.verify_checks(4, 4, False, 1, 6)
    assert all(record["pass"] for record in records)
    # Neither the 573 DAGs at n <= 4 nor the grown members.
    assert built == []


def test_verify_maps_each_dag_once_and_no_other_graph(monkeypatch):
    calls = {"characteristic_rows": [], "adjacency_rows": []}
    for name in calls:
        def counted(rows, n, name=name, kernel=getattr(correspondence, name)):
            out = kernel(rows, n)
            # The graph side of the call: its input forward, its output back.
            calls[name].append(Digraph(n, rows if name == "characteristic_rows" else out))
            return out

        monkeypatch.setattr(correspondence, name, counted)
    records = checks.verify_checks(4, 4, False, 1, 6)
    assert all(record["pass"] for record in records)
    for name, graphs in calls.items():
        assert len(graphs) == 573, name  # D(0) + .. + D(4)
        for n in range(5):
            assert sum(g.n == n for g in graphs) == count_dags(n), (name, n)
        assert len(set(graphs)) == 573, name
        assert all(map(is_acyclic_dfs, graphs)), name


def test_the_worker_pool_is_not_imported_at_start_up():
    # concurrent.futures also pulls in logging; only brute_counts(jobs > 1)
    # needs it.
    probe = "import sys, cubecovers.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
