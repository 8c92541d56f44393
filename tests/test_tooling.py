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
package are pinned in ``IMPORT_GRAPH``.  The series identities are an
oracle for the counts only while they read nothing of the counting pass
but its results, so ``series.py`` may import from ``cubecovers.counting``
the two counters and nothing else: not the memo, not the module.

Every option of the command line is a setting that the tests and the
benchmark must cover, so the options of each subcommand are pinned in
``CLI_OPTIONS``: adding or dropping one is an edit there.

The matrix records of ``verify`` take the acyclic digraphs of each n <= 4
as one batch packed into one int; building a value object per graph
doubled the time of a ``verify --n-max 5`` run, so they are required here
to build none and to call each batch kernel once per n on every DAG of
that n, without timing anything.  They map each DAG once and no other
graph, so the graphs in each batch of the dictionary maps are read back
too.

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
                        digraph, gf2, is_acyclic_dfs)

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


def test_series_reads_counting_only_through_the_two_counters():
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "series.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names
                            if alias.name.startswith("cubecovers.counting"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"cubecovers.{module}" if module else "cubecovers"
            if module == "cubecovers.counting":
                imported.update(alias.name for alias in node.names)
            elif module == "cubecovers":
                # ``from cubecovers import counting`` takes the whole module.
                imported.update(f"cubecovers.{alias.name}" for alias in node.names
                                if alias.name == "counting")
    assert imported == {"count_dags", "count_orientable_dags"}


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
    batches = []
    for module, name in ((correspondence, "characteristic_slots"),
                         (correspondence, "adjacency_slots"),
                         (gf2, "odd_column_slots")):
        def batch(word, n, k=1, name=name, kernel=getattr(module, name)):
            batches.append((name, n, k))
            return kernel(word, n, k)

        monkeypatch.setattr(module, name, batch)
    even = digraph.even_out_degree_slots

    def even_batch(word, n, stride, starts):
        batches.append(("even_out_degree_slots", n, starts.bit_count()))
        return even(word, n, stride, starts)

    monkeypatch.setattr(digraph, "even_out_degree_slots", even_batch)
    records = checks.verify_checks(4, 4, False, 1, 6)
    assert all(record["pass"] for record in records)
    # Neither the 573 DAGs at n <= 4 nor the grown members.
    assert built == []
    # No batch of one either: each kernel takes all D(n) DAGs of an n at
    # once, and the column parities also all D(n) members.
    assert sorted(batches) == sorted(
        (name, n, count_dags(n)) for n in range(5)
        for name in ("characteristic_slots", "adjacency_slots", "odd_column_slots",
                     "odd_column_slots", "even_out_degree_slots"))


def test_verify_maps_each_dag_once_and_no_other_graph(monkeypatch):
    calls = {"characteristic_slots": [], "adjacency_slots": []}
    for name in calls:
        def counted(word, n, k=1, name=name, kernel=getattr(correspondence, name)):
            out = kernel(word, n, k)
            # The graph side of the batch, slot by slot: its input forward,
            # its output back.
            graphs = word if name == "characteristic_slots" else out
            calls[name].append([Digraph(n, gf2.unpack_rows(rows, n))
                                for rows in gf2.split_slots(graphs, n, k)])
            return out

        monkeypatch.setattr(correspondence, name, counted)
    records = checks.verify_checks(4, 4, False, 1, 6)
    assert all(record["pass"] for record in records)
    for name, batches in calls.items():
        # One batch per n, D(0) + .. + D(4) = 573 graphs in all.
        assert [len(graphs) for graphs in batches] == [count_dags(n) for n in range(5)]
        for n, graphs in enumerate(batches):
            assert all(g.n == n for g in graphs), (name, n)
            # Each DAG once, in slots of increasing code.
            codes = [g.code() for g in graphs]
            assert codes == sorted(set(codes)), (name, n)
            assert all(map(is_acyclic_dfs, graphs)), (name, n)


def test_the_worker_pool_is_not_imported_at_start_up():
    # concurrent.futures also pulls in logging; only brute_counts(jobs > 1)
    # needs it.
    probe = "import sys, cubecovers.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
