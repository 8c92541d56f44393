"""Spans around the public functions of each cubecovers module.

The package has no tracing of its own, so the traced run wraps its public
entry points from outside: :func:`tracing` swaps each function in
:data:`TRACED` (in every ``cubecovers`` module that imported it by name)
for a wrapper that opens a span, and puts the originals back on exit.

A span records its name, start, end, parent span and self time.  Self time
is kept exactly by charging the clock, at every span entry and exit, to the
span on top of the stack; a generator's span is on the stack only while the
generator runs, so time its consumer spends between items is not charged to
it.  Spans stay in memory until the traced operation ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

# Wrapped functions, by module.  Each metric below names one or more of
# them; the module of a span is its layer.
TRACED = {
    "counting": ["count_dags", "count_orientable_dags", "sequence_table"],
    "correspondence": [
        "brute_counts",
        "brute_count_characteristic_matrices",
        "brute_count_orientable_characteristic_matrices",
        "unit_diagonal_matrices",
        "characteristic_matrix",
        "digraph_from_characteristic",
    ],
    "digraph": ["enumerate_digraphs", "enumerate_acyclic", "is_acyclic_dfs"],
    "gf2": ["BitMatrix.has_unit_principal_minors"],
    "series": [
        "verify_identities",
        "orientable_from_quotient",
        "derivative_identity_first_failure",
    ],
    "asymptotics": ["compute_constants"],
}

# Name of the root span of an operation that goes through the CLI.
CLI_SPAN = "cli.main"

MATRIX_BRUTEFORCE = (
    "correspondence.brute_count_characteristic_matrices",
    "correspondence.brute_count_orientable_characteristic_matrices",
    "correspondence.unit_diagonal_matrices",
)
ENUMERATORS = ("digraph.enumerate_digraphs", "digraph.enumerate_acyclic")


class Span:
    __slots__ = ("name", "parent", "start", "end", "self_s", "attrs")

    def __init__(self, name: str, parent: int | None, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.self_s = 0.0
        self.attrs: dict = {}

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "attrs": self.attrs,
        }


class Tracer:
    """Span store for one traced operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._last = perf_counter()

    def _charge(self) -> float:
        now = perf_counter()
        if self._stack:
            self.spans[self._stack[-1]].self_s += now - self._last
        self._last = now
        return now

    def open(self, name: str) -> int:
        now = self._charge()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, now))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def resume(self, index: int) -> None:
        self._charge()
        self._stack.append(index)

    def suspend(self, index: int) -> None:
        self.spans[index].end = self._charge()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    close = suspend

    def records(self) -> list[dict]:
        return [span.as_record() for span in self.spans]


def _annotate(name: str, fn, args: tuple, kwargs: dict, result) -> dict:
    """Counts recorded on a span, taken from the call's arguments and result."""
    if name == "correspondence.brute_counts":
        call = inspect.signature(fn).bind(*args, **kwargs)
        call.apply_defaults()
        n, start, stop, jobs = (
            call.arguments[k] for k in ("n", "start", "stop", "jobs")
        )
        if stop is None:
            stop = 1 << (n * (n - 1))
        return {
            "codes": stop - start,
            "dags": result.dags,
            "workers": min(jobs, stop - start) or 1,
        }
    if name in ("counting.count_dags", "counting.count_orientable_dags"):
        return {"bits": result.bit_length()}
    if name == "gf2.BitMatrix.has_unit_principal_minors":
        return {"passed": int(result)}
    if name in ("series.verify_identities", "series.orientable_from_quotient"):
        return {"order": inspect.signature(fn).bind(*args, **kwargs).arguments["order"]}
    if name == "asymptotics.compute_constants":
        return {"newton_iterations": result.newton_iterations}
    return {}


def _wrap_function(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index].attrs = _annotate(name, fn, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        index = None
        try:
            while True:
                if index is None:
                    index = tracer.open(name)
                    tracer.spans[index].attrs = {"items": 0}
                else:
                    tracer.resume(index)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.suspend(index)
                tracer.spans[index].attrs["items"] += 1
                yield item
        finally:
            inner.close()

    return wrapper


def _targets(module_name: str, qualified: str):
    """Yield (owner, attribute) for the function and every name bound to it."""
    module = importlib.import_module(f"cubecovers.{module_name}")
    if "." in qualified:
        class_name, attr = qualified.split(".")
        yield getattr(module, class_name), attr
        return
    original = getattr(module, qualified)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name != "cubecovers" and not loaded_name.startswith("cubecovers."):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                yield loaded, attr


@contextlib.contextmanager
def tracing():
    """Install the wrappers for the duration of the block, then remove them.

    Yields the :class:`Tracer` that collects the spans.
    """
    tracer = Tracer()
    saved = []
    try:
        for module_name, names in TRACED.items():
            for qualified in names:
                name = f"{module_name}.{qualified}"
                for owner, attr in _targets(module_name, qualified):
                    original = vars(owner)[attr]
                    wrap = (
                        _wrap_generator
                        if inspect.isgeneratorfunction(original)
                        else _wrap_function
                    )
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics from one operation's spans
# ----------------------------------------------------------------------

def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("yield", "ratio"),
                         ("_share", "ratio"), ("_bits", "bits"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[dict], output: bytes) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``spans`` are :meth:`Tracer.records` and ``output`` is what the
    operation's CLI calls printed (empty for a library operation).  The CLI's
    self time is its root span minus the library spans under it.  A layer
    that did not run reports 0.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self_s"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1

    def total(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def attr_max(names: tuple[str, ...], key: str) -> int:
        return max(
            (s["attrs"].get(key, 0) for s in spans if s["name"] in names), default=0
        )

    counting = ("counting.count_dags", "counting.count_orientable_dags")
    brute_s = total("correspondence.brute_counts")
    codes = attr_sum("correspondence.brute_counts", "codes")
    oracle = "gf2.BitMatrix.has_unit_principal_minors"
    oracle_calls = calls.get(oracle, 0)
    scanned = attr_sum("digraph.enumerate_digraphs", "items")
    acyclic_scanned = sum(
        s["attrs"].get("items", 0)
        for s in spans
        if s["name"] == "digraph.enumerate_digraphs"
        and s["parent"] is not None
        and spans[s["parent"]]["name"] == "digraph.enumerate_acyclic"
    )
    return {
        "counting.count_dags_s": total("counting.count_dags"),
        "counting.count_orientable_dags_s": total("counting.count_orientable_dags"),
        "counting.calls": sum(calls.get(name, 0) for name in counting),
        "counting.result_bits": attr_max(counting, "bits"),
        "correspondence.brute_counts_s": brute_s,
        "correspondence.codes_scanned": codes,
        "correspondence.codes_per_s": _ratio(codes, brute_s),
        "correspondence.dag_yield": _ratio(
            attr_sum("correspondence.brute_counts", "dags"), codes
        ),
        "correspondence.workers": attr_max(("correspondence.brute_counts",), "workers"),
        "correspondence.matrix_bruteforce_s": total(*MATRIX_BRUTEFORCE),
        "correspondence.characteristic_matrix_s": total(
            "correspondence.characteristic_matrix"
        ),
        "correspondence.characteristic_matrix_calls": calls.get(
            "correspondence.characteristic_matrix", 0
        ),
        "gf2.unit_minor_oracle_s": total(oracle),
        "gf2.unit_minor_oracle_calls": oracle_calls,
        "gf2.unit_minor_yield": _ratio(attr_sum(oracle, "passed"), oracle_calls),
        "digraph.enumerate_s": total(*ENUMERATORS),
        "digraph.codes_scanned": scanned,
        "digraph.acyclic_yield": _ratio(
            attr_sum("digraph.enumerate_acyclic", "items"), acyclic_scanned
        ),
        "series.verify_identities_s": total("series.verify_identities"),
        "series.orientable_from_quotient_s": total("series.orientable_from_quotient"),
        "series.derivative_identity_s": total(
            "series.derivative_identity_first_failure"
        ),
        "series.order": attr_max(
            ("series.verify_identities", "series.orientable_from_quotient"), "order"
        ),
        "asymptotics.compute_constants_s": total("asymptotics.compute_constants"),
        "asymptotics.newton_iterations": attr_max(
            ("asymptotics.compute_constants",), "newton_iterations"
        ),
        "cli.self_s": total(CLI_SPAN),
        "cli.output_bytes": len(output),
        "cli.output_lines": output.count(b"\n"),
    }


def layer_shares(spans: list[dict], op_s: float) -> dict[str, float]:
    """Share of the operation's wall time spent in each module's own code.

    ``harness`` is the rest: wall time outside every span.
    """
    seconds: dict[str, float] = {}
    for span in spans:
        layer = span["name"].split(".")[0]
        seconds[layer] = seconds.get(layer, 0.0) + span["self_s"]
    seconds["harness"] = max(op_s - sum(seconds.values()), 0.0)
    return {layer: _ratio(value, op_s) for layer, value in seconds.items()}
