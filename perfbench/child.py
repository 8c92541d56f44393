"""Run one benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``calls``, a list of operations to run in order, ``trace``
and ``report``, the path the measurements are written to.  A call is either
``["cli", arg, ...]``, run through ``cubecovers.cli.main``, or
``["sequence_table", max_n]``, the library call.  What the calls print goes
to this process's standard output; the library call's table is printed
after the timed region, as hexadecimal.  An empty ``calls`` list only
measures start-up.

The report holds ``ready`` (the monotonic clock when ``import
cubecovers.cli`` finished, so the parent can subtract its spawn time),
``op_s``, ``ref_s``, ``exit_code``, ``peak_rss_kib`` (taken when the calls
end) and, when traced, the spans.  ``ref_s`` is the mean time of a fixed
reference computation (``reference_s``), run once just before and once just
after the calls; it is absent when ``calls`` is empty.
"""

import time

import cubecovers.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402  (this file's directory is first on sys.path)


def _peak_rss_kib() -> int:
    # VmHWM is the peak of this process's own memory map.  ru_maxrss would
    # also count the parent's resident size at fork time.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_s() -> float:
    """Seconds this process takes for a fixed pure-Python computation that
    uses no package code: a small-integer loop and big-integer products,
    the two kinds of arithmetic the operations do.  It takes about 0.1 s."""
    start = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i * i
    big = 3 ** 20_000
    for i in range(180):
        total ^= big * (big + i)
    return time.perf_counter() - start


def _run_cli(args: list[str]) -> int:
    try:
        cubecovers.cli.main(args, prog_name="cubecovers")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI's own uncaught failure: report it as Python would
        traceback.print_exc()
        return 1
    return 0


def _run(calls: list, tracer) -> tuple[int, list]:
    """Run the calls in order; stop at the first nonzero exit."""
    tables = []
    for kind, *args in calls:
        if kind == "cli":
            index = tracer.open(spans.CLI_SPAN) if tracer else None
            try:
                code = _run_cli(args)
            finally:
                if tracer:
                    tracer.close(index)
            sys.stdout.flush()
        elif kind == "sequence_table":
            tables.append(cubecovers.counting.sequence_table(*args))
            code = 0
        else:
            raise ValueError(f"unknown call kind {kind!r}")
        if code:
            return code, tables
    return 0, tables


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = {"ready": READY}
    before = reference_s() if spec["calls"] else 0.0
    with spans.tracing() if spec["trace"] else contextlib.nullcontext() as tracer:
        start = time.monotonic()
        code, tables = _run(spec["calls"], tracer)
        report["op_s"] = time.monotonic() - start
    if spec["calls"]:
        report["ref_s"] = (before + reference_s()) / 2
    report["peak_rss_kib"] = _peak_rss_kib()
    report["exit_code"] = code
    if tracer:
        report["spans"] = tracer.records()
    for rows in tables:
        for n, d, v in rows:
            sys.stdout.write(f"{n} {d:x} {v:x}\n")
    sys.stdout.flush()
    with open(spec["report"], "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
