"""The cubecovers benchmark: four oracle-checked workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 90

One closed-loop client runs one operation at a time, each in a fresh
interpreter (``perfbench/child.py``) with the package imported from
``src/``, so every operation starts with cold caches and pays its own
import, as a CLI user does.  The loop starts operations until their wall
time adds up to ``--seconds``.  After each operation, outside the timed
region, an oracle gate (``gates.py``) checks its output; a nonzero exit, an
exception, a timeout or a gate mismatch counts as a failed operation.

With ``--trace 0`` a run reports, on its last line, ``setup_s`` (process
start until ``import cubecovers.cli`` has finished, over every operation and
ten start-up-only processes), ``op_ref_median`` and ``peak_rss_mb``.
``op_ref`` is an operation's wall time over the time the same process takes
for a fixed reference computation of the benchmark's own, run just before
and just after the operation (``child.reference_s``).  On a shared 2-core
host the CPU throughput drifted by a fifth or more within a minute; the
ratio cancels most of that drift, so it is the figure the bounds apply to.  Before the
last line the run prints the wall times themselves, ``op_s_median`` and
``ref_s_median``, then ``op_s_tail`` (the highest percentile with at least
ten samples beyond it, so none below eleven samples) and
``ops_failed_share``.
The exact-table workload also runs its CLI form once per run; that probe is
reported on its own line and is not an operation.  With ``--trace 1``
operations alternate between untraced and traced (``spans.py``), and the
run reports the per-layer metrics of the traced ones and the tracing
overhead.  The inputs are fixed by the paper; the seed only shuffles the
run order, which is printed with the other provenance.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
WORK_ROOT = ROOT / ".perfbench_runs"

SETUP_PROBES = 10
OP_TIMEOUT_S = 60.0

VERIFY_CALL = ["cli", "verify", "--n-max", "5", "--series-order", "12",
               "--format", "json"]
TABLE_MAX_N = 300
ENUMERATE_CALL = ["cli", "enumerate", "--n", "5", "--matrices", "--format", "json"]
SERIES_CALLS = [
    ["cli", "verify", "--series", "--series-order", "200", "--format", "json"],
    ["cli", "constants", "--format", "json"],
]
# The CLI form of the exact-table operation.  It runs once per run, with
# the interpreter's default int-to-str limit, and is reported on its own:
# its time is in no timing metric and its failures are not operations'.
TABLE_PROBE = ["cli", "table", "--max-n", str(TABLE_MAX_N), "--format", "csv"]

WORKLOAD_NAMES = ["verify-bruteforce", "exact-table", "enumerate-stream",
                  "series-identities"]


def workload(name: str):
    """(calls of one operation, its gate, (probe calls, probe gate) or None)."""
    import gates

    if name == "verify-bruteforce":
        return [VERIFY_CALL], gates.check_verify, None
    if name == "exact-table":
        oracle = gates.table_oracle(TABLE_MAX_N)
        sha = gates.EXPECTED["table_sha256"]
        return (
            [["sequence_table", TABLE_MAX_N]],
            lambda code, out: gates.check_table(code, out, oracle, sha),
            ([TABLE_PROBE], lambda code, out: gates.check_table_probe(code, out, sha)),
        )
    if name == "enumerate-stream":
        sha = gates.EXPECTED["enumerate_sha256"]
        return (
            [ENUMERATE_CALL],
            lambda code, out: gates.check_enumerate(code, out, 5, 29281, sha),
            None,
        )
    if name == "series-identities":
        return SERIES_CALLS, gates.check_series, None
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# one child process
# ----------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def spawn(calls: list, trace: bool, work_dir: Path) -> dict:
    """Run one child to completion; return its measurements and output."""
    out_path = work_dir / "stdout"
    err_path = work_dir / "stderr"
    report_path = work_dir / "report.json"
    report_path.unlink(missing_ok=True)
    spec = json.dumps({"calls": calls, "trace": trace, "report": str(report_path)})
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), spec],
            stdout=out, stderr=err, env=_child_env(), cwd=ROOT,
        )
        try:
            proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        ended = time.monotonic()
    result = {
        "wall_s": ended - spawned,
        "output": out_path.read_bytes(),
        "stderr_tail": (err_path.read_text(errors="replace").strip().splitlines()
                        or [""])[-1],
        "problem": None,
    }
    if timed_out:
        result["problem"] = f"timed out after {OP_TIMEOUT_S:.0f} s"
        return result
    try:
        report = json.loads(report_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        result["problem"] = (f"no report, exit code {proc.returncode}: "
                             f"{result['stderr_tail']}")
        return result
    result.update(
        setup_s=report["ready"] - spawned,
        op_s=report["op_s"],
        op_ref=report["op_s"] / report["ref_s"] if "ref_s" in report else None,
        ref_s=report.get("ref_s"),
        peak_rss_mb=report["peak_rss_kib"] * 1024 / 1e6,
        exit_code=report["exit_code"],
        spans=report.get("spans"),
    )
    return result


def gated(gate, result: dict, verdicts: dict) -> dict:
    """Apply the gate; identical outputs get the verdict computed first."""
    if result["problem"] is None:
        key = (result["exit_code"], hashlib.sha256(result["output"]).digest())
        if key not in verdicts:
            try:
                verdicts[key] = gate(result["exit_code"], result["output"])
            except Exception as exc:  # malformed output is a failed operation
                verdicts[key] = f"unreadable output: {exc!r}"
        result["problem"] = verdicts[key]
    if result["problem"] and result.get("exit_code"):
        result["problem"] += f" ({result['stderr_tail']})"
    return result


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None with ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def provenance(seed: int, order: list[str]) -> dict:
    import cubecovers

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "package_version": cubecovers.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "run_order": order,
    }


def git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def timed_run(name: str, seed: int, seconds: int, work_dir: Path) -> dict:
    calls, gate, probe = workload(name)
    rng = random.Random(seed)
    extras = ["setup"] * SETUP_PROBES + (["probe"] if probe else [])
    rng.shuffle(extras)
    verdicts: dict = {}
    order: list[str] = []
    ops: list[dict] = []
    setups: list[float] = []
    probes: list[dict] = []
    measured = 0.0
    while measured < seconds or extras:
        if extras:
            kind = extras.pop()
            order.append(kind)
            if kind == "setup":
                result = spawn([], False, work_dir)
            else:
                result = gated(probe[1], spawn(probe[0], False, work_dir), {})
                probes.append(result)
            if "setup_s" in result:
                setups.append(result["setup_s"])
        if measured < seconds:
            order.append("op")
            result = gated(gate, spawn(calls, False, work_dir), verdicts)
            measured += result["wall_s"]
            ops.append(result)
            if "setup_s" in result:
                setups.append(result["setup_s"])

    good = [r for r in ops if not r["problem"]]
    times = [r["op_s"] for r in good]
    failed = [r for r in ops if r["problem"]]
    print(f"provenance {json.dumps(provenance(seed, order))}")

    def median(key: str) -> float:
        return statistics.median(r[key] for r in good) if good else 0.0

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ref_median": (median("op_ref"), "ref"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    shown = dict(metrics, op_s_median=(median("op_s"), "s"),
                 ref_s_median=(median("ref_s"), "s"))
    counts = {"setup_s": len(setups)}
    for metric, (value, unit) in shown.items():
        print(f"{name:<18} {metric:<17} {value:>12.6f} {unit:<5} "
              f"median of {counts.get(metric, len(good))} samples")
    high = tail(times)
    if high:
        print(f"{name:<18} {'op_s_tail':<17} {high[0]:>12.6f} {'s':<5} "
              f"p{high[1]:.1f} of {len(times)} samples")
    else:
        print(f"{name:<18} {'op_s_tail':<17} {'n/a':>12} {'s':<5} "
              f"{len(times)} samples; a tail needs at least 11")
    print(f"{name:<18} {'ops_failed_share':<17} {len(failed) / len(ops):>12.6f} "
          f"{'ratio':<5} {len(failed)} of {len(ops)} operations failed")
    for r in failed:
        print(f"{name:<18} failed operation: {r['problem']}")
    for r in probes:
        status = f"failed: {r['problem']}" if r["problem"] else "passed"
        print(f"{name:<18} probe {' '.join(TABLE_PROBE[1:])}: {status}")
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def traced_run(name: str, seed: int, seconds: int, work_dir: Path) -> dict:
    import spans

    calls, gate, _ = workload(name)
    traced = random.Random(seed).random() < 0.5
    verdicts: dict = {}
    order: list[str] = []
    ops: list[dict] = []
    measured = 0.0
    while measured < seconds:
        order.append("traced" if traced else "untraced")
        result = gated(gate, spawn(calls, traced, work_dir), verdicts)
        result["traced"] = traced
        measured += result["wall_s"]
        ops.append(result)
        traced = not traced

    failed = [r for r in ops if r["problem"]]
    good = [r for r in ops if not r["problem"]]
    traced_ok = [r for r in good if r["traced"]]
    untraced_ok = [r for r in good if not r["traced"]]
    # A library operation's output is the benchmark's own dump of its result.
    cli_output = [r["output"] if calls[0][0] == "cli" else b"" for r in traced_ok]
    per_op = [spans.layer_metrics(r["spans"], out)
              for r, out in zip(traced_ok, cli_output)]
    metrics = {
        metric: statistics.median(m[metric] for m in per_op) if per_op else 0.0
        for metric in spans.layer_metrics([], b"")
    }
    if traced_ok and untraced_ok:
        metrics["trace.overhead_share"] = (
            statistics.median(r["op_ref"] for r in traced_ok)
            / statistics.median(r["op_ref"] for r in untraced_ok) - 1)
    else:
        metrics["trace.overhead_share"] = 0.0

    print(f"provenance {json.dumps(provenance(seed, order))}")
    count = f"median of {len(traced_ok)} traced operations"
    for metric, value in metrics.items():
        print(f"{name:<18} {metric:<43} {value:>16.6f} {spans.unit_of(metric):<6} "
              f"{count}")
    shares = [spans.layer_shares(r["spans"], r["op_s"]) for r in traced_ok]
    layers = {layer for share in shares for layer in share}
    median_share = {layer: statistics.median(s.get(layer, 0.0) for s in shares)
                    for layer in layers}
    print(f"{name:<18} median layer shares of the operation: "
          + ", ".join(f"{k} {v:.1%}" for k, v in
                      sorted(median_share.items(), key=lambda kv: -kv[1])))
    print(f"{name:<18} {len(failed)} of {len(ops)} operations failed"
          f" ({len(untraced_ok)} untraced and {len(traced_ok)} traced passed)")
    for r in failed:
        print(f"{name:<18} failed operation: {r['problem']}")
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": spans.unit_of(m)}
                    for m, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cubecovers" / "cli.py").is_file():
        print(f"error: no cubecovers sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)

    run = traced_run if args.trace else timed_run
    names = [args.workload]
    if args.workload == "all":
        names = list(WORKLOAD_NAMES)
        random.Random(args.seed).shuffle(names)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir:
        results = {name: run(name, args.seed, args.seconds, Path(work_dir))
                   for name in names}
    if args.workload == "all":
        metrics = {f"{name}.{metric}": value for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
