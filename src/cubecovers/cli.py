"""Command-line interface.

Subcommands: count, table, enumerate, verify, constants, asymptotic.
JSON is the machine interface and renders every exact integer as a decimal
string; text is for people.  Output is deterministic for fixed flags.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import decimal
import json
import math
import sys
from fractions import Fraction

import click

from cubecovers import asymptotics, correspondence, counting, gf2, series
from cubecovers.digraph import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    enumerate_acyclic,
    enumerate_digraphs,
)


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _dec(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str`` refuses integers longer than ``sys.get_int_max_str_digits()``
    (4300 digits by default, reached by D(165)); the decimal module's
    conversion has no such limit.
    """
    return str(decimal.Decimal(value))


@click.group()
def main() -> None:
    """Exact counts, enumeration, and asymptotics for small covers over cubes
    (equivalently, labeled acyclic digraphs)."""


@main.command()
@click.argument("kind", type=click.Choice(["r", "o"]))
@click.option("--n", "n", type=click.IntRange(0), required=True,
              help="Number of vertices (cube dimension).")
def count(kind: str, n: int) -> None:
    """Print one exact count: KIND r for all covers, o for orientable ones."""
    value = counting.count_dags(n) if kind == "r" else counting.count_orientable_dags(n)
    click.echo(_dec(value))


@main.command()
@click.option("--max-n", type=click.IntRange(0), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
def table(max_n: int, fmt: str) -> None:
    """Print the exact table of both counts for n = 0 .. MAX_N."""
    rows = [(n, _dec(d), _dec(v)) for n, d, v in counting.sequence_table(max_n)]
    if fmt == "json":
        payload = {
            "rows": [{"n": n, "dags": d, "orientable": v} for n, d, v in rows]
        }
        click.echo(json.dumps(payload))
    elif fmt == "csv":
        click.echo("n,dags,orientable")
        for n, d, v in rows:
            click.echo(f"{n},{d},{v}")
    else:
        width_d = max(len(d) for _, d, _ in rows)
        width_v = max(len(v) for _, _, v in rows)
        click.echo(f"{'n':>3} {'dags':>{width_d}} {'orientable':>{width_v}}")
        for n, d, v in rows:
            click.echo(f"{n:>3} {d:>{width_d}} {v:>{width_v}}")


@main.command("enumerate")
@click.option("--n", "n", type=click.IntRange(0), required=True)
@click.option("--orientable", is_flag=True,
              help="Only graphs with every out-degree even.")
@click.option("--matrices", is_flag=True,
              help="Also print the characteristic matrix of each graph.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--enum-cap", type=click.IntRange(0), default=DEFAULT_ENUMERATION_CAP,
              show_default=True, help="Refuse exhaustive walks above this n.")
def enumerate_cmd(n: int, orientable: bool, matrices: bool, fmt: str,
                  enum_cap: int) -> None:
    """Stream the acyclic digraphs on N vertices in canonical code order."""
    try:
        stream = enumerate_acyclic(n, cap=enum_cap)
        total = 0
        for graph in stream:
            if orientable and not graph.all_out_degrees_even():
                continue
            total += 1
            edges = graph.edges()
            if fmt == "json":
                record = {
                    "code": graph.code(),
                    "edges": [[u, v] for u, v in edges],
                }
                if matrices:
                    record["matrix"] = correspondence.characteristic_matrix(
                        graph
                    ).to_text().split("\n") if n else []
                click.echo(json.dumps(record))
            else:
                shown = ",".join(f"{u}>{v}" for u, v in edges) or "-"
                line = f"{graph.code()}\t{shown}"
                if matrices:
                    line += "\t" + "/".join(
                        correspondence.characteristic_matrix(graph).to_text().split("\n")
                    )
                click.echo(line)
        if fmt == "json":
            click.echo(json.dumps({"count": str(total)}))
        else:
            click.echo(f"count\t{total}")
    except EnumerationCapExceeded as exc:
        raise click.UsageError(str(exc))


def _verify_checks(n_max: int, series_order: int, series_only: bool,
                   jobs: int, enum_cap: int) -> list[dict]:
    checks: list[dict] = []

    def add(check: str, passed: bool, detail: str | None = None, **scope) -> None:
        checks.append({"check": check, **scope, "pass": passed, "detail": detail})

    if not series_only:
        for n in range(n_max + 1):
            got = correspondence.brute_counts(n, jobs=jobs, cap=enum_cap)
            want_d = counting.count_dags(n)
            want_v = counting.count_orientable_dags(n)
            add("dag-count-bruteforce", got.dags == want_d,
                f"brute={got.dags} formula={want_d}", n=n)
            add("orientable-count-bruteforce", got.orientable == want_v,
                f"brute={got.orientable} formula={want_v}", n=n)

        for n in range(min(n_max, correspondence.MATRIX_BRUTEFORCE_CAP) + 1):
            # Grown on the matrix side alone; every matrix-side check below
            # reads this set.
            members = set(gf2.unit_minor_matrices(n))
            m_all = len(members)
            add("matrix-count-bruteforce", m_all == counting.count_dags(n),
                f"brute={m_all} formula={counting.count_dags(n)}", n=n)
            m_orient = sum(1 for m in members if m.has_odd_column_sums())
            add("orientable-matrix-count-bruteforce",
                m_orient == counting.count_orientable_dags(n),
                f"brute={m_orient} formula={counting.count_orientable_dags(n)}", n=n)

            images = set()
            # The code of the first graph that breaks each per-graph check.
            round_trip = equivalence = transfer = None
            for graph in enumerate_digraphs(n, cap=enum_cap):
                matrix = correspondence.characteristic_matrix(graph)
                if (round_trip is None
                        and correspondence.digraph_from_characteristic(matrix) != graph):
                    round_trip = graph.code()
                if (equivalence is None
                        and graph.all_out_degrees_even() != matrix.has_odd_column_sums()):
                    equivalence = graph.code()
                acyclic = graph.is_acyclic()
                if acyclic:
                    images.add(matrix)
                if transfer is None and acyclic != (matrix in members):
                    transfer = graph.code()
            add("bijection-image", images == members,
                f"images={len(images)} members={len(members)}", n=n)
            for check, code in (("round-trip", round_trip),
                                ("orientability-equivalence", equivalence),
                                ("acyclicity-transfer", transfer)):
                add(check, code is None,
                    None if code is None else f"first failure at code={code}", n=n)

    for result in series.verify_identities(series_order):
        checks.append({
            "check": "series-identity",
            "identity": result.name,
            "order": result.order,
            "pass": result.passed,
            "first_failure": result.first_failure,
        })

    quotient = series.orientable_from_quotient(series_order)
    bad = None
    if quotient.coefficient(0) != 0:
        bad = 0
    else:
        for n in range(1, series_order + 1):
            c = quotient.coefficient(n)
            if c.denominator != 1 or c != counting.count_orientable_dags(n):
                bad = n
                break
    add("orientable-quotient", bad is None,
        None if bad is None else f"first mismatch at n={bad}", order=series_order)

    derivative_span = max(40, series_order)
    miss = series.derivative_identity_first_failure(derivative_span)
    checks.append({
        "check": "derivative-rule",
        "order": derivative_span,
        "pass": miss is None,
        "first_failure": miss,
    })
    return checks


@main.command()
@click.option("--n-max", type=click.IntRange(0), default=4, show_default=True)
@click.option("--series-order", "--order", "series_order",
              type=click.IntRange(0), default=12, show_default=True)
@click.option("--series", "series_only", is_flag=True,
              help="Run only the series identity checks.")
@click.option("--jobs", type=click.IntRange(1), default=1, show_default=True)
@click.option("--enum-cap", type=click.IntRange(0), default=DEFAULT_ENUMERATION_CAP,
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="json", show_default=True)
def verify(n_max: int, series_order: int, series_only: bool, jobs: int,
           enum_cap: int, fmt: str) -> None:
    """Cross-check every formula against its brute-force or series oracle."""
    try:
        checks = _verify_checks(n_max, series_order, series_only, jobs, enum_cap)
    except EnumerationCapExceeded as exc:
        raise click.UsageError(str(exc))
    failures = [c for c in checks if not c["pass"]]
    if fmt == "json":
        click.echo(json.dumps({"checks": checks, "passed": not failures}))
    else:
        for c in checks:
            scope = ", ".join(
                f"{key}={c[key]}" for key in ("identity", "n", "order") if key in c
            )
            status = "ok  " if c["pass"] else "FAIL"
            shown = c.get("detail") or c.get("first_failure")
            extra = f"  [{shown}]" if not c["pass"] and shown is not None else ""
            click.echo(f"{status} {c['check']} ({scope}){extra}")
        click.echo(
            "all checks passed" if not failures else f"{len(failures)} check(s) failed"
        )
    if failures:
        sys.exit(1)


def _tolerance(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not (math.isfinite(value) and value >= asymptotics.MIN_TOL):
        raise click.BadParameter(
            f"{value!r} is not a finite number >= {asymptotics.MIN_TOL}"
        )
    return value


def _decimals_resolved(tol: float) -> int:
    """The most decimal places a Newton tolerance of ``tol`` supports: the
    largest d >= 0 with 10^-d >= tol."""
    return max(0, math.floor(-math.log10(tol) + 1e-9))


@main.command()
@click.option("--digits", type=click.IntRange(1, 17), default=10, show_default=True,
              help="Decimal places, at most as many as --tol resolves.")
@click.option("--terms", type=click.IntRange(25), default=asymptotics.DEFAULT_TERMS,
              show_default=True)
@click.option("--tol", type=float, default=asymptotics.DEFAULT_TOL, show_default=True,
              callback=_tolerance,
              help=f"Newton step tolerance, finite and >= {asymptotics.MIN_TOL}.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def constants(digits: int, terms: int, tol: float, fmt: str) -> None:
    """Print the zero of the deformed exponential and both growth prefactors."""
    c = asymptotics.compute_constants(terms, tol)
    digits = min(digits, _decimals_resolved(tol))
    values = {
        "alpha": f"{c.alpha:.{digits}f}",
        "dag_prefactor": f"{c.dag_prefactor:.{digits}f}",
        "orientable_prefactor": f"{c.orientable_prefactor:.{digits}f}",
        "ratio_factor": f"{c.ratio_factor:.{digits}f}",
    }
    provenance = {
        "truncation": c.truncation,
        "tolerance": c.tolerance,
        "newton_iterations": c.newton_iterations,
    }
    if fmt == "json":
        click.echo(json.dumps({**values, **provenance}))
    else:
        for key, rendered in values.items():
            click.echo(f"{key:<21} = {rendered}")
        click.echo(
            f"truncation={c.truncation} tolerance={c.tolerance} "
            f"newton_iterations={c.newton_iterations}"
        )


@main.command()
@click.option("--n", "n", type=click.IntRange(0), required=True)
@click.option("--digits", type=click.IntRange(1, 17), default=6, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def asymptotic(n: int, digits: int, fmt: str) -> None:
    """Exact counts next to their asymptotic estimates at N."""
    exact_d = counting.count_dags(n)
    exact_v = counting.count_orientable_dags(n)
    log_d = asymptotics.log_dag_estimate(n)
    log_v = asymptotics.log_orientable_estimate(n)

    def safe_exp(value: float) -> float:
        try:
            return math.exp(value)
        except OverflowError:
            return math.inf

    fields = {
        "n": n,
        "dags": _dec(exact_d),
        "orientable": _dec(exact_v),
        "dag_estimate": _fmt(safe_exp(log_d), digits),
        "orientable_estimate": _fmt(safe_exp(log_v), digits),
        "log_dag_estimate": _fmt(log_d, digits),
        "log_orientable_estimate": _fmt(log_v, digits),
        "ratio_exact": _fmt(float(Fraction(exact_v, exact_d)), digits),
        "ratio_estimate": _fmt(asymptotics.ratio_estimate(n), digits),
    }
    if fmt == "json":
        click.echo(json.dumps(fields))
    else:
        for key, value in fields.items():
            click.echo(f"{key:<23} = {value}")


if __name__ == "__main__":
    main()
