"""Command-line interface.

Subcommands: count, table, enumerate, verify, constants, asymptotic.
Each parses its options, calls the library and prints what it returns;
``verify`` prints the records of :func:`cubecovers.checks.verify_checks`.
JSON is the machine interface and renders every exact integer as a decimal
string; text is for people.  Output is deterministic for fixed flags.
Exit codes: 0 success, 1 failed verification, 2 usage error, 130 (128 +
SIGINT) on an interrupt, without a traceback, and 141 (128 + SIGPIPE) if
stdout's reader closes it early, a failing ``verify`` too.
The formatters import ``decimal`` when first called, so only ``count``,
``table`` and ``asymptotic`` load it.  Each command's ``--help`` option
has its text as a literal: click builds its own on a command's first
parse, help or not, through ``gettext``, whose first call imports
``locale``, and this CLI ships no translations.
"""

from __future__ import annotations

import json
import math
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING

import click

from cubecovers import asymptotics, correspondence, counting, digraph, gf2
from cubecovers.checks import BRUTE_FORCE_MAX_N, SERIES_MAX_ORDER, verify_checks
from cubecovers.digraph import Digraph

if TYPE_CHECKING:
    import decimal


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _fmt_halved(x: float, n: int, digits: int) -> str:
    """``_fmt(math.ldexp(x, -n), digits)`` for a positive float ``x``,
    without forming that product: it leaves the normal float range near
    n = 1022 and is 0.0 from about n = 1075.  x / 2^n is exact in
    ``decimal`` and rounds once to ``digits`` significant digits, half to
    even like float formatting, so the bytes are ``_fmt``'s wherever the
    product is a normal float.
    """
    import decimal
    return _fmt_decimal(_context(digits).divide(decimal.Decimal(x), 1 << n), digits)


def _fmt_exp(x: float, digits: int) -> str:
    """``_fmt(math.exp(x), digits)``, and past the float range, where
    ``math.exp`` overflows, e^x computed in ``decimal`` and rounded once to
    ``digits`` significant digits, half to even.
    """
    try:
        return _fmt(math.exp(x), digits)
    except OverflowError:
        import decimal
        return _fmt_decimal(_context(digits).exp(decimal.Decimal(x)), digits)


def _context(digits: int) -> decimal.Context:
    # Exponents as wide as decimal allows: the counts outgrow 10^999999
    # (the default bound) near n = 2600.
    import decimal
    return decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _fmt_decimal(value: decimal.Decimal, digits: int) -> str:
    """A positive decimal of at most ``digits`` significant digits, in the
    bytes of the float format ``_fmt``."""
    value = value.normalize(_context(digits))
    if -4 <= value.adjusted() < digits:  # where the "g" format stays fixed
        return f"{value:f}"
    mantissa, exponent = f"{value:e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"


# 2^k as a Decimal, for the power-of-two splits of ``_dec``.
_POWERS: dict[int, decimal.Decimal] = {}


def _dec(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str`` refuses integers longer than ``sys.get_int_max_str_digits()``
    (4300 digits by default, reached by D(165)), and ``Decimal(int)`` is
    quadratic.  So, as CPython 3.12's ``_pylong.int_to_decimal_string``
    does, split at a power-of-two bit count k, convert both halves and form
    hi * 2^k + lo in ``decimal``, whose products of big numbers are fast.
    The context is wide enough for every sum to be exact, and a rounding
    would raise ``decimal.Inexact``.
    """
    import decimal
    context = _context(decimal.MAX_PREC)
    context.traps[decimal.Inexact] = True

    def power(k: int) -> decimal.Decimal:
        if k not in _POWERS:
            _POWERS[k] = (decimal.Decimal(1 << k) if k < 4096
                          else context.multiply(power(k >> 1), power(k >> 1)))
        return _POWERS[k]

    def convert(x: int) -> decimal.Decimal:
        if x.bit_length() < 4096:
            return decimal.Decimal(x)
        k = 1 << (x.bit_length() >> 1).bit_length() - 1
        hi = x >> k
        return context.fma(convert(hi), power(k), convert(x - (hi << k)))

    return str(convert(value))


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


class _Command(click.Command):
    """A command whose help option is click's, with its text a literal."""

    _literal_help = None

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        names = self.get_help_option_names(ctx)
        if not names or not self.add_help_option:
            return None
        # Built once: click orders the eager callbacks by this object.
        if self._literal_help is None:
            self._literal_help = click.Option(
                names, is_flag=True, expose_value=False, is_eager=True,
                callback=_show_help, help="Show this message and exit.")
        return self._literal_help


class _Group(_Command, click.Group):
    command_class = _Command

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            # The reader is gone; on the null device the last flush cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        except KeyboardInterrupt:
            # Not a failed verification (1), as click's own Abort would say.
            sys.exit(130)


@click.group(cls=_Group)
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
        # Each column is as wide as its header or its widest value.
        header = ("n", "dags", "orientable")
        widths = [max(len(str(value)) for value in column)
                  for column in zip(header, *rows)]
        for line in (header, *rows):
            click.echo(" ".join(f"{value:>{w}}" for value, w in zip(line, widths)))


# The largest n that ``enumerate`` lists.  There are 2^(n(n-1)) graphs:
# n=5 is about a million, n=6 about a billion, n=7 about 4e12.
# ``enumerate`` lists all 3,781,503 DAGs at n=6 in 66-85 s, and would list
# 1,138,779,265 at n=7.
ENUMERATE_MAX_N = 6


@main.command("enumerate")
@click.option("--n", "n", type=click.IntRange(0, ENUMERATE_MAX_N), required=True)
@click.option("--orientable", is_flag=True,
              help="Only graphs with every out-degree even.")
@click.option("--matrices", is_flag=True,
              help="Also print the characteristic matrix of each graph.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def enumerate_cmd(n: int, orientable: bool, matrices: bool, fmt: str) -> None:
    """Stream the acyclic digraphs on N vertices in canonical code order."""
    codes = digraph.acyclic_codes(n)
    total = 0
    # A batch of codes, one slot each, is decoded, filtered, mapped and
    # written at once.  (At n = 5, filtering batches of 256, 1,024 and
    # 4,096 took 18, 16 and 34 ms on a 2-core VM under Python 3.11.7: the
    # shifts of a wider int cost more than the calls they save.)
    while chunk := list(islice(codes, 1024)):
        k = len(chunk)
        stride, slot, starts = gf2.slot_layout(n, k)
        adjacency = digraph.decode_slots(gf2.join_slots(chunk, n), n, stride, starts)
        kept = (digraph.even_out_degree_slots(adjacency, n, stride, starts)
                if orientable else starts)
        graphs = gf2.split_slots(adjacency, n, k)
        if matrices:
            images = gf2.split_slots(
                correspondence.characteristic_slots(adjacency, n, k), n, k)
        lines = []
        while kept:  # the kept slots, lowest first
            low = kept & -kept
            kept ^= low
            t = (low.bit_length() - 1) // slot
            edges = Digraph(n, gf2.unpack_rows(graphs[t], n)).edges()
            if matrices:
                rows = gf2.BitMatrix(n, gf2.unpack_rows(images[t], n)).to_text().split()
            if fmt == "json":
                record = {"code": chunk[t], "edges": [[u, v] for u, v in edges]}
                if matrices:
                    record["matrix"] = rows
                lines.append(json.dumps(record))
            else:
                shown = ",".join(f"{u}>{v}" for u, v in edges) or "-"
                line = f"{chunk[t]}\t{shown}"
                if matrices:
                    line += "\t" + "/".join(rows)
                lines.append(line)
        total += len(lines)
        if lines:
            click.echo("\n".join(lines))
    if fmt == "json":
        click.echo(json.dumps({"count": str(total)}))
    else:
        click.echo(f"count\t{total}")


@main.command()
@click.option("--n-max", type=click.IntRange(0, BRUTE_FORCE_MAX_N), default=4,
              show_default=True)
@click.option("--series-order", "--order", "series_order",
              type=click.IntRange(0, SERIES_MAX_ORDER), default=12, show_default=True)
@click.option("--series", "series_only", is_flag=True,
              help="Run only the series identity checks.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="json", show_default=True)
def verify(n_max: int, series_order: int, series_only: bool, fmt: str) -> None:
    """Cross-check every formula against its brute-force or series oracle."""
    checks = verify_checks(n_max, series_order, series_only)
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


# The places a Newton tolerance of 1e-13 resolves: the most that
# ``constants`` prints.
_CONSTANT_DECIMALS = 13


@main.command()
@click.option("--digits", type=click.IntRange(1, 17), default=10, show_default=True,
              help=f"Decimal places, at most {_CONSTANT_DECIMALS} "
                   "(what the Newton tolerance 1e-13 resolves).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def constants(digits: int, fmt: str) -> None:
    """Print the zero of the deformed exponential and both growth prefactors."""
    c = asymptotics.compute_constants()
    digits = min(digits, _CONSTANT_DECIMALS)
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
    fields = {
        "n": n,
        "dags": _dec(exact_d),
        "orientable": _dec(exact_v),
        "dag_estimate": _fmt_exp(log_d, digits),
        "orientable_estimate": _fmt_exp(log_v, digits),
        "log_dag_estimate": _fmt(log_d, digits),
        "log_orientable_estimate": _fmt(log_v, digits),
        # 2^n V(n)/D(n) lies in [1, 2] and K/C is 1.26..., so only the
        # halving by 2^n leaves the float range.  Integer true division
        # rounds the exact quotient correctly.
        "ratio_exact": _fmt_halved((exact_v << n) / exact_d, n, digits),
        "ratio_estimate": _fmt_halved(asymptotics.compute_constants().ratio_factor,
                                      n, digits),
    }
    if fmt == "json":
        click.echo(json.dumps(fields))
    else:
        for key, value in fields.items():
            click.echo(f"{key:<23} = {value}")


if __name__ == "__main__":
    main()
