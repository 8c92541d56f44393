import json
import math
import os
import random
import signal
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from cubecovers import (
    Digraph, IdentityCheck, cli, correspondence, counting, digraph, gf2,
    is_acyclic_dfs, series,
)
from cubecovers.checks import BRUTE_FORCE_MAX_N
from cubecovers.digraph import DEFAULT_ENUMERATION_CAP


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli.main, list(args))


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "args,expected",
    [
        (["count", "o", "--n", "6"], "74581"),
        (["count", "r", "--n", "0"], "1"),
        (["count", "r", "--n", "7"], "1138779265"),
        (["count", "o", "--n", "0"], "1"),
    ],
)
def test_count_values(runner, args, expected):
    result = invoke(runner, *args)
    assert result.exit_code == 0
    assert result.output.strip() == expected


def test_count_usage_errors(runner):
    assert invoke(runner, "count", "x", "--n", "3").exit_code == 2
    assert invoke(runner, "count", "r", "--n", "-1").exit_code == 2
    assert invoke(runner, "count", "r").exit_code == 2


def _parse_digits(text: str) -> int:
    # int(text) refuses more than sys.get_int_max_str_digits() digits.
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_prints_integers_past_the_str_digit_limit(runner):
    # D(165) has more than 4300 decimal digits, the default limit of str().
    result = invoke(runner, "count", "r", "--n", "165")
    assert result.exit_code == 0, result.output
    digits = result.output.strip()
    assert len(digits) > 4300
    assert _parse_digits(digits) == counting.count_dags(165)


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--max-n", "165"],
        ["table", "--max-n", "165", "--format", "csv"],
        ["asymptotic", "--n", "165", "--format", "json"],
    ],
)
def test_big_exact_integers_print_without_traceback(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    assert result.exception is None


@pytest.fixture
def no_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_dec_matches_str_up_to_a_million_bits(no_str_digit_limit):
    # Around each split: below, at and above the direct 4,096-bit
    # conversion, exact powers of two, a zero low half, and negatives.
    rng = random.Random(2008)
    values = [0, 1, -1, (1 << 4095) - 1, 1 << 4095, 1 << 4096, (1 << 4096) + 1,
              1 << 9000, (1 << 8192) - 1, 12345 << 20000, -rng.getrandbits(50_000)]
    values += [rng.getrandbits(rng.randrange(1, bits))
               for bits in (5_000, 30_000, 100_000, 250_000) for _ in range(3)]
    values.append(rng.getrandbits(10 ** 6) | 1 << 10 ** 6 - 1)
    for value in values:
        assert cli._dec(value) == str(value), value.bit_length()


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def test_table_reproduces_published_rows(runner):
    result = invoke(runner, "table", "--max-n", "7")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[-1].split() == ["7", "1138779265", "11226874"]
    assert lines[-2].split() == ["6", "3781503", "74581"]


def test_table_csv_trivial(runner):
    result = invoke(runner, "table", "--max-n", "0", "--format", "csv")
    assert result.output == "n,dags,orientable\n0,1,1\n"


def test_table_json_uses_decimal_strings(runner):
    result = invoke(runner, "table", "--max-n", "12", "--format", "json")
    payload = json.loads(result.output)
    assert len(payload["rows"]) == 13
    for row in payload["rows"]:
        assert isinstance(row["dags"], str)
        assert isinstance(row["orientable"], str)
        assert int(row["dags"]) == counting.count_dags(row["n"])
        assert int(row["orientable"]) == counting.count_orientable_dags(row["n"])


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------


def test_enumerate_orientable_two_vertices(runner):
    result = invoke(runner, "enumerate", "--n", "2", "--orientable")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines == ["0\t-", "count\t1"]  # only the empty graph


def test_enumerate_counts(runner):
    result = invoke(runner, "enumerate", "--n", "3")
    assert result.output.strip().splitlines()[-1] == "count\t25"
    result = invoke(runner, "enumerate", "--n", "3", "--orientable")
    assert result.output.strip().splitlines()[-1] == "count\t4"


def test_enumerate_matrices_column(runner):
    result = invoke(runner, "enumerate", "--n", "2", "--matrices")
    first = result.output.splitlines()[0]
    assert first == "0\t-\t10/01"


def test_enumerate_json_stream(runner):
    result = invoke(runner, "enumerate", "--n", "2", "--format", "json", "--matrices")
    lines = result.output.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1] == {"count": "3"}
    assert records[0] == {"code": 0, "edges": [], "matrix": ["10", "01"]}
    codes = [r["code"] for r in records[:-1]]
    assert codes == sorted(codes)


def test_enumerate_respects_cap(runner, monkeypatch):
    # Above DEFAULT_ENUMERATION_CAP the range of --n refuses, before any
    # listing; the cap is no option.
    listed = []
    monkeypatch.setattr(digraph, "acyclic_codes", lambda *args: listed.append(args))
    above = DEFAULT_ENUMERATION_CAP + 1
    result = invoke(runner, "enumerate", "--n", str(above))
    assert result.exit_code == 2
    assert f"'--n': {above} is not in the range 0<=x<={above - 1}." in result.output
    assert listed == []
    result = invoke(runner, "enumerate", "--n", "3", "--enum-cap", "2")
    assert result.exit_code == 2
    assert "No such option '--enum-cap'" in result.output


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_passes_by_default(runner):
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "8")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert all(c["pass"] for c in payload["checks"])
    names = {c["check"] for c in payload["checks"]}
    assert "dag-count-bruteforce" in names
    assert "bijection-image" in names
    assert "series-identity" in names
    assert "derivative-rule" in names


def test_verify_series_only(runner):
    result = invoke(runner, "verify", "--series", "--order", "10")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert all(
        c["check"] in {"series-identity", "orientable-quotient", "derivative-rule"}
        for c in payload["checks"]
    )
    identity_records = [c for c in payload["checks"] if c["check"] == "series-identity"]
    assert {r["identity"] for r in identity_records} == {
        "alternating-inverse",
        "half-argument-decomposition",
    }
    for record in identity_records:
        assert record["order"] == 10
        assert record["first_failure"] is None


def test_verify_refuses_the_removed_jobs_option(runner):
    # Its worker pool was no faster than one job.
    result = invoke(runner, "verify", "--n-max", "3", "--jobs", "2")
    assert result.exit_code == 2
    assert "No such option" in result.output and "--jobs" in result.output


def test_verify_detects_corrupted_counts(runner, corrupted_dag_count):
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "5")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["passed"] is False
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert any(c["check"] == "dag-count-bruteforce" and c.get("n") == 3 for c in failing)
    assert any(
        c["check"] == "series-identity" and c["first_failure"] == 3 for c in failing
    )


def test_verify_text_format_failure_names_the_check(runner, corrupted_dag_count):
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "5",
                    "--format", "text")
    assert result.exit_code == 1
    assert "FAIL dag-count-bruteforce" in result.output


def _break_codes_12_and_48(check, monkeypatch):
    """Make ``check`` fail on the n = 3 graphs with codes 12 and 48 only.

    The fault goes into the batch kernel that the matrix records of
    ``verify`` call once per n and that a public member calls as a batch
    of one.  Returns a test of that member on one graph: true when it
    still answers right.
    """

    def broken(rows):
        return len(rows) == 3 and Digraph(3, rows).code() in (12, 48)

    if check == "round-trip":
        inverse = correspondence.adjacency_slots

        def wrong_inverse(characteristic, n, k=1):
            # Every slot whose graph comes back as code 12 or 48 comes back
            # empty instead.
            slots = gf2.split_slots(inverse(characteristic, n, k), n, k)
            return gf2.join_slots(
                [0 if broken(gf2.unpack_rows(rows, n)) else rows for rows in slots], n)

        monkeypatch.setattr(correspondence, "adjacency_slots", wrong_inverse)
        return lambda graph: graph == correspondence.digraph_from_characteristic(
            correspondence.characteristic_matrix(graph))
    if check == "orientability-equivalence":
        odd = gf2.odd_column_slots

        def wrong_odd(word, n, k=1):
            # Flip the answer of every slot that holds the image of code 12
            # or 48.
            answer = odd(word, n, k)
            _, width, _ = gf2.slot_layout(n, k)
            for t, rows in enumerate(gf2.split_slots(word, n, k)):
                if broken(gf2.unpack_rows(correspondence.adjacency_slots(rows, n), n)):
                    answer ^= 1 << t * width
            return answer

        monkeypatch.setattr(gf2, "odd_column_slots", wrong_odd)

        def right(graph):
            matrix = correspondence.characteristic_matrix(graph)
            return matrix.has_odd_column_sums() == all(
                s % 2 for s in matrix.column_sums())

        return right
    codes = digraph.acyclic_codes

    def wrong_codes(n, cap=digraph.DEFAULT_ENUMERATION_CAP):
        return (code for code in codes(n, cap) if not (n == 3 and code in (12, 48)))

    monkeypatch.setattr(digraph, "acyclic_codes", wrong_codes)
    return lambda graph: (graph in set(digraph.enumerate_acyclic(graph.n))) == (
        is_acyclic_dfs(graph))


@pytest.mark.parametrize(
    "check", ["round-trip", "orientability-equivalence", "acyclicity-transfer"]
)
def test_verify_names_the_first_graph_that_breaks_a_per_graph_check(
    runner, monkeypatch, check
):
    member_is_right = _break_codes_12_and_48(check, monkeypatch)
    assert not member_is_right(Digraph.from_code(3, 12))
    assert not member_is_right(Digraph.from_code(3, 48))
    assert all(member_is_right(Digraph.from_code(3, code))
               for code in range(64) if code not in (12, 48))
    args = ("verify", "--n-max", "3", "--series-order", "4")
    result = invoke(runner, *args)
    assert result.exit_code == 1
    records = [c for c in json.loads(result.output)["checks"] if c["check"] == check]
    assert [(c["n"], c["pass"], c["detail"]) for c in records] == [
        (0, True, None),
        (1, True, None),
        (2, True, None),
        (3, False, "first failure at code=12"),
    ]
    text = invoke(runner, *args, "--format", "text")
    assert text.exit_code == 1
    assert f"FAIL {check} (n=3)  [first failure at code=12]" in text.output.splitlines()
    assert "[None]" not in text.output


def test_verify_names_a_cyclic_code_among_the_acyclic_ones(runner, monkeypatch):
    # Code 5 at n = 3 is the 2-cycle 0 <-> 1: its image is no member.
    codes = digraph.acyclic_codes

    def with_code_5(n, cap=digraph.DEFAULT_ENUMERATION_CAP):
        return iter(sorted({*codes(n, cap), *([5] if n == 3 else [])}))

    monkeypatch.setattr(digraph, "acyclic_codes", with_code_5)
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "4")
    assert result.exit_code == 1
    failing = [(c["check"], c["n"], c["detail"])
               for c in json.loads(result.output)["checks"] if not c["pass"]]
    assert failing == [
        ("bijection-image", 3, "images=26 members=25"),
        ("acyclicity-transfer", 3, "first failure at code=5"),
    ]


def test_verify_text_shows_a_first_failure_at_zero(runner, monkeypatch):
    monkeypatch.setattr(series, "verify_identities", lambda order: [
        IdentityCheck("alternating-inverse", order, False, 0),
        IdentityCheck("half-argument-decomposition", order, False, None),
    ])
    result = invoke(runner, "verify", "--series", "--order", "4", "--format", "text")
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert "FAIL series-identity (identity=alternating-inverse, order=4)  [0]" in lines
    assert "FAIL series-identity (identity=half-argument-decomposition, order=4)" in lines


@pytest.mark.parametrize("index,shift", [(3, Fraction(1, 2)), (0, 1)],
                         ids=["coefficient-3", "constant-term"])
def test_verify_names_the_first_coefficient_the_quotient_misses(
    runner, monkeypatch, index, shift
):
    exact = series.orientable_from_quotient

    def off(order):
        coeffs = list(exact(order).coeffs)
        coeffs[index] += shift
        return series.ChromaticSeries(tuple(coeffs))

    monkeypatch.setattr(series, "orientable_from_quotient", off)
    args = ("verify", "--series", "--order", "5")
    result = invoke(runner, *args)
    assert result.exit_code == 1
    assert [c for c in json.loads(result.output)["checks"]
            if c["check"] == "orientable-quotient"] == [{
        "check": "orientable-quotient", "order": 5, "pass": False,
        "detail": f"first mismatch at n={index}",
    }]
    text = invoke(runner, *args, "--format", "text")
    assert text.exit_code == 1
    line = f"FAIL orientable-quotient (order=5)  [first mismatch at n={index}]"
    assert line in text.output.splitlines()


@pytest.mark.parametrize("n", range(DEFAULT_ENUMERATION_CAP + 1, BRUTE_FORCE_MAX_N + 1))
def test_verify_passes_above_the_listing_cap(runner, n):
    # The brute force counts reach states and lists nothing, so the listing
    # cap does not bound it.  The memo is shared, so the range costs about
    # what its top does (about 1 s at the ceiling).
    result = invoke(runner, "verify", "--n-max", str(n))
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    brute = [c for c in payload["checks"] if c["check"] == "dag-count-bruteforce"]
    assert [c["n"] for c in brute] == list(range(n + 1))
    assert all(c["pass"] for c in payload["checks"])


def test_verify_above_its_ceiling_refuses_before_any_brute_force(runner, monkeypatch):
    calls = []
    monkeypatch.setattr(correspondence, "brute_counts", lambda *a, **k: calls.append(a))
    above = str(BRUTE_FORCE_MAX_N + 1)
    result = invoke(runner, "verify", "--n-max", above)
    assert result.exit_code == 2
    assert f"'--n-max': {above} is not in the range 0<=x<={BRUTE_FORCE_MAX_N}." \
        in result.output
    # The range is checked before --series drops the brute force.
    assert invoke(runner, "verify", "--series", "--n-max", above).exit_code == 2
    assert calls == []


# ----------------------------------------------------------------------
# constants and asymptotic
# ----------------------------------------------------------------------


def test_constants_three_digit_roundings(runner):
    result = invoke(runner, "constants", "--digits", "3", "--format", "json")
    payload = json.loads(result.output)
    assert payload["alpha"] == "-1.488"
    assert payload["dag_prefactor"] == "1.741"
    assert payload["orientable_prefactor"] == "2.197"
    assert payload["ratio_factor"] == "1.262"
    assert payload["truncation"] == 30
    assert payload["newton_iterations"] >= 1


def test_constants_text_output(runner):
    result = invoke(runner, "constants", "--digits", "3")
    assert result.exit_code == 0
    assert "alpha" in result.output and "-1.488" in result.output
    assert "truncation=30" in result.output


@pytest.mark.parametrize("option,value", [("--tol", "1e-13"), ("--terms", "30")])
def test_constants_has_no_numerical_knobs(runner, option, value):
    result = invoke(runner, "constants", option, value)
    assert result.exit_code == 2
    error = result.output.splitlines()[-1]
    assert "No such option" in error and option in error
    assert isinstance(result.exception, SystemExit)


def test_constants_prints_no_more_digits_than_the_tolerance_resolves(runner):
    # The Newton tolerance 1e-13 resolves 13 places.
    result = invoke(runner, "constants", "--digits", "17")
    assert result.exit_code == 0
    assert "alpha                 = -1.4880785455997" in result.output.splitlines()


def test_asymptotic_side_by_side(runner):
    result = invoke(runner, "asymptotic", "--n", "7", "--format", "json")
    payload = json.loads(result.output)
    assert payload["dags"] == "1138779265"
    assert payload["orientable"] == "11226874"
    ratio_exact = float(payload["ratio_exact"])
    ratio_estimate = float(payload["ratio_estimate"])
    assert abs(ratio_estimate / ratio_exact - 1) < 0.01


def test_asymptotic_survives_huge_n(runner):
    # math.exp overflows from a log of about 709.8: n = 43 for D, 44 for V.
    for n in (43, 44, 60):
        result = invoke(runner, "asymptotic", "--n", str(n), "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        for field in ("dag", "orientable"):
            value = Decimal(payload[f"{field}_estimate"])
            assert value.is_finite() and len(value.as_tuple().digits) <= 6
            # Both fields print six significant digits, so the estimate's
            # log matches the printed log to within 1e-5, relative.
            log = float(payload[f"log_{field}_estimate"])
            assert abs(float(value.ln()) - log) < 1e-5 * log, (n, field, value)
    assert payload["dag_estimate"] == "4.23185e+604"


def test_asymptotic_estimates_render_beyond_the_default_decimal_range():
    # e^x past 10^999999, the default exponent bound of decimal.
    x = 2_000_000 * math.log(10) + 1
    assert cli._fmt_exp(x, 6) == "2.71828e+2000000"


def test_asymptotic_ratios_survive_below_the_smallest_double(runner, monkeypatch):
    # Both ratios are below 5e-324 from about n = 1076.  Synthetic counts
    # give V/D = (4/3) / 2^1100 without growing the real ones that far.
    monkeypatch.setattr(counting, "count_dags", lambda n: 3 << n)
    monkeypatch.setattr(counting, "count_orientable_dags", lambda n: 4)
    result = invoke(runner, "asymptotic", "--n", "1100", "--format", "json")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["ratio_exact"] == "9.8162e-332"  # 9.816202438697e-332
    assert payload["ratio_estimate"] == "9.28932e-332"  # 1.2617671399964 / 2^1100


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--max-n", "9", "--format", "json"],
        ["constants", "--digits", "12", "--format", "json"],
        ["enumerate", "--n", "3", "--orientable", "--matrices"],
        ["asymptotic", "--n", "12", "--format", "json"],
    ],
)
def test_identical_flags_give_identical_bytes(runner, args):
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


# ----------------------------------------------------------------------
# help and usage
# ----------------------------------------------------------------------

# ``verify --jobs 0`` and ``--enum-cap 6`` name removed options; ``--n-max
# -1`` and ``16`` are out of range.
USAGE_ERRORS = [("count", "r"), ("table",), ("enumerate", "--n", "7"),
                ("verify", "--jobs", "0"), ("verify", "--enum-cap", "6"),
                ("verify", "--n-max", "-1"), ("verify", "--n-max", "16"),
                ("constants", "--digits", "0"), ("asymptotic", "--n", "-1")]


def _run(args):
    result = CliRunner().invoke(cli.main, list(args), prog_name="cubecovers")
    return result.exit_code, result.stdout_bytes, result.stderr_bytes


@pytest.mark.parametrize(
    "args",
    [("--help",), (), ("nosuch",), ("verify", "--jobs", "0", "--help"),
     ("verify", "--n-max", "-1", "--help")]
    + [(name, "--help") for name in cli.main.commands] + USAGE_ERRORS,
    ids=lambda args: " ".join(args) or "no arguments",
)
def test_help_and_usage_bytes_are_clicks_own(monkeypatch, args):
    ours = _run(args)
    monkeypatch.setattr(cli._Command, "get_help_option", click.Command.get_help_option)
    assert ours == _run(args)


@pytest.mark.parametrize("args", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_exit_2_with_the_help_hint(args):
    code, _, err = _run(args)
    assert code == 2
    assert f"Try 'cubecovers {args[0]} --help' for help.".encode() in err


def test_each_command_builds_its_help_option_once():
    for command in [cli.main, *cli.main.commands.values()]:
        ctx = click.Context(command)
        option = command.get_help_option(ctx)
        assert option is command.get_help_option(ctx)
        assert option.opts == ["--help"] and option.is_eager and option.is_flag


# ----------------------------------------------------------------------
# a reader that closes the pipe
# ----------------------------------------------------------------------

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

# D(3) = 26 in the memo makes ``verify`` fail (see ``corrupted_dag_count``).
FAILING_VERIFY = """
from cubecovers import cli, counting
counting._COUNTS = ([1, 1, 3, 26], [1, 1, 1, 4], [1, 3, 9, 26])
cli.main(["verify", "--n-max", "3", "--series-order", "5"], prog_name="cubecovers")
"""


def _closed_pipe(argv, lines):
    """Exit status and stderr of ``python ARGV`` whose reader closes stdout
    after ``lines`` lines; with 0, before the program starts."""
    read, write = os.pipe()
    reader = os.fdopen(read, "rb")
    if not lines:
        reader.close()
    proc = subprocess.Popen([sys.executable, *argv], stdout=write,
                            stderr=subprocess.PIPE, env=ENV)
    os.close(write)
    for _ in range(lines):
        reader.readline()
    reader.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


@pytest.mark.parametrize("args,lines", [
    # Both write far more than a pipe holds, so they write after the close.
    (("enumerate", "--n", "5"), 1),
    (("table", "--max-n", "300"), 1),
    (("count", "r", "--n", "5"), 0),
    (("verify", "--n-max", "3"), 0),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value))
def test_a_closed_pipe_exits_141_without_a_message(args, lines):
    assert _closed_pipe(["-m", "cubecovers", *args], lines) == (141, b"")


def test_a_failing_verify_that_cannot_write_exits_141():
    assert _closed_pipe(["-c", FAILING_VERIFY], 0) == (141, b"")
    # Its output written, the same run fails as a verification.
    written = subprocess.run([sys.executable, "-c", FAILING_VERIFY], env=ENV,
                             capture_output=True, timeout=60)
    assert written.returncode == 1 and b'"passed": false' in written.stdout


def test_an_interrupt_exits_130_without_a_traceback():
    # ``enumerate --n 6`` runs for about a minute.  SIGINT is restored to
    # its default in the child, as a shell that starts a job in the
    # background may have it ignored.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubecovers", "enumerate", "--n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        assert proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert b"Traceback" not in err
