import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner

from cubecovers import (
    Digraph, IdentityCheck, cli, correspondence, counting, digraph, gf2,
    is_acyclic_dfs, series,
)


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


def test_enumerate_respects_cap(runner):
    assert invoke(runner, "enumerate", "--n", "7").exit_code == 2
    assert invoke(runner, "enumerate", "--n", "3", "--enum-cap", "2").exit_code == 2


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


def test_verify_jobs_flag(runner):
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "4",
                    "--jobs", "2")
    assert result.exit_code == 0
    assert json.loads(result.output)["passed"] is True


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
                if broken(correspondence.adjacency_rows(gf2.unpack_rows(rows, n), n)):
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


@pytest.mark.parametrize("args", [("--n-max", "7"), ("--n-max", "9", "--jobs", "2")],
                         ids=" ".join)
def test_verify_above_the_cap_refuses_before_any_brute_force(runner, monkeypatch, args):
    calls = []
    brute = correspondence.brute_counts

    def recorded(*call_args, **kwargs):
        calls.append(call_args)
        return brute(*call_args, **kwargs)

    monkeypatch.setattr(correspondence, "brute_counts", recorded)
    result = invoke(runner, "verify", *args)
    assert result.exit_code == 2
    assert "refusing an exhaustive walk at n = 7: the cap is 6" in result.output
    assert calls == []
    assert invoke(runner, "verify", "--series", *args, "--order", "4").exit_code == 0


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
