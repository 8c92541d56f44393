import json

import pytest
from click.testing import CliRunner

from cubecovers import Digraph, IdentityCheck, cli, correspondence, counting, series


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


def test_verify_detects_corrupted_counts(runner, monkeypatch):
    monkeypatch.setattr(counting, "_DAG_COUNTS", [1, 1, 3, 26])
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "5")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["passed"] is False
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert any(c["check"] == "dag-count-bruteforce" and c.get("n") == 3 for c in failing)
    assert any(
        c["check"] == "series-identity" and c["first_failure"] == 3 for c in failing
    )


def test_verify_text_format_failure_names_the_check(runner, monkeypatch):
    monkeypatch.setattr(counting, "_DAG_COUNTS", [1, 1, 3, 26])
    result = invoke(runner, "verify", "--n-max", "3", "--series-order", "5",
                    "--format", "text")
    assert result.exit_code == 1
    assert "FAIL dag-count-bruteforce" in result.output


def _break_codes_12_and_48(check, monkeypatch):
    """Make ``check`` fail on the n = 3 graphs with codes 12 and 48 only."""

    def broken(graph):
        return graph.n == 3 and graph.code() in (12, 48)

    if check == "round-trip":
        original = correspondence.digraph_from_characteristic

        def wrong_inverse(matrix):
            graph = original(matrix)
            return Digraph.empty(3) if broken(graph) else graph

        monkeypatch.setattr(correspondence, "digraph_from_characteristic", wrong_inverse)
    elif check == "orientability-equivalence":
        even = Digraph.all_out_degrees_even
        monkeypatch.setattr(Digraph, "all_out_degrees_even",
                            lambda graph: even(graph) != broken(graph))
    else:
        acyclic = Digraph.is_acyclic
        monkeypatch.setattr(Digraph, "is_acyclic",
                            lambda graph: acyclic(graph) and not broken(graph))


@pytest.mark.parametrize(
    "check", ["round-trip", "orientability-equivalence", "acyclicity-transfer"]
)
def test_verify_names_the_first_graph_that_breaks_a_per_graph_check(
    runner, monkeypatch, check
):
    _break_codes_12_and_48(check, monkeypatch)
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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3", "0", "1e-15", "9.9e-15"])
def test_constants_rejects_bad_tolerance(runner, tol):
    result = invoke(runner, "constants", f"--tol={tol}", "--format", "json")
    assert result.exit_code == 2
    assert "Invalid value for '--tol'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_constants_prints_no_more_digits_than_the_tolerance_resolves(runner):
    result = invoke(runner, "constants", "--tol", "0.5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["alpha"] == "-1"
    assert payload["ratio_factor"] == "1"
    result = invoke(runner, "constants", "--tol", "1e-3", "--format", "json")
    payload = json.loads(result.output)
    assert payload["alpha"] == "-1.488" and payload["tolerance"] == 0.001
    result = invoke(runner, "constants", "--tol", "1e-14", "--digits", "17")
    assert result.exit_code == 0
    assert "alpha                 = -1.48807854559" in result.output
    assert "alpha                 = -1.488078545595" not in result.output


def test_constants_accepts_more_terms_than_a_float_can_scale(runner):
    # (n + 1) * 2^n leaves float range near n = 1020; the partial sum has
    # long stopped changing by then, so a large --terms prints the default
    # constants, not an OverflowError.
    result = invoke(runner, "constants", "--terms", "1100", "--format", "json")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    default = json.loads(invoke(runner, "constants", "--format", "json").output)
    assert payload == {**default, "truncation": 1100}


def test_asymptotic_side_by_side(runner):
    result = invoke(runner, "asymptotic", "--n", "7", "--format", "json")
    payload = json.loads(result.output)
    assert payload["dags"] == "1138779265"
    assert payload["orientable"] == "11226874"
    ratio_exact = float(payload["ratio_exact"])
    ratio_estimate = float(payload["ratio_estimate"])
    assert abs(ratio_estimate / ratio_exact - 1) < 0.01


def test_asymptotic_survives_huge_n(runner):
    result = invoke(runner, "asymptotic", "--n", "60", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dag_estimate"] == "inf"  # past double range, logs still finite
    assert float(payload["log_dag_estimate"]) > 0


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
