"""Oracle gates: each checks one operation's exit code and output.

A gate returns None when the output is right and a one-line reason when it
is not.  The gates run outside the timed region.  What they compare against
is independent of the code path under test: the paper's table for small n,
the orientable counts from the series quotient (which never calls the
counting formulas), a depth-first acyclicity test, the characteristic
matrix recomputed here, and the record lists and output digests that the
parent commit of this benchmark produced (``expected.json``).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from cubecovers.digraph import Digraph, is_acyclic_dfs
from cubecovers.series import orientable_from_quotient

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# The paper's values for n = 0..7 (A003024, and the orientable subsequence
# with the combinatorial value 1 at n = 0).
PAPER_DAGS = [1, 1, 3, 25, 543, 29281, 3781503, 1138779265]
PAPER_ORIENTABLE = [1, 1, 1, 4, 43, 1156, 74581, 11226874]

ALPHA_PREFIX = "-1.48807"
RATIO_PREFIX = "1.26176"

_BRUTE = re.compile(r"brute=(\d+) formula=(\d+)")


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def _record_keys(payload: dict) -> list[list]:
    return [
        [c["check"], c.get("identity"), c.get("n"), c.get("order")]
        for c in payload["checks"]
    ]


def _verify_payload(payload: dict, records: list[list]) -> str | None:
    if payload.get("passed") is not True:
        return "verify reported passed != true"
    failed = [c["check"] for c in payload["checks"] if not c["pass"]]
    if failed:
        return f"checks failed: {failed}"
    if _record_keys(payload) != records:
        return "check records differ from the expected (check, scope) list"
    return None


def check_verify(exit_code: int, output: bytes) -> str | None:
    """``verify --n-max 5 --series-order 12``: every check passes, the record
    list is the expected one, and brute-force counts equal the paper's."""
    if exit_code:
        return f"exit code {exit_code}"
    payload = json.loads(output)
    problem = _verify_payload(payload, EXPECTED["verify_records"])
    if problem:
        return problem
    for c in payload["checks"]:
        match = _BRUTE.fullmatch(c.get("detail") or "")
        if not match:
            continue
        paper = PAPER_ORIENTABLE if c["check"].startswith("orientable") else PAPER_DAGS
        brute, formula = int(match[1]), int(match[2])
        if brute != paper[c["n"]] or formula != paper[c["n"]]:
            return f"{c['check']} n={c['n']}: {brute}/{formula}, paper {paper[c['n']]}"
    return None


def table_oracle(max_n: int) -> list[int]:
    """V(1..max_n) from the series quotient, independent of the counting code."""
    coeffs = orientable_from_quotient(max_n).coeffs[1:]
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("series quotient gave a non-integer coefficient")
    return [c.numerator for c in coeffs]


def parse_table(output: bytes) -> list[tuple[int, int, int]]:
    """Rows ``n D V`` in hexadecimal, as the benchmark's child prints them."""
    rows = []
    for line in output.decode().splitlines():
        n, d, v = line.split()
        rows.append((int(n), int(d, 16), int(v, 16)))
    return rows


def check_table(
    exit_code: int, output: bytes, oracle: list[int], sha256: str
) -> str | None:
    """``sequence_table(N)``: rows 0..N, the paper's values for n <= 7, V(n)
    equal to the series quotient for 1 <= n <= N, and bytes matching
    ``sha256``."""
    if exit_code:
        return f"exit code {exit_code}"
    rows = parse_table(output)
    if [n for n, _, _ in rows] != list(range(len(oracle) + 1)):
        return "table rows are not n = 0..N in order"
    for n, d, v in rows[: len(PAPER_DAGS)]:
        if d != PAPER_DAGS[n] or v != PAPER_ORIENTABLE[n]:
            return f"n={n}: ({d}, {v}) differs from the paper"
    for (n, _, v), want in zip(rows[1:], oracle):
        if v != want:
            return f"V({n}) differs from the series quotient"
    if digest(output) != sha256:
        return "table digest differs from the pinned one"
    return None


def check_table_probe(exit_code: int, output: bytes, sha256: str) -> str | None:
    """``table --max-n N --format csv``: exit 0 and the same table as the
    library call, whose hexadecimal form has digest ``sha256``."""
    if exit_code:
        return f"exit code {exit_code}"
    lines = output.decode().splitlines()
    if lines[:1] != ["n,dags,orientable"]:
        return "missing CSV header"
    # Parsing the decimals needs the limit this check is not about.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        hexed = "".join(
            f"{n} {int(d):x} {int(v):x}\n"
            for n, d, v in (line.split(",") for line in lines[1:])
        )
    finally:
        sys.set_int_max_str_digits(limit)
    if digest(hexed.encode()) != sha256:
        return "CSV table differs from the pinned table"
    return None


def _matrix_rows(n: int, edges: set[tuple[int, int]]) -> list[str]:
    # A(G)^t + I: entry (i, j) is 1 when i == j or the edge j -> i exists.
    return [
        "".join("1" if i == j or (j, i) in edges else "0" for j in range(n))
        for i in range(n)
    ]


def _edges_of_code(n: int, code: int) -> list[list[int]]:
    # Off-diagonal adjacency bits in row-major order, lowest bit first.
    edges = []
    for u in range(n):
        for b in range(n - 1):
            if (code >> (u * (n - 1) + b)) & 1:
                edges.append([u, b if b < u else b + 1])
    return edges


def check_enumerate(
    exit_code: int, output: bytes, n: int, count: int, sha256: str
) -> str | None:
    """``enumerate --n N --matrices --format json``: ``count`` records in
    increasing code order, each acyclic by depth-first search, with the
    edges its code encodes and the matrix A^t + I, then the count line; the
    bytes match ``sha256``."""
    if exit_code:
        return f"exit code {exit_code}"
    lines = output.splitlines()
    if not lines or json.loads(lines[-1]) != {"count": str(count)}:
        return "final count line is wrong"
    if len(lines) - 1 != count:
        return f"{len(lines) - 1} records listed, expected {count}"
    previous = -1
    for line in lines[:-1]:
        record = json.loads(line)
        code, edges = record["code"], record["edges"]
        if code <= previous:
            return f"code {code} out of canonical order"
        previous = code
        if edges != _edges_of_code(n, code):
            return f"code {code}: edges do not match the code"
        if not is_acyclic_dfs(Digraph.from_edges(n, edges)):
            return f"code {code} has a directed cycle"
        if record["matrix"] != _matrix_rows(n, {tuple(e) for e in edges}):
            return f"code {code}: matrix is not A^t + I"
    if digest(output) != sha256:
        return "output bytes differ from the pinned stream"
    return None


def check_series(exit_code: int, output: bytes) -> str | None:
    """``verify --series --series-order 200`` then ``constants``: the checks
    pass with the expected records, and alpha and K/C match the paper."""
    if exit_code:
        return f"exit code {exit_code}"
    lines = output.splitlines()
    if len(lines) != 2:
        return f"expected 2 output lines, got {len(lines)}"
    problem = _verify_payload(json.loads(lines[0]), EXPECTED["series_records"])
    if problem:
        return problem
    constants = json.loads(lines[1])
    if not constants["alpha"].startswith(ALPHA_PREFIX):
        return f"alpha {constants['alpha']} is not {ALPHA_PREFIX}..."
    if not constants["ratio_factor"].startswith(RATIO_PREFIX):
        return f"K/C {constants['ratio_factor']} is not {RATIO_PREFIX}..."
    return None
