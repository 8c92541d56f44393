"""Self-tests of the benchmark: its gates reject corrupted outputs, and its
tracing leaves no wrapper behind.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json

import pytest
from click.testing import CliRunner

import gates
import run
import spans
from cubecovers import cli, counting, digraph


def _cli(*args: str) -> tuple[int, bytes]:
    result = CliRunner().invoke(cli.main, list(args))
    return result.exit_code, result.stdout_bytes


def _failed(gate, exit_code: int, output: bytes) -> bool:
    """Whether the benchmark counts the operation as failed."""
    result = {"problem": None, "exit_code": exit_code, "output": output,
              "stderr_tail": ""}
    return run.gated(gate, result, {})["problem"] is not None


def test_every_flipped_byte_in_the_enumerate_stream_fails():
    code, output = _cli("enumerate", "--n", "3", "--matrices", "--format", "json")
    sha = gates.digest(output)

    def gate(c, o):
        return gates.check_enumerate(c, o, 3, 25, sha)

    assert not _failed(gate, code, output)
    for i in range(len(output)):
        flipped = bytearray(output)
        flipped[i] ^= 1
        assert _failed(gate, code, bytes(flipped)), i


@pytest.mark.parametrize("column, n", [(1, 6), (2, 6), (2, 17)])
def test_one_wrong_table_entry_fails_even_with_a_matching_digest(column, n):
    max_n = 20
    oracle = gates.table_oracle(max_n)
    rows = [list(row) for row in counting.sequence_table(max_n)]

    def dump(table):
        return "".join(f"{m} {d:x} {v:x}\n" for m, d, v in table).encode()

    good = dump(rows)
    assert gates.check_table(0, good, oracle, gates.digest(good)) is None
    rows[n][column] += 1
    bad = dump(rows)
    assert gates.check_table(0, bad, oracle, gates.digest(bad)) is not None


def test_table_probe_gate_accepts_the_csv_of_the_same_table():
    max_n = 20
    table = "".join(f"{n} {d:x} {v:x}\n" for n, d, v in counting.sequence_table(max_n))
    code, output = _cli("table", "--max-n", str(max_n), "--format", "csv")
    assert gates.check_table_probe(code, output, gates.digest(table.encode())) is None
    assert gates.check_table_probe(1, output, gates.digest(table.encode())) is not None


def test_a_dropped_or_failed_verify_check_fails():
    code, output = _cli(*run.VERIFY_CALL[1:])
    assert not _failed(gates.check_verify, code, output)
    payload = json.loads(output)
    for i in range(len(payload["checks"])):
        checks = payload["checks"][:i] + payload["checks"][i + 1:]
        dropped = dict(payload, checks=checks)
        assert _failed(gates.check_verify, code, json.dumps(dropped).encode()), i
    wrong = json.loads(output)
    wrong["checks"][-1]["pass"] = False
    assert _failed(gates.check_verify, code, json.dumps(wrong).encode())
    assert _failed(gates.check_verify, 1, output)


def _bindings():
    import sys

    snapshot = {}
    for name, module in sys.modules.items():
        if name == "cubecovers" or name.startswith("cubecovers."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    from cubecovers.gf2 import BitMatrix

    snapshot.update({("BitMatrix", k): v for k, v in vars(BitMatrix).items()})
    return snapshot


def test_tracing_wrappers_are_removed_after_the_traced_run():
    before = _bindings()
    with spans.tracing() as tracer:
        assert _bindings() != before
        code, _ = _cli("verify", "--n-max", "3", "--series-order", "4")
        assert code == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    recorded = len(tracer.spans)
    assert recorded > 0
    counting.count_orientable_dags(9)
    list(digraph.enumerate_acyclic(2))
    assert len(tracer.spans) == recorded


def test_traced_counts_and_self_times():
    with spans.tracing() as tracer:
        index = tracer.open(spans.CLI_SPAN)
        code, output = _cli("enumerate", "--n", "3", "--matrices", "--format", "json")
        tracer.close(index)
    assert code == 0
    records = tracer.records()
    metrics = spans.layer_metrics(records, output)
    assert metrics["digraph.codes_scanned"] == 64
    assert metrics["digraph.acyclic_yield"] == 25 / 64
    assert metrics["correspondence.characteristic_matrix_calls"] == 25
    assert metrics["cli.output_lines"] == 26
    root = records[0]
    assert root["name"] == spans.CLI_SPAN and root["parent"] is None
    wall = root["end"] - root["start"]
    assert sum(r["self_s"] for r in records) == pytest.approx(wall, rel=1e-6)


def test_brute_counts_annotation():
    with spans.tracing() as tracer:
        from cubecovers import correspondence

        correspondence.brute_counts(3)
        correspondence.brute_counts(4, 10, 20)
    metrics = spans.layer_metrics(tracer.records(), b"")
    assert metrics["correspondence.codes_scanned"] == 64 + 10
    assert metrics["correspondence.workers"] == 1


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(10)]) is None
    assert run.tail(list(range(11))) == (0, 100.0 / 11)
    assert run.tail(list(range(40))) == (29, 75.0)


def test_operation_time_is_reported_over_the_reference_time(tmp_path):
    result = run.spawn([["cli", "constants", "--format", "json"]], False, tmp_path)
    assert result["problem"] is None and result["exit_code"] == 0
    assert result["ref_s"] > 0
    assert result["op_ref"] == result["op_s"] / result["ref_s"]
    setup_only = run.spawn([], False, tmp_path)
    assert setup_only["problem"] is None and setup_only["op_ref"] is None
