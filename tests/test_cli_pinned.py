"""Byte-for-byte pins of CLI output.

Each digest is the sha256 of what the command prints.  A kernel change
that alters a check record, a number's rendering or the order in which
graphs are enumerated changes a digest, so it cannot slip through as a
pure speedup.  If an output is meant to change, recompute the digest and
say why in the change log.
"""

import hashlib

import pytest
from click.testing import CliRunner

from cubecovers import cli

PINNED = {
    ("verify", "--n-max", "4", "--format", "json"):
        "05efd9a1588b10bb650443f11f40fc588edbfea1b37e43d842a5b15381e1b9ca",
    ("verify", "--format", "text"):
        "672b7e36d192c6e2357d7fac69445106cb883ef1bf04e1dab48be754fd24b63c",
    ("enumerate", "--n", "4", "--matrices", "--format", "json"):
        "e0c02e657788cbab6392e45a56a5b23210d885295deecaa24635415e50aaadc4",
    ("verify", "--n-max", "5", "--series-order", "12", "--format", "json"):
        "89b07ffaf6dd1a877519e0f3594cf909f67cc923c1b14978434b3260a95e3ac8",
    ("enumerate", "--n", "5", "--matrices", "--format", "json"):
        "5ac82e1a8e40fd762785e7849871d37c7770a1c86bc3fde958a4ae29eb7f8b4d",
    ("enumerate", "--n", "5"):
        "3aa56f6aba0f93baaf69d306658a4654532daf7a7fc88c10b04b31eaa0141ec0",
    ("enumerate", "--n", "5", "--orientable", "--matrices"):
        "83d8ce0add7fa37dac95e6b68f42435fce3acbda4206da4053b75cd4ef6d60c6",
    ("asymptotic", "--n", "30", "--format", "json"):
        "2bf302692d47e37887fc2089fe28635e91576355dc9cd82229f9d17e2dbf92c6",
    ("constants", "--format", "json"):
        "061752022b81db2565156129a3590c1772c97b6660421a3195d9d12f166d45d1",
    ("table", "--max-n", "30", "--format", "csv"):
        "f1d6073f15f9efc64014654cde01b771bbd836538259aa07505eedfc1ffa3538",
    # Real sizes: every parity branch of the counting and series kernels,
    # and the benchmarked series output.
    ("verify", "--series", "--series-order", "200", "--format", "json"):
        "0f8c99170fd121a109ee4914c32e796e3cc72767b3d95b69c7616a3b69232c66",
    ("table", "--max-n", "200", "--format", "csv"):
        "a22936d8a3b5aed71ab606531b8609ce13e3ec83f92acac9bf6c9a638aa956b3",
}


@pytest.mark.parametrize("args", list(PINNED), ids=" ".join)
def test_cli_output_bytes_are_pinned(args):
    result = CliRunner().invoke(cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED[args]
