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
    # enumerate in every flag combination at n = 0, 1 and 2, and in the rest
    # at n = 5, where 8 of the 29 batches of 1,024 codes hold no orientable
    # graph and print nothing.
    ("enumerate", "--n", "5", "--format", "json"):
        "03371f1a1ec56a35a065a483a3d30a576849736c66dcdf43208b4a09f294d544",
    ("enumerate", "--n", "5", "--matrices"):
        "49b8d23ebe154e4fb02a800d0b70784251d04f5f7bb37d791b44b5868dc9ea5f",
    ("enumerate", "--n", "5", "--orientable"):
        "2356c6951811177b29f34e7a7e74feb6159fbe9e13ea4a586ea892382cade92d",
    ("enumerate", "--n", "5", "--orientable", "--format", "json"):
        "4211c3985609a41534a090d81a24881acb1f4b7f64cd51f53222965f11eec37b",
    ("enumerate", "--n", "5", "--orientable", "--matrices", "--format", "json"):
        "2e17654cfeb149986d2f1a444e8aa0901fd3cd94483218e264758296b153b110",
    ("enumerate", "--n", "0"):
        "6ab976029dc64ba6411f46103f6013152e90d55a33d6f12413e820ea6364bf61",
    ("enumerate", "--n", "0", "--format", "json"):
        "46facd685b6bcc7515013082211eb9dfe576d724e233a70c0d6bcd56fa84ee5f",
    ("enumerate", "--n", "0", "--matrices"):
        "97729be23f2a0c6f6b35f1d845be1673b2f6ab6eedd2da8da7898edc57897355",
    ("enumerate", "--n", "0", "--matrices", "--format", "json"):
        "b8b94d5e10b67e3a9c58e2f771101c86a4a403c9e4888deb84eda288ae6f251f",
    ("enumerate", "--n", "0", "--orientable"):
        "6ab976029dc64ba6411f46103f6013152e90d55a33d6f12413e820ea6364bf61",
    ("enumerate", "--n", "0", "--orientable", "--format", "json"):
        "46facd685b6bcc7515013082211eb9dfe576d724e233a70c0d6bcd56fa84ee5f",
    ("enumerate", "--n", "0", "--orientable", "--matrices"):
        "97729be23f2a0c6f6b35f1d845be1673b2f6ab6eedd2da8da7898edc57897355",
    ("enumerate", "--n", "0", "--orientable", "--matrices", "--format", "json"):
        "b8b94d5e10b67e3a9c58e2f771101c86a4a403c9e4888deb84eda288ae6f251f",
    ("enumerate", "--n", "1"):
        "6ab976029dc64ba6411f46103f6013152e90d55a33d6f12413e820ea6364bf61",
    ("enumerate", "--n", "1", "--format", "json"):
        "46facd685b6bcc7515013082211eb9dfe576d724e233a70c0d6bcd56fa84ee5f",
    ("enumerate", "--n", "1", "--matrices"):
        "3fffc13e52932cd25c48cb09205470bca53258616cd396b8a80636fbddf3ef33",
    ("enumerate", "--n", "1", "--matrices", "--format", "json"):
        "b3f7f22693be4ff207177f9672fc5c432f1ef55ca3ba9c82298ede198932691f",
    ("enumerate", "--n", "1", "--orientable"):
        "6ab976029dc64ba6411f46103f6013152e90d55a33d6f12413e820ea6364bf61",
    ("enumerate", "--n", "1", "--orientable", "--format", "json"):
        "46facd685b6bcc7515013082211eb9dfe576d724e233a70c0d6bcd56fa84ee5f",
    ("enumerate", "--n", "1", "--orientable", "--matrices"):
        "3fffc13e52932cd25c48cb09205470bca53258616cd396b8a80636fbddf3ef33",
    ("enumerate", "--n", "1", "--orientable", "--matrices", "--format", "json"):
        "b3f7f22693be4ff207177f9672fc5c432f1ef55ca3ba9c82298ede198932691f",
    ("enumerate", "--n", "2"):
        "c99fcd7728fb0a6c226436fa24449cd9d44c99b7577d4b7500929bf3fb05500f",
    ("enumerate", "--n", "2", "--format", "json"):
        "4feb0c1fe227e33d29469f55c34f2c48f0af79e1ed52c609d8948ddc83c28951",
    ("enumerate", "--n", "2", "--matrices"):
        "74bb87379a5a2afc6314f094ebff8fe8ecc120f5e610d939230b88e8b5203a7b",
    ("enumerate", "--n", "2", "--matrices", "--format", "json"):
        "addbb87cb7a06436304fbb85deb4b7af27df70ae7d6e185c52e463e002bfe000",
    ("enumerate", "--n", "2", "--orientable"):
        "6ab976029dc64ba6411f46103f6013152e90d55a33d6f12413e820ea6364bf61",
    ("enumerate", "--n", "2", "--orientable", "--format", "json"):
        "46facd685b6bcc7515013082211eb9dfe576d724e233a70c0d6bcd56fa84ee5f",
    ("enumerate", "--n", "2", "--orientable", "--matrices"):
        "33c918d8ea331ecc312f33dd3dcbaeb87d9992da57ffc62838562d9f0343d253",
    ("enumerate", "--n", "2", "--orientable", "--matrices", "--format", "json"):
        "0313979e37ce6f94f806b2d9cd3f8590ced963094db684bfad50bf0ac686b8f0",
}


@pytest.mark.parametrize("args", list(PINNED), ids=" ".join)
def test_cli_output_bytes_are_pinned(args):
    result = CliRunner().invoke(cli.main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED[args]
