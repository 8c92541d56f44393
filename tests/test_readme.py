"""The README's command-line examples, run as written.

Each ``$ cubecovers ...`` block of the "Command line" section runs through
the CLI, and its output, tabs expanded to 8 columns, must read as the block
shows it.  A ``...`` line stands for any run of lines: the shown lines
around it must appear in order, the first at the start of the output and
the last at its end.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from cubecovers import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each block of the section."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    found, shown = [], None
    for line in section.splitlines():
        if line.startswith("    $ cubecovers "):
            shown = []
            found.append((line[len("    $ "):], shown))
        elif shown is not None and line.startswith("    "):
            shown.append(line[4:])
        else:
            shown = None
    return found


EXAMPLES = examples()


def test_every_subcommand_has_an_example():
    assert {command.split()[1] for command, _ in EXAMPLES} == set(cli.main.commands)


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output_reads_as_shown(command, shown):
    result = CliRunner().invoke(cli.main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.output
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown
    )
    assert re.fullmatch(pattern, result.output.expandtabs(8)), result.output
