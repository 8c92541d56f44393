"""Every narrative script under ``demos/`` runs to completion and prints,
and the README's library session gives the output it shows."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_are_present():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=120, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_session():
    # The section "Library in one minute", up to the next heading.  The
    # n = 6 matrix deep check sits in another section because it takes
    # seconds.
    text = README.read_text()
    section = text.split("## Library in one minute\n", 1)[1].split("\n## ", 1)[0]
    session = doctest.DocTestParser().get_doctest(
        section, {}, "README library session", str(README), None
    )
    report = []
    result = doctest.DocTestRunner().run(session, out=report.append)
    assert result.failed == 0, "".join(report)
    assert result.attempted == 8
