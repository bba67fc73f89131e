"""The README's Python examples run as doctests, and its command lines run."""

import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from skos.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_pass():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0 and failed == 0


def _block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after ``heading`` in the README."""
    text = README.read_text()
    return re.search(rf"```{fence}\n(.*?)```", text[text.index(heading):], re.S).group(1)


COMMANDS = _block("## Command line", "sh").splitlines()


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch):
    """Each command of the "Command line" block exits 0 with some output,
    ``m.json`` being the README's supermatrix record."""
    (tmp_path / "m.json").write_text(_block("A supermatrix input file", "json"))
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)
    assert argv[0] == "skos"
    out, err = io.StringIO(), io.StringIO()
    assert (run(argv[1:], out, err), err.getvalue()) == (0, "")
    assert out.getvalue()


def test_readme_lists_seven_commands():
    assert len(COMMANDS) == 7
