"""The README's library quick tour and command-line examples run as written
and do what it says."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from canadaday.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, fence: str, after: str = "") -> str:
    """The first `fence` code block under `heading`, past the text `after`."""
    text = README.read_text()
    section = text[text.index(heading) :]
    start = section.index(fence, section.index(after)) + len(fence)
    return section[start : section.index("\n```\n", start)]


def _quick_tour() -> str:
    return _block("## Library quick tour", "```python\n")


def _commands() -> list[list[str]]:
    """The Command line examples as argv lists, without `canadaday` and comments."""
    lines = _block("## Command line", "```sh\n").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_quick_tour_runs():
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(_quick_tour(), str(README), "exec"), {})
    clusters, classification, run = out.getvalue().splitlines()
    assert clusters == "['closed', 'open', 'closed']"
    assert classification == "interlacing"
    assert re.fullmatch(r"ok \S+ True", run)
    assert float(run.split()[1]) <= 1e-7


def test_readme_lists_eight_commands():
    assert len(_commands()) == 8


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: " ".join(argv))
def test_readme_command_exits_as_documented(tmp_path, monkeypatch, capsys, argv):
    # state.json is the File formats example; wave's `--out wave.csv` lands in tmp_path
    state = _block("### File formats", "```json\n", after="Peakon state")
    (tmp_path / "state.json").write_text(state)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == (1 if "--corrupt-sign" in argv else 0)
    captured = capsys.readouterr()
    assert captured.err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert captured.out
