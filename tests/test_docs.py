"""The README's library quick tour runs as written and prints what it says."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour") :]
    return section[section.index("```python\n") + len("```python\n") : section.index("\n```\n")]


def test_readme_quick_tour_runs():
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(_quick_tour(), str(README), "exec"), {})
    clusters, classification, run = out.getvalue().splitlines()
    assert clusters == "['closed', 'open', 'closed']"
    assert classification == "interlacing"
    assert re.fullmatch(r"ok \S+ True", run)
    assert float(run.split()[1]) <= 1e-7
