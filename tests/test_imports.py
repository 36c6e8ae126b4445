"""Guard on start-up: each command loads only the modules it runs, only
`peakon` and `wave` import numpy, and a one-shot command keeps nothing in
the store of size-only results.  Every case runs in a fresh interpreter,
since this process has long since imported the whole package."""

import json
import os
import subprocess
import sys

import pytest

CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

# Runs its argv through main() and prints the exit code, what got loaded and
# how many parsers were built.
CHILD = """
import json, sys
import canadaday.cli
argv = json.loads(sys.argv[1])
code = canadaday.cli.main(argv) if argv else None
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "parsers": canadaday.cli._build_parser.cache_info().currsize,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "canadaday"),
}))
"""


def _loaded(argv):
    run = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_importing_the_cli_loads_neither_commands_nor_numpy():
    assert _loaded([]) == {
        "code": None,
        "numpy": False,
        "parsers": 0,
        "modules": ["canadaday", "canadaday.cli", "canadaday.exact_linalg"],
    }


# (argv, the modules besides exact_linalg that the command loads)
EXACT_COMMANDS = [
    (["verify-theorem", "--n", "3", "--trials", "1"], ["minor_sums"]),
    (["verify-lemmas", "--n", "2"], ["lemmas", "lgv", "matchings", "minor_sums"]),
    (["orbit-audit", "--n", "3", "--k", "2"], ["matchings", "minor_sums"]),
    (["lgv-audit", "--n", "3"], ["lgv", "minor_sums"]),
]


@pytest.mark.parametrize("argv,own", EXACT_COMMANDS, ids=[c[0][0] for c in EXACT_COMMANDS])
def test_exact_commands_run_without_numpy(argv, own):
    base = ["canadaday", "canadaday.cli", "canadaday.exact_linalg"]
    assert _loaded(argv + ["--out", os.devnull]) == {
        "code": 0,
        "numpy": False,
        "parsers": 1,
        "modules": sorted(base + [f"canadaday.{m}" for m in own]),
    }


def test_peakon_loads_the_peakon_module(tmp_path):
    state = tmp_path / "state.json"
    state.write_text('{"x": [-1.0, 1.0], "m": [1.0, 2.0]}')
    got = _loaded(["peakon", "--state", str(state), "--t-end", "0.01", "--out", os.devnull])
    assert got["code"] == 0 and got["numpy"]
    assert "canadaday.peakon" in got["modules"]


# Runs one command through main() and prints what the store of size-only
# results holds: the sizes asked for once, by kind, and how many are kept.
KEPT_CHILD = """
import json, os, sys
from collections import Counter
import canadaday.cli
code = canadaday.cli.main(sys.argv[1:] + ["--out", os.devnull])
from canadaday import minor_sums
store = minor_sums._STORE
print(json.dumps({
    "code": code,
    "asked": Counter(key[0] for key, v in store.items() if v is minor_sums._ASKED_ONCE),
    "kept": sum(v is not minor_sums._ASKED_ONCE for v in store.values()),
}))
"""


def test_one_shot_lemma_suite_keeps_no_partition():
    run = subprocess.run(
        [sys.executable, "-c", KEPT_CHILD, "verify-lemmas", "--n", "4"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert run.returncode == 0, run.stderr
    # every M_{n,k} with n <= 4 partitioned and counted once, every T table
    # up to n = 4 built once, and nothing kept
    assert json.loads(run.stdout) == {
        "code": 0, "asked": {"partition": 14, "enumerated": 14, "t_minors": 4}, "kept": 0,
    }
