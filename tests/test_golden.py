"""Byte-for-byte guard on the CLI's deterministic reports.

Each case runs one command in both output formats and compares the report,
and the exit code, with the files under tests/golden/; the CSV cases do the
same for the `wave` and `peakon --wave-out` files.  The peakon figures are
floats: the states come from the stepper's plain float arithmetic, H_k, c_k
and the wave profile from numpy products and eigenvalues, so their golden
files hold for one numpy/BLAS build, and they change whenever the stepper's
rounding does.  A report is only meant to change on purpose; regenerate the
files from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from canadaday.cli import main

GOLDEN = Path(__file__).parent / "golden"
MATRIX = GOLDEN / "matrix_3x3_rational.json"
STATE = GOLDEN / "state_6peakons.json"
FORMATS = {"json": "json", "text": "txt"}

# (golden file stem, argv without output flags, expected exit code)
CASES = [
    ("theorem_n4_trials3_seed7", ["verify-theorem", "--n", "4", "--trials", "3", "--seed", "7"], 0),
    ("theorem_n3_trials4_asymmetric", ["verify-theorem", "--n", "3", "--trials", "4", "--asymmetric"], 0),
    ("theorem_n5_k2_trials2", ["verify-theorem", "--n", "5", "--k", "2", "--trials", "2"], 0),
    ("theorem_n6_trials1_seed5", ["verify-theorem", "--n", "6", "--trials", "1", "--seed", "5"], 0),
    ("lemmas_n3", ["verify-lemmas", "--n", "3"], 0),
    ("lemmas_n2_corrupt_sign", ["verify-lemmas", "--n", "2", "--corrupt-sign"], 1),
    ("lemmas_n4", ["verify-lemmas", "--n", "4"], 0),
    ("orbit_audit_n3_k2_seed9", ["orbit-audit", "--n", "3", "--k", "2", "--seed", "9"], 0),
    ("orbit_audit_n3_k0", ["orbit-audit", "--n", "3", "--k", "0"], 0),
    ("orbit_audit_n3_k2_matrix", ["orbit-audit", "--n", "3", "--k", "2", "--matrix", str(MATRIX)], 0),
    # p = 2 orbits: members reached by two composed flips
    ("orbit_audit_n5_k3_seed4", ["orbit-audit", "--n", "5", "--k", "3", "--seed", "4"], 0),
    ("lgv_audit_n4", ["lgv-audit", "--n", "4"], 0),
    ("peakon_n6", ["peakon", "--state", str(STATE), "--t-end", "0.5", "--sample-every", "50"], 0),
    (
        "peakon_n6_dt1e-2_tol1e-12",
        ["peakon", "--state", str(STATE), "--dt", "1e-2", "--t-end", "1", "--tol", "1e-12"],
        1,
    ),
]

# (golden CSV stem, argv that writes the CSV to the path appended to it)
CSV_CASES = [
    ("wave_n6", ["wave", "--state", str(STATE), "--points", "21", "--out"]),
    (
        "peakon_n6_wave",
        ["peakon", "--state", str(STATE), "--t-end", "0.5", "--sample-every", "250",
         "--wave-points", "11", "--out", os.devnull, "--wave-out"],
    ),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(stem, argv, code, fmt, tmp_path):
    out = tmp_path / "report"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{stem}.{FORMATS[fmt]}").read_bytes()


@pytest.mark.parametrize("stem,argv", CSV_CASES, ids=[c[0] for c in CSV_CASES])
def test_csv_matches_golden(stem, argv, tmp_path):
    out = tmp_path / "wave.csv"
    assert main(argv + [str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()


def test_golden_files_are_the_cases_and_their_inputs():
    # a renamed case would otherwise leave its old files behind, read by nothing
    expected = [f"{stem}.{ext}" for stem, _, _ in CASES for ext in FORMATS.values()]
    expected += [f"{stem}.csv" for stem, _ in CSV_CASES] + [MATRIX.name, STATE.name]
    assert len(set(expected)) == len(expected)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)


if __name__ == "__main__":
    for stem, argv, code in CASES:
        for fmt, ext in FORMATS.items():
            target = GOLDEN / f"{stem}.{ext}"
            assert main(argv + ["--format", fmt, "--out", str(target)]) == code, stem
    for stem, argv in CSV_CASES:
        assert main(argv + [str(GOLDEN / f"{stem}.csv")]) == 0, stem
