"""Workload definitions, the seed rule and the seeded input generators.

A workload is a list of jobs; a job is one or two `canadaday` CLI
invocations (argv lists, run in-process through `canadaday.cli.main`), each
writing a JSON report with `--format json --out <file>`.  Jobs of one run
differ only by their job seed, which is derived from the benchmark seed by
`job_seed`.  Input documents (matrices, peakon states) are generated at
set-up for a fixed pool of job indices; each is written to a file before its
job first runs and reaches the program only as a CLI flag.

This module imports nothing from `canadaday`, so the generators stay
independent of the program they feed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Job indices 0 and 1 are warm-up jobs; timed jobs cycle through 2..POOL-1.
POOL = 256
WARMUP = 2

# Rational X for orbit-audit: entries p/q with |p| <= P_BOUND, 1 <= q <= Q_BOUND.
AUDIT_N, AUDIT_K = 5, 3
P_BOUND, Q_BOUND = 9, 9

# Peakon states: PEAKONS positions on an even grid over [-X_SPAN, X_SPAN],
# each moved by at most X_JITTER, so neighbours start at least
# 2 * X_SPAN / (PEAKONS - 1) - 2 * X_JITTER = 2.0 apart; amplitudes in
# [M_MIN, M_MAX].
PEAKONS = 6
X_SPAN, X_JITTER = 9.0, 0.8
M_MIN, M_MAX = 0.5, 2.0


def job_seed(seed: int, index: int) -> int:
    """Seed of job `index` in a run with benchmark seed `seed`."""
    return (seed * 1_000_003 + index) % 2**31


def rational_symmetric(seed: int, n: int = AUDIT_N) -> list[list[Fraction]]:
    """Seeded symmetric n x n matrix of p/q entries (|p| <= 9, 1 <= q <= 9)
    with at least one non-integer entry."""
    rng = random.Random(seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-P_BOUND, P_BOUND), rng.randint(1, Q_BOUND))
            rows[i][j] = rows[j][i] = v
    if all(v.denominator == 1 for row in rows for v in row):
        # 1/2 is not an integer and keeps |p| and q inside the bounds.
        rows[0][0] = Fraction(1, 2)
    return rows


def peakon_state(seed: int) -> dict:
    """Seeded initial state: strictly increasing positions spread over
    [-9.8, 9.8] and amplitudes in [0.5, 2]."""
    rng = random.Random(seed)
    step = 2 * X_SPAN / (PEAKONS - 1)
    x = [-X_SPAN + i * step + rng.uniform(-X_JITTER, X_JITTER) for i in range(PEAKONS)]
    m = [rng.uniform(M_MIN, M_MAX) for _ in range(PEAKONS)]
    return {"x": x, "m": m, "t": 0.0}


@dataclass(frozen=True)
class Job:
    """One job of the pool: its seed and its input document, if any."""

    index: int
    seed: int
    input_doc: dict | None

    def input_path(self, directory: Path) -> Path | None:
        """Write the input file once, on first use; return its path."""
        if self.input_doc is None:
            return None
        path = directory / f"in-{self.index}.json"
        if not path.exists():
            path.write_text(json.dumps(self.input_doc) + "\n")
        return path


def _theorem(seed: int, inp: Path | None, outs: list[Path]) -> list[list[str]]:
    return [["verify-theorem", "--n", "6", "--trials", "1", "--seed", str(seed),
             "--format", "json", "--out", str(outs[0])]]


def _audit(seed: int, inp: Path | None, outs: list[Path]) -> list[list[str]]:
    return [
        ["verify-lemmas", "--n", "4", "--seed", str(seed),
         "--format", "json", "--out", str(outs[0])],
        ["orbit-audit", "--n", str(AUDIT_N), "--k", str(AUDIT_K), "--matrix", str(inp),
         "--format", "json", "--out", str(outs[1])],
    ]


def _peakon(seed: int, inp: Path | None, outs: list[Path]) -> list[list[str]]:
    return [["peakon", "--state", str(inp), "--dt", "1e-3", "--t-end", "1",
             "--sample-every", "100", "--format", "json", "--out", str(outs[0])]]


def _matrix_doc(seed: int) -> dict:
    rows = rational_symmetric(seed)
    return {"rows": len(rows), "cols": len(rows),
            "entries": [[str(v) for v in row] for row in rows]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: int
    argv: Callable[[int, Path | None, list[Path]], list[list[str]]]
    make_input: Callable[[int], dict] | None  # job seed -> JSON document of the input file


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "theorem",
            "verify-theorem n<=6, all k: exact minors dominate (exact_linalg, minor_sums); "
            "no-change control for lgv, matchings and peakon",
            1, _theorem, None,
        ),
        Workload(
            "audit",
            "verify-lemmas n=4 plus orbit-audit n=5 k=3 on rational X: matchings and the cli "
            "emit dominate; point and rational minors",
            2, _audit, _matrix_doc,
        ),
        Workload(
            "peakon",
            "6-peakon RK4 run with H_k sampling: the float path alone; no-change control for "
            "exact arithmetic",
            1, _peakon, peakon_state,
        ),
    ]
}


def make_jobs(workload: Workload, seed: int) -> list[Job]:
    """Generate the input documents of all POOL jobs.  They are written to
    files only when a job first runs: file creation on a shared disk is
    noisier than anything else in set-up, and it is the benchmark's cost,
    not the program's."""
    jobs = []
    for index in range(POOL):
        s = job_seed(seed, index)
        doc = workload.make_input(s) if workload.make_input is not None else None
        jobs.append(Job(index, s, doc))
    return jobs
