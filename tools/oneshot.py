"""Time fixed one-shot canadaday commands, each in a fresh interpreter.

    python3 tools/oneshot.py [--src DIR ...] [--repeat N]

Each command runs as `python -m canadaday ...` in a child process, with DIR
(default: the `src` directory of this checkout) on PYTHONPATH and its report
sent to /dev/null, so nothing is kept from one run to the next: this is the
path a one-shot user sees, which the benchmark's long-lived worker does not.
For each command it prints the best of N wall times and the peak RSS of that
same child, read from `os.wait4`, then one JSON line with those figures.  The
`peakon` command steps the 6-peakon golden state of this checkout,
`tests/golden/state_6peakons.json`, whichever `--src` runs it.

Given `--src` more than once, it runs the checkouts in turn for each command
and repetition (parent, change, parent, change, ...), so that a slow phase of
a shared machine falls on both.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["verify-lemmas", "--n", "4"],
    ["orbit-audit", "--n", "5", "--k", "3", "--format", "json"],
    ["orbit-audit", "--n", "6", "--k", "4", "--format", "json"],
    ["verify-lemmas", "--n", "6"],
    ["verify-theorem", "--n", "6", "--trials", "1"],
    ["verify-theorem", "--n", "10", "--trials", "1"],
    ["lgv-audit", "--n", "8"],
    ["peakon", "--state", str(CHECKOUT / "tests" / "golden" / "state_6peakons.json"),
     "--dt", "1e-3", "--t-end", "1"],
]


def run_once(src: Path, argv: list[str]) -> tuple[float, float]:
    """(wall time in s, peak RSS in MB) of one child running the command."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "canadaday", *argv],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    with child.stderr:
        err = child.stderr.read().decode(errors="replace")  # until the child exits
    # wait4 reaps the child and returns its own resource usage; Popen is
    # told the exit code, so that it does not wait for the child again.
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode} under {src}:\n{err}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        action="append",
        type=Path,
        help="a checkout's src directory; repeat to alternate between checkouts",
    )
    parser.add_argument("--repeat", type=int, default=3, help="runs per command and checkout")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    srcs = [p.resolve() for p in args.src or [CHECKOUT / "src"]]
    for src in srcs:
        if not (src / "canadaday" / "__init__.py").is_file():
            parser.error(f"--src {src}: no canadaday package there")

    results = []
    for command in COMMANDS:
        best: dict[Path, tuple[float, float]] = {}
        for _ in range(args.repeat):
            for src in srcs:
                run = run_once(src, command)
                if src not in best or run[0] < best[src][0]:
                    best[src] = run
        for src in srcs:
            wall, rss = best[src]
            print(f"{' '.join(command):45} {wall * 1000:9.1f} ms {rss:7.1f} MB  {src}")
            results.append(
                {"src": str(src), "command": command, "best_s": wall, "peak_rss_mb": rss}
            )
    print(json.dumps({"repeat": args.repeat, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
