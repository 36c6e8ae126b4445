"""Benchmark of the canadaday CLI: three workloads of CLI jobs, end-to-end
metrics from an untraced run and per-layer metrics from a traced one.

    python3 bench/run.py --workload theorem|audit|peakon|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh worker processes
(`bench/worker.py`) with BLAS pinned to one thread and `src` on PYTHONPATH:
six set-up probes, then one measuring worker.  A table of the metrics goes
to stdout, followed by one JSON line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The full result, with the environment, goes to
.bench_out/result-<workload>-seed<N>-trace<T>.json, and a traced run's spans
to .bench_out/spans-<workload>-seed<N>.csv.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Set-up is timed in SETUP_PROBES + 1 fresh processes; the median is reported.
SETUP_PROBES = 6
# One workload must finish well inside three minutes.
DEADLINE_S = 170.0
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")] if p
    )
    return env


def _run_worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown'
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed)]
    try:
        probes = [
            _run_worker(common + ["--probe"], deadline) for _ in range(SETUP_PROBES)
        ]
        extra = ["--spans-out", str(OUT / f"spans-{name}-seed{seed}.csv.gz")] if trace else []
        res = _run_worker(
            common + ["--seconds", str(seconds), "--trace", str(trace), "--dir", str(work)]
            + extra,
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = [p["setup"] for p in probes] + [res["setup"]]

    def median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    if trace:
        metrics = dict(res["layers"])
        metrics["import.numpy_s"] = (median("numpy_s"), "s")
        metrics["import.canadaday_s"] = (median("canadaday_s"), "s")
    else:
        metrics = {"setup_s": (median("setup_s"), "s"), **res["e2e"]}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "failures": res["failures"][:20],
        "raw": dict(res["raw"], setup_s=median("raw_setup_s")),
        "timed_jobs": res["timed_jobs"],
        "tail_percentile": res["tail_percentile"],
        "tail_jobs_beyond": res["tail_jobs_beyond"],
        "setup_samples": setups,
        "env": dict(res["env"], git_commit=git_commit()),
    }


def _print_table(r: dict) -> None:
    print(
        f"{r['workload']}: seed={r['seed']} trace={r['trace']} timed_jobs={r['timed_jobs']} "
        f"tail=p{r['tail_percentile']} ({r['tail_jobs_beyond']} beyond) attempted={r['attempted']} failed={r['failed']}"
    )
    for f in r["failures"]:
        print(f"  FAILED job {f['job']} (seed {f['seed']}): {f['reason']}")
    for name, m in r["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed pass")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "canadaday" / "cli.py").is_file():
        print(f"error: no canadaday sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(r, indent=2) + "\n"
        )
        _print_table(r)
        results.append(r)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in results
            for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
