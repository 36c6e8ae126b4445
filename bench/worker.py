"""One benchmark worker: a fresh process that sets up, runs one workload's
jobs in-process through `canadaday.cli.main`, checks every report and prints
one JSON line.

    python3 bench/worker.py --workload NAME --seed N --probe
    python3 bench/worker.py --workload NAME --seed N --dir DIR --seconds S --trace 0|1

`--probe` stops after set-up and reports only the set-up times.  Set-up runs
from the first statement below to the point where the inputs exist:
`import numpy`, `import canadaday.cli` and the input generation (a job's
input file is written, untimed, before the job first runs).  The
caller pins the BLAS thread count and puts `src` on PYTHONPATH.

Times are reported scaled to the reference speed (see reference.py), with
the unscaled wall times alongside under "raw".
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import POOL, WARMUP, WORKLOADS, make_jobs  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", help="working directory for inputs and reports (not with --probe)")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans-out", default=None, help="gzip CSV of the traced pass's spans")
    return p.parse_args(argv)


class Runner:
    """Runs jobs, each followed by a reference run, and keeps per executed
    job what the oracle needs and the job's scale factor."""

    def __init__(self, cli, workload, jobs, directory: Path, check, reference, scale):
        self.cli = cli
        self.workload = workload
        self.jobs = jobs
        self.directory = directory
        self.check = check
        self.reference = reference
        self.scale = scale
        self.done: list[tuple[object, list[Path], str | None]] = []
        self.scales: list[float] = []
        self._last_ref = reference()

    def run(self, job, tracer=None) -> tuple[float, float]:
        """Run one job; return its wall time and its scaled time in seconds."""
        number = len(self.done)
        outs = [self.directory / f"out-{number}-{c}.json" for c in range(self.workload.invocations)]
        argvs = self.workload.argv(job.seed, job.input_path(self.directory), outs)

        def invoke():
            for argv in argvs:
                try:
                    # Looked up per call, so that a traced main is the one run.
                    code = self.cli.main(argv)
                except (Exception, SystemExit) as exc:  # a job failure, not a harness one
                    return f"{argv[0]} raised {exc!r}"
                if code != 0:
                    return f"{argv[0]} exited {code}"
            return None

        t0 = time.perf_counter()
        error = invoke() if tracer is None else tracer.run_job(number, invoke)
        elapsed = time.perf_counter() - t0
        ref = self.reference()
        factor = self.scale(self._last_ref, ref)
        self._last_ref = ref
        self.done.append((job, outs, error))
        self.scales.append(factor)
        return elapsed, elapsed * factor

    def timed_pass(self, seconds: float, tracer=None):
        """Closed loop, one job at a time, until `seconds` have passed.
        Returns (wall times, scaled times, wall time of the pass, first job
        number)."""
        first = len(self.done)
        wall, scaled = [], []
        start = time.perf_counter()
        while True:
            job = self.jobs[WARMUP + len(self.done) % (POOL - WARMUP)]
            w, s = self.run(job, tracer)
            wall.append(w)
            scaled.append(s)
            if time.perf_counter() - start >= seconds:
                break
        return wall, scaled, time.perf_counter() - start, first

    def check_all(self) -> tuple[list[dict], list[int]]:
        """Check every executed job's reports; delete them once read.
        Returns (failures, report bytes of each job, 0 for a failed one)."""
        failures, sizes = [], []
        for number, (job, outs, error) in enumerate(self.done):
            size = 0
            if error is None:
                try:
                    size = sum(p.stat().st_size for p in outs)
                    reports = [json.loads(p.read_text()) for p in outs]
                    error = self.check(job.seed, job.input_doc, reports)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"unreadable report: {exc!r}"
            sizes.append(size)
            for p in outs:
                p.unlink(missing_ok=True)
            if error is not None:
                failures.append({"job": number, "seed": job.seed, "reason": error})
        return failures, sizes


def _tail(times: list[float]) -> tuple[float, int]:
    """The 90th percentile as (value, number of jobs beyond it): the
    ceil(0.9 n)-th smallest of n times.  It has at least ten jobs beyond it
    once n >= 100; the percentile stays fixed so that runs of a faster
    program, which time more jobs, report the same statistic."""
    ordered = sorted(times)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def main(argv=None) -> int:
    args = _parse(argv)
    t = time.perf_counter()
    import numpy

    numpy_s = time.perf_counter() - t
    t = time.perf_counter()
    import canadaday.cli

    canadaday_s = time.perf_counter() - t
    workload = WORKLOADS[args.workload]
    jobs = make_jobs(workload, args.seed)
    setup_s = time.perf_counter() - T0

    # Imported only now: numpy's import time belongs to the program's set-up.
    from reference import REF_S, reference

    reference()  # the first run pays numpy.linalg's lazy set-up
    factor = REF_S / reference()
    setup = {
        "setup_s": setup_s * factor,
        "numpy_s": numpy_s * factor,
        "canadaday_s": canadaday_s * factor,
        "raw_setup_s": setup_s,
    }
    if args.probe:
        print(json.dumps({"setup": setup}))
        return 0
    return measure(args, workload, jobs, setup, canadaday.cli, numpy.__version__)


def measure(args, workload, jobs, setup, cli, numpy_version) -> int:
    """Warm up, run the timed (and, with --trace 1, the traced) pass, check
    every report and print the result line."""
    if args.dir is None:
        print("error: --dir is required without --probe", file=sys.stderr)
        return 2
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    from oracle import CHECKS
    from reference import reference, scale
    from tracing import Tracer

    runner = Runner(cli, workload, jobs, directory, CHECKS[workload.name], reference, scale)
    for job in jobs[:WARMUP]:
        runner.run(job)
    seconds = args.seconds / 2 if args.trace else args.seconds
    wall, scaled, pass_s, _ = runner.timed_pass(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup": setup}
    tracer = None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        try:
            _, traced, _, first = runner.timed_pass(seconds, tracer)
        finally:
            tracer.uninstall()
        for job_id, (self_sum, root) in tracer.job_self_sums().items():
            if job_id < 0 or abs(self_sum - root) > 1e-9 * max(root, 1.0):
                print(f"error: span self times of job {job_id} do not add up", file=sys.stderr)
                return 3
        layers = tracer.layer_metrics(len(traced), runner.scales)
        layers["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(scaled), "ratio")
        result.update(layers=layers, missing_targets=missing, traced_jobs=len(traced))
    failures, sizes = runner.check_all()
    if tracer is not None:
        result["layers"]["cli.report_bytes"] = (statistics.mean(sizes[first:]), "B/job")
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    tail, beyond = _tail(scaled)
    result.update(
        timed_jobs=len(scaled),
        e2e={
            "job_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "job_tail_ms": (1000.0 * tail, "ms"),
            "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_rate": (1.0 - len(failures) / len(runner.done), "ratio"),
        },
        raw={
            "job_p50_ms": 1000.0 * statistics.median(wall),
            "job_tail_ms": 1000.0 * _tail(wall)[0],
            "jobs_per_s": len(wall) / pass_s,
            "median_scale": statistics.median(runner.scales),
        },
        tail_percentile=90,
        tail_jobs_beyond=beyond,
        attempted=len(runner.done),
        failures=failures,
        env={
            "python": sys.version.split()[0],
            "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
