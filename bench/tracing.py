"""Span tracing of the program's layers from outside the program.

`Tracer.install` replaces each traced function by a wrapper in every
`canadaday` module namespace that holds it (a function imported by name
lives in several), and `ExactMatrix.__matmul__` on its class.  Each call
records a span (name, start, end, parent span, job id) in flat arrays that
stay in memory until `write_spans`.  A span's self time is its duration
minus the durations of its child spans; calls are synchronous, so children
never overlap and the self times of a job's spans sum to its root span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module under canadaday, attribute, predicate on (args, result)
# that marks a useful outcome, or None).  Spans without a per-layer metric
# are traced so that their time is not charged to their caller's self time.
TARGETS = [
    ("exact_linalg.determinant", "exact_linalg", "determinant", None),
    ("exact_linalg.submatrix", "exact_linalg", "submatrix", None),
    ("exact_linalg.minor", "exact_linalg", "minor", None),
    ("exact_linalg.matmul", "exact_linalg", "ExactMatrix.__matmul__", None),
    ("exact_linalg.t_matrix", "exact_linalg", "t_matrix", None),
    ("exact_linalg.random_symmetric", "exact_linalg", "random_symmetric", None),
    ("exact_linalg.load_matrix", "exact_linalg", "load_matrix", None),
    ("exact_linalg.matrix_to_json_dict", "exact_linalg", "matrix_to_json_dict", None),
    ("minor_sums.sum_principal_minors", "minor_sums", "sum_principal_minors", None),
    ("minor_sums.sum_all_minors", "minor_sums", "sum_all_minors", None),
    ("minor_sums.interlacing_sum", "minor_sums", "interlacing_sum", None),
    ("minor_sums.is_interlacing", "minor_sums", "is_interlacing", lambda a, r: r),
    ("minor_sums.p_value", "minor_sums", "p_value", None),
    ("minor_sums.t_minor_formula", "minor_sums", "t_minor_formula", None),
    ("minor_sums.verify_canada_day", "minor_sums", "verify_canada_day", None),
    ("lgv.count_disjoint_families", "lgv", "count_disjoint_families", lambda a, r: r != 0),
    ("lgv.build_network", "lgv", "build_network", None),
    ("lgv.path_matrix", "lgv", "path_matrix", None),
    ("lgv.audit_table", "lgv", "audit_table", None),
    ("matchings.decompose_clusters", "matchings", "decompose_clusters", None),
    ("matchings.flip", "matchings", "flip", lambda a, r: bool(a) and r is not a[0]),
    ("matchings.sign_flip_law_check", "matchings", "sign_flip_law_check", None),
    ("matchings.weight", "matchings", "weight", None),
    ("matchings.sign", "matchings", "sign", None),
    ("matchings.partition_into_orbits", "matchings", "partition_into_orbits", None),
    ("matchings.orbit", "matchings", "orbit", None),
    ("peakon.rk4_step", "peakon", "rk4_step", None),
    ("peakon.ode_rhs", "peakon", "ode_rhs", None),
    ("peakon.constants_of_motion", "peakon", "constants_of_motion", None),
    ("peakon.char_poly_coefficients", "peakon", "char_poly_coefficients", None),
    ("peakon.build_matrices", "peakon", "build_matrices", None),
    ("peakon.simulate", "peakon", "simulate", None),
    ("cli.main", "cli", "main", None),
    ("cli.run_theorem_campaign", "cli", "run_theorem_campaign", None),
    ("cli.run_lemma_suite", "cli", "run_lemma_suite", None),
    ("cli.run_orbit_audit", "cli", "run_orbit_audit", None),
    ("cli.run_peakon", "cli", "run_peakon", None),
    ("cli.load_state", "cli", "load_state", None),
]

# The lemma suite's private checks are traced too: their time counts as the
# self time of cli.run_lemma_suite, and those without a `seed` parameter
# depend on n only (audit.n_only_share).
LEMMA_CHECK_PREFIX = "_check_"
LEMMA_SPAN = "cli.lemma_check."

JOB_SPAN = "job"

CALLS = [
    "exact_linalg.determinant", "exact_linalg.submatrix",
    "minor_sums.is_interlacing", "minor_sums.verify_canada_day",
    "lgv.count_disjoint_families", "lgv.build_network",
    "matchings.decompose_clusters", "matchings.flip", "matchings.weight", "matchings.sign",
    "matchings.orbit",
    "peakon.rk4_step", "peakon.ode_rhs", "peakon.constants_of_motion",
]
SELF = [
    "exact_linalg.determinant", "exact_linalg.submatrix", "exact_linalg.minor",
    "exact_linalg.matmul",
    "minor_sums.sum_principal_minors", "minor_sums.sum_all_minors", "minor_sums.interlacing_sum",
    "lgv.count_disjoint_families", "lgv.build_network",
    "matchings.decompose_clusters", "matchings.sign_flip_law_check", "matchings.weight",
    "matchings.sign", "matchings.partition_into_orbits",
    "peakon.rk4_step", "peakon.constants_of_motion", "peakon.char_poly_coefficients",
    "peakon.simulate",
    "cli.main", "cli.run_lemma_suite", "cli.run_orbit_audit",
]
RATIOS = {
    "minor_sums.interlacing.useful_ratio": "minor_sums.is_interlacing",
    "lgv.count_disjoint_families.nonzero_ratio": "lgv.count_disjoint_families",
    "matchings.flip.effective_ratio": "matchings.flip",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.hits: Counter[str] = Counter()
        self.n_only_checks: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.job_id = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, span: str, fn, hit=None):
        name_id = self.intern(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hit is not None and hit(args, result):
                self.hits[span] += 1
            return result

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self, package: str = "canadaday") -> list[str]:
        """Wrap every target in every loaded module of the package; return
        the targets that no longer exist."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        missing = []
        for span, mod_name, attr, hit in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(span)
                continue
            wrapper = self.wrap(span, original, hit)
            if owner_name:
                self._replace(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        cli = sys.modules.get(f"{package}.cli")
        for key, value in list(vars(cli).items()) if cli else []:
            if key.startswith(LEMMA_CHECK_PREFIX) and inspect.isfunction(value):
                span = LEMMA_SPAN + key[len(LEMMA_CHECK_PREFIX):]
                if "seed" not in inspect.signature(value).parameters:
                    self.n_only_checks.add(span)
                self._replace(cli, key, self.wrap(span, value))
        return missing

    def _replace(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- jobs and derived numbers -------------------------------------------

    def run_job(self, job_id: int, fn):
        """Run fn() under a root span for the job."""
        self.job_id = job_id
        idx = self.open(self.intern(JOB_SPAN))
        try:
            return fn()
        finally:
            self.close(idx)
            self.job_id = -1

    def self_times(self) -> array:
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def job_self_sums(self) -> dict[int, tuple[float, float]]:
        """Per job: (sum of its spans' self times, duration of its root span)."""
        job_name = self._ids.get(JOB_SPAN)
        sums: dict[int, list[float]] = {}
        for i, s in enumerate(self.self_times()):
            entry = sums.setdefault(self.job[i], [0.0, 0.0])
            entry[0] += s
            if self.name[i] == job_name:
                entry[1] = self.end[i] - self.start[i]
        return {j: (a, b) for j, (a, b) in sums.items()}

    def layer_metrics(self, jobs: int, scales=None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit); calls and self times are means
        per job over `jobs` traced jobs.  A span's times are multiplied by
        scales[its job id] when `scales` is given."""
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        for i, s in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            factor = scales[self.job[i]] if scales is not None else 1.0
            calls[name] += 1
            self_s[name] += s * factor
            total_s[name] += (self.end[i] - self.start[i]) * factor
        for name in list(self_s):
            if name.startswith(LEMMA_SPAN):
                self_s["cli.run_lemma_suite"] += self_s[name]
        out: dict[str, tuple[float, str]] = {}
        per_job = 1.0 / max(jobs, 1)
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name] * per_job, "calls/job")
        for name in SELF:
            out[f"{name}.self_s"] = (self_s[name] * per_job, "s/job")
        for metric, name in RATIOS.items():
            out[metric] = (self.hits[name] / calls[name] if calls[name] else 0.0, "ratio")
        lemma_s = total_s["cli.run_lemma_suite"]
        n_only_s = sum(total_s[name] for name in self.n_only_checks)
        out["audit.n_only_share"] = (n_only_s / lemma_s if lemma_s else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV (job, name, start_s, end_s, parent)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.job[i]},{self.names[self.name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]}\n"
                )
