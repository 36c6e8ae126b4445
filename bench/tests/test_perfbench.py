"""Self-tests of the benchmark: oracle, span arithmetic, generators and the
result line.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import canadaday
import canadaday.cli
import oracle
import tracing
import worker
from workloads import POOL, WORKLOADS, job_seed, make_jobs, peakon_state, rational_symmetric

ROOT = Path(__file__).resolve().parents[2]


def _run_job(name, seed, tmp_path):
    """Run one job of the workload through the CLI; return (input doc, reports)."""
    w = WORKLOADS[name]
    job = make_jobs(w, seed)[2]
    outs = [tmp_path / f"out-{c}.json" for c in range(w.invocations)]
    for argv in w.argv(job.seed, job.input_path(tmp_path), outs):
        assert canadaday.cli.main(argv) == 0
    return job.seed, job.input_doc, [json.loads(p.read_text()) for p in outs]


# -- oracle -----------------------------------------------------------------


def test_leibniz_matches_known_determinants():
    assert oracle.leibniz_det([]) == 1
    assert oracle.leibniz_det([[2, -3], [-3, Fraction(1, 2)]]) == Fraction(-8)
    assert oracle.leibniz_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    x = [[1, 2], [2, 5]]
    assert oracle.minor_sum(x, 1) == 10 and oracle.minor_sum(x, 1, principal_only=True) == 6


def test_campaign_matrix_matches_the_program_generator():
    for n in range(1, 7):
        child = canadaday.cli._child_seed(7, n, 0)
        expected = canadaday.exact_linalg.random_symmetric(n, child, oracle.BOUND).to_rows()
        assert oracle.campaign_matrix(7, n) == expected


def test_theorem_report_with_one_altered_cell_fails(tmp_path):
    seed, input_doc, reports = _run_job("theorem", 11, tmp_path)
    assert oracle.check_theorem(seed, input_doc, reports) is None
    cell = reports[0]["cells"][17]
    cell["all_of_X"] = str(Fraction(cell["all_of_X"]) + 1)
    assert "all_of_X" in oracle.check_theorem(seed, input_doc, reports)


def test_theorem_report_whose_three_sums_agree_but_are_wrong_fails(tmp_path):
    seed, input_doc, reports = _run_job("theorem", 12, tmp_path)
    cell = reports[0]["cells"][-1]
    wrong = str(Fraction(cell["all_of_X"]) * 2 + 1)
    for key in ("principal_of_TX", "all_of_X", "interlacing_S"):
        cell[key] = wrong
    assert oracle.check_theorem(seed, input_doc, reports) is not None


def test_audit_report_alterations_fail(tmp_path):
    seed, input_doc, reports = _run_job("audit", 13, tmp_path)
    assert oracle.check_audit(seed, input_doc, reports) is None
    totals = reports[1]["totals"]
    saved = totals["all_minors_of_X"]
    totals["all_minors_of_X"] = str(Fraction(saved) + Fraction(1, 3))
    assert "all_minors_of_X" in oracle.check_audit(seed, input_doc, reports)
    totals["all_minors_of_X"] = saved
    reports[1]["orbit_count"] = 284
    assert "orbit_count" in oracle.check_audit(seed, input_doc, reports)


def test_peakon_report_alterations_fail(tmp_path):
    seed, state, reports = _run_job("peakon", 14, tmp_path)
    assert oracle.check_peakon(seed, state, reports) is None
    reports[0]["samples"][5]["c"][3] *= 1 + 1e-6
    assert "|c_k|" in oracle.check_peakon(seed, state, reports)
    seed, state, reports = _run_job("peakon", 14, tmp_path)
    for sample in reports[0]["samples"]:
        sample["H"][0] *= 1 + 1e-6
        sample["c"][1] *= 1 + 1e-6
    assert "numpy.poly" in oracle.check_peakon(seed, state, reports)


# -- spans ------------------------------------------------------------------


def _synthetic(spans):
    """A tracer holding the given (name, start, end, parent) spans of job 0."""
    t = tracing.Tracer()
    for name, start, end, parent in spans:
        t.name.append(t.intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.job.append(0)
    return t


def test_self_times_of_a_nested_trace():
    # job [0, 10] > minor [1, 4] > determinant [2, 3];  job > weight [5, 9]
    t = _synthetic([
        ("job", 0.0, 10.0, -1),
        ("exact_linalg.minor", 1.0, 4.0, 0),
        ("exact_linalg.determinant", 2.0, 3.0, 1),
        ("matchings.weight", 5.0, 9.0, 0),
    ])
    assert list(t.self_times()) == [3.0, 2.0, 1.0, 4.0]
    assert t.job_self_sums() == {0: (10.0, 10.0)}
    m = t.layer_metrics(jobs=2)
    assert m["exact_linalg.determinant.calls"] == (0.5, "calls/job")
    assert m["exact_linalg.minor.self_s"] == (1.0, "s/job")
    assert m["matchings.weight.self_s"] == (2.0, "s/job")


def test_lemma_checks_count_as_lemma_suite_self_time():
    t = _synthetic([
        ("cli.run_lemma_suite", 0.0, 10.0, -1),
        ("cli.lemma_check.matching_count", 1.0, 4.0, 0),
        ("matchings.sign", 2.0, 3.0, 1),
        ("cli.lemma_check.grand_matching_sum", 5.0, 7.0, 0),
    ])
    t.n_only_checks = {"cli.lemma_check.matching_count"}
    m = t.layer_metrics(jobs=1)
    assert m["cli.run_lemma_suite.self_s"] == (5.0 + 2.0 + 2.0, "s/job")
    assert m["audit.n_only_share"] == (0.3, "ratio")


def test_install_wraps_every_namespace_and_uninstall_restores():
    original = canadaday.exact_linalg.minor
    matmul = canadaday.exact_linalg.ExactMatrix.__matmul__
    x = canadaday.random_symmetric(3, seed=1, entry_bound=9)
    t = tracing.Tracer()
    assert t.install() == []
    try:
        for mod in (canadaday, canadaday.exact_linalg, canadaday.minor_sums, canadaday.lgv,
                    canadaday.cli):
            assert mod.minor is not original and mod.minor.__wrapped__ is original
        t.run_job(0, lambda: canadaday.minor_sums.verify_canada_day(x, 2))
    finally:
        t.uninstall()
    assert canadaday.cli.minor is original
    assert canadaday.exact_linalg.ExactMatrix.__matmul__ is matmul
    names = [t.names[i] for i in t.name]
    assert names.count("minor_sums.verify_canada_day") == 1
    assert names.count("exact_linalg.matmul") >= 1
    det = names.index("exact_linalg.determinant")
    assert t.names[t.name[t.parent[det]]] == "exact_linalg.minor"
    assert {"cli.lemma_check.matching_counts", "cli.lemma_check.orbit_structure"} <= t.n_only_checks
    assert "cli.lemma_check.grand_sum" not in t.n_only_checks
    (self_sum, root), = t.job_self_sums().values()
    assert self_sum == pytest.approx(root, rel=1e-9)


def test_tail_is_the_90th_percentile():
    assert worker._tail([float(v) for v in range(100)]) == (89.0, 10)
    assert worker._tail([float(v) for v in range(110)]) == (98.0, 11)
    assert worker._tail([3.0, 1.0, 2.0]) == (3.0, 0)


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        jobs = make_jobs(WORKLOADS[name], seed)
        assert len(jobs) == POOL
        paths = [j.input_path(d) for j in jobs]
        return [j.seed for j in jobs], [p.read_bytes() if p else None for p in paths]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a2")[0] != files(6, "c")[0]


def test_rational_matrices_are_symmetric_bounded_and_not_integral():
    for s in range(200):
        x = rational_symmetric(job_seed(s, 3))
        assert all(x[i][j] == x[j][i] for i in range(5) for j in range(5))
        assert all(abs(v.numerator) <= 9 and 1 <= v.denominator <= 9 for row in x for v in row)
        assert any(v.denominator != 1 for row in x for v in row)


def test_peakon_states_are_spread_and_bounded():
    for s in range(200):
        st = peakon_state(job_seed(s, 3))
        x, m = st["x"], st["m"]
        assert len(x) == len(m) == 6 and -10 <= x[0] and x[-1] <= 10
        assert min(b - a for a, b in zip(x, x[1:])) >= 2.0 - 1e-12
        assert all(0.5 <= v <= 2.0 for v in m)


# -- the result line --------------------------------------------------------


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_benchmark_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "peakon", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec[key]}
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[key])
