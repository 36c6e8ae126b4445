"""Acceptance suite: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact checks carry zero tolerance; the peakon checks use the stated
drift and cross-check tolerances.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

from canadaday.exact_linalg import (
    k_subsets,
    random_matrix,
    random_symmetric,
    t_matrix,
)
from canadaday.lgv import build_network, count_disjoint_families
from canadaday.matchings import (
    Matching,
    decompose_clusters,
    enumerate_matchings,
    flip,
    partition_into_orbits,
    sign,
)
from canadaday.minor_sums import (
    interlacing_sum,
    is_interlacing,
    p_value,
    sum_all_minors,
    sum_principal_minors,
    t_minor_formula,
    verify_canada_day,
)
from canadaday.peakon import PeakonState, simulate
from oracles import matmul, minor, weight

TRIALS = 100
BOUND = 9
SEED = 20120616

# A `python -m canadaday` child imports the package the way this process does.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _seed(*parts: int) -> int:
    out = SEED
    for p in parts:
        out = out * 1_000_003 + p + 1
    return out


def _verdict(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_theorem_both_parts_exact():
    start = time.time()
    checks = 0
    for n in range(1, 6):
        for trial in range(TRIALS):
            x = random_symmetric(n, _seed(1, n, trial), BOUND)
            for k in range(1, n + 1):
                r = verify_canada_day(x, k)
                assert r.all_equal, (n, k, trial)
                checks += 1
    elapsed = time.time() - start
    assert elapsed < 60
    _verdict("1 theorem 1.3 both parts exact", f"{checks} checks, {elapsed:.1f}s")


def test_criterion_2_part_a_without_symmetry():
    start = time.time()
    checks = 0
    witnesses_n3_k2 = 0
    for n in range(1, 6):
        for trial in range(TRIALS):
            x = random_matrix(n, _seed(2, n, trial), BOUND)
            tx = matmul(t_matrix(n), x)
            for k in range(1, n + 1):
                assert sum_principal_minors(tx, k) == interlacing_sum(x, k), (n, k, trial)
                checks += 1
                if n == 3 and k == 2 and sum_all_minors(x, k) != interlacing_sum(x, k):
                    witnesses_n3_k2 += 1
    assert witnesses_n3_k2 >= 1
    elapsed = time.time() - start
    _verdict(
        "2 part (a) without symmetry",
        f"{checks} checks, {witnesses_n3_k2} part-(b) witnesses at n=3 k=2, {elapsed:.1f}s",
    )


def test_criterion_3_t_minor_three_way_agreement():
    start = time.time()
    pairs = 0
    for n in range(1, 7):
        net = build_network(n)
        big_t = t_matrix(n)
        for k in range(1, n + 1):
            for I in k_subsets(n, k):
                for J in k_subsets(n, k):
                    formula = t_minor_formula(I, J)
                    det_value = minor(big_t, J, I)
                    lgv_count = count_disjoint_families(net, J, I)
                    assert formula == det_value == lgv_count, (n, I.elems, J.elems)
                    pairs += 1
    elapsed = time.time() - start
    assert elapsed < 120
    _verdict("3 lemma 2.1 three-way agreement", f"{pairs} pairs up to n=6, {elapsed:.1f}s")


def test_criterion_4_matching_count_formula():
    counted = 0
    for n in range(1, 6):
        for k in range(0, n + 1):
            count = sum(1 for _ in enumerate_matchings(n, k))
            assert count == comb(n, k) ** 2 * factorial(k), (n, k, count)
            counted += count
    _verdict("4 matching count formula", f"{counted} matchings enumerated up to n=5")


def test_criterion_5_orbit_structure_exhaustive():
    start = time.time()
    orbit_total = 0
    flip_checks = 0
    for n in range(1, 5):
        gens = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for k in range(0, n + 1):
            matchings = list(enumerate_matchings(n, k))
            for o in partition_into_orbits(n, k):
                orbit_total += 1
                rep = o.members[0]
                assert len(o.members) == 2 ** p_value(rep.row_set(), rep.col_set())
                signs = [sign(m) for m in o.members]
                inter = [
                    m for m in o.members if is_interlacing(m.row_set(), m.col_set())
                ]
                if o.classification == "interlacing":
                    assert len(set(signs)) == 1, rep
                    assert len(inter) == 1, rep
                else:
                    assert sum(signs) == 0, rep
                    assert not inter, rep
                # parity criterion, both directions, on every member
                for m in o.members:
                    evens = all(
                        c.separation % 2 == 0 for c in decompose_clusters(m)
                    )
                    assert evens == (o.classification == "interlacing"), m
            # the cluster-flip sign law for every (tau, i, j) that flips
            for m in matchings:
                opens = [c for c in decompose_clusters(m) if c.kind == "open"]
                for i, j in gens:
                    image = flip(m, i, j)
                    held = [c for c in opens if (i, j) in c.edges or (j, i) in c.edges]
                    if not held:
                        assert image == m, (m, i, j)
                        continue
                    assert sign(image) == (-1) ** held[0].separation * sign(m), (m, i, j)
                    flip_checks += 1
    elapsed = time.time() - start
    _verdict(
        "5 orbit structure exhaustive n<=4",
        f"{orbit_total} orbits, {flip_checks} flips sign-checked, {elapsed:.1f}s",
    )


def test_criterion_6_grand_matching_sum():
    start = time.time()
    cells = 0
    for n in range(1, 5):
        for trial in range(3):
            x = random_symmetric(n, _seed(6, n, trial), BOUND)
            for k in range(1, n + 1):
                total = sum(
                    (sign(m) * weight(m, x) for m in enumerate_matchings(n, k)),
                    Fraction(0),
                )
                assert total == interlacing_sum(x, k), (n, k, trial)
                cells += 1
    elapsed = time.time() - start
    _verdict("6 grand matching sum", f"{cells} (n,k,X) cells, {elapsed:.1f}s")


def test_criterion_7_worked_example_fidelity():
    tau = Matching(8, ((1, 6), (2, 8), (3, 4), (4, 2), (5, 5), (6, 1), (8, 7)))
    dec = decompose_clusters(tau)
    kinds = {c.edges: (c.kind, c.endpoints, c.separation) for c in dec}
    assert kinds[((2, 8), (3, 4), (4, 2), (8, 7))] == ("open", (3, 7), 6)
    assert kinds[((1, 6), (6, 1))] == ("closed", None, 0)
    assert kinds[((5, 5),)] == ("closed", None, 0)
    flipped = flip(tau, 2, 8)
    assert flipped.edges == tuple(
        sorted([(1, 6), (8, 2), (4, 3), (2, 4), (5, 5), (6, 1), (7, 8)])
    )
    _verdict("7 worked example fidelity", "clusters, separation 6, flip of f_28")


def test_criterion_8_peakon_conservation():
    start = time.time()
    state = PeakonState(0.0, [-5.0, 0.0, 3.0], [1.0, 2.0, 0.5])

    report = simulate(state, 1e-3, 2.0, sample_every=20)
    assert report.status == "ok"
    assert all(d <= 1e-7 for d in report.max_rel_drift), report.max_rel_drift

    # coefficient cross-check |c_k| == H_k at every sample
    worst = 0.0
    for row in report.samples:
        for k in range(1, 4):
            h = row["H"][k - 1]
            rel = abs(abs(row["c"][k]) - h) / abs(h)
            worst = max(worst, rel)
    assert worst <= 1e-10

    # dt-scaling: drift is O(dt^4), so each halving divides it by about 16.
    # Measured at steps where the drift sits far above roundoff.
    drifts = [
        max(simulate(state, dt, 2.0, sample_every=1).max_rel_drift)
        for dt in (4e-2, 2e-2, 1e-2, 5e-3)
    ]
    ratios = [a / b for a, b in zip(drifts, drifts[1:])]
    assert all(8 <= r <= 32 for r in ratios), ratios

    elapsed = time.time() - start
    assert elapsed < 30
    _verdict(
        "8 peakon conservation",
        f"max drift {max(report.max_rel_drift):.2e}, coeff check {worst:.2e}, "
        f"halving ratios {', '.join(f'{r:.1f}' for r in ratios)}, {elapsed:.1f}s",
    )


def test_criterion_9_campaign_determinism(tmp_path):
    outputs = []
    for run in range(2):
        cmd = [
            sys.executable, "-m", "canadaday",
            "verify-theorem", "--n", "3", "--trials", "5", "--seed", "11",
            "--format", "json",
        ]
        outputs.append(subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV).stdout)
    assert outputs[0] == outputs[1]

    audits = []
    for run in range(2):
        cmd = [
            sys.executable, "-m", "canadaday",
            "orbit-audit", "--n", "3", "--k", "2", "--seed", "11", "--format", "json",
        ]
        audits.append(subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV).stdout)
    assert audits[0] == audits[1]
    _verdict("9 determinism", "byte-identical JSON for repeated campaigns")
