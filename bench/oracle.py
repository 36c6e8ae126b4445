"""Independent checks of the reports the benchmark's jobs write.

Nothing here trusts a report's own verdict or imports `canadaday`: minors
are recomputed by the Leibniz formula over exact numbers, the campaign's
seeded matrices are regenerated from the documented seed rule, and the peakon
coefficients are compared with `numpy.poly` of T P E P built here.  Each
check returns None when the job's reports are right, or a one-line reason.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

THEOREM_N = 6
BOUND = 9  # verify-theorem's default --bound
ORBIT_COUNT = 285  # orbits of the flip group on 3-edge matchings of K_{5,5}
LEMMA_CHECKS = [
    "t_minor_three_way",
    "matching_count",
    "weight_flip_invariance",
    "sign_flip_law",
    "orbit_structure",
    "grand_matching_sum",
]
PEAKON_SAMPLES = 11  # t = 0, 0.1, ..., 1 at dt = 1e-3, every 100 steps
PEAKON_TOL = 1e-7  # the peakon command's default --tol
COEFF_RTOL = 1e-9


@lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    out = []
    for perm in permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        out.append((-1 if inversions % 2 else 1, perm))
    return tuple(out)


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations; exact for int
    and Fraction entries.  The 0 x 0 determinant is 1."""
    total = 0
    for sgn, perm in _signed_permutations(len(rows)):
        term = sgn
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def minor_sum(rows, k: int, principal_only: bool = False):
    """Sum of the k x k minors of a square matrix: all of them, or only the
    principal ones."""
    subsets = list(combinations(range(len(rows)), k))
    total = 0
    for I in subsets:
        for J in ([I] if principal_only else subsets):
            total += leibniz_det([[rows[i][j] for j in J] for i in I])
    return total


def campaign_matrix(seed: int, n: int, trial: int = 0, bound: int = BOUND) -> list[list[int]]:
    """The symmetric matrix verify-theorem draws for (n, trial) under --seed:
    child seed ((seed * 1000003 + n + 1) * 1000003 + trial + 1), then
    randint(-bound, bound) over the upper triangle, row by row."""
    child = (seed * 1_000_003 + n + 1) * 1_000_003 + trial + 1
    rng = random.Random(child)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


def _t_times(x):
    n = len(x)
    t = [[0 if i < j else (1 if i == j else 2) for j in range(n)] for i in range(n)]
    return [[sum(t[i][s] * x[s][j] for s in range(n)) for j in range(n)] for i in range(n)]


def check_theorem(seed: int, input_doc, reports: list[dict]) -> str | None:
    (doc,) = reports
    if doc.get("command") != "verify-theorem" or doc.get("passed") is not True:
        return "verify-theorem report did not pass"
    cells = doc.get("cells", [])
    want = [(n, k) for n in range(1, THEOREM_N + 1) for k in range(1, n + 1)]
    if doc.get("cell_count") != len(want) or sorted((c["n"], c["k"]) for c in cells) != want:
        return "verify-theorem report does not hold the 21 (n, k) cells"
    matrices = {n: campaign_matrix(seed, n) for n in range(1, THEOREM_N + 1)}
    for c in cells:
        x = matrices[c["n"]]
        principal = minor_sum(_t_times(x), c["k"], principal_only=True)
        all_minors = minor_sum(x, c["k"])
        if principal != all_minors:
            return f"oracle sums disagree at n={c['n']} k={c['k']}"
        for key in ("principal_of_TX", "all_of_X", "interlacing_S"):
            if c[key] != str(all_minors):
                return f"n={c['n']} k={c['k']} {key}={c[key]}, oracle {all_minors}"
        if c.get("all_equal") is not True or c.get("trial") != 0:
            return f"n={c['n']} k={c['k']} cell flags are wrong"
    return None


def check_audit(seed: int, input_doc: dict, reports: list[dict]) -> str | None:
    lemmas, audit = reports
    if lemmas.get("command") != "verify-lemmas" or lemmas.get("passed") is not True:
        return "verify-lemmas report did not pass"
    checks = lemmas.get("checks", [])
    if [c["name"] for c in checks] != LEMMA_CHECKS or not all(c["passed"] for c in checks):
        return "verify-lemmas checks are missing or failed"
    if audit.get("command") != "orbit-audit" or audit.get("passed") is not True:
        return "orbit-audit report did not pass"
    if audit.get("matrix") != input_doc:
        return "orbit-audit report echoes another matrix"
    if audit.get("orbit_count") != ORBIT_COUNT or len(audit.get("orbits", [])) != ORBIT_COUNT:
        return f"orbit_count={audit.get('orbit_count')}, expected {ORBIT_COUNT}"
    totals = audit["totals"]
    if totals.get("non_interlacing_orbit_sum") != "0":
        return f"non_interlacing_orbit_sum={totals.get('non_interlacing_orbit_sum')}"
    x = [[Fraction(v) for v in row] for row in input_doc["entries"]]
    expected = str(Fraction(minor_sum(x, audit["k"])))
    for key in ("matching_sum", "interlacing_orbit_sum", "interlacing_S", "all_minors_of_X"):
        if totals.get(key) != expected:
            return f"{key}={totals.get(key)}, oracle {expected}"
    return None


def _rel_err(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def check_peakon(seed: int, state: dict, reports: list[dict]) -> str | None:
    (doc,) = reports
    if doc.get("status") != "ok" or doc.get("passed") is not True:
        return f"peakon status={doc.get('status')} passed={doc.get('passed')}"
    samples = doc.get("samples", [])
    if doc.get("tol") != PEAKON_TOL or len(samples) != PEAKON_SAMPLES or samples[0]["t"] != 0.0:
        return "peakon report has the wrong tolerance or sampling"
    h = np.array([s["H"] for s in samples])
    c = np.array([s["c"] for s in samples])
    drift = np.max(np.abs(h - h[0]), axis=0) / np.abs(h[0])
    if not np.all(drift <= PEAKON_TOL) or max(doc["max_rel_drift"]) > PEAKON_TOL:
        return f"H_k drift {float(np.max(drift))} exceeds {PEAKON_TOL}"
    if _rel_err(np.abs(c[:, 1:]), h) > COEFF_RTOL:
        return "|c_k| and H_k disagree at some sample"
    x, m = np.array(state["x"]), np.array(state["m"])
    n = x.size
    idx = np.arange(n)
    t = 1.0 + np.sign(idx[:, None] - idx[None, :])
    pep = np.diag(m) @ np.exp(-np.abs(x[:, None] - x[None, :])) @ np.diag(m)
    if _rel_err(h[0], np.abs(np.poly(t @ pep)[1:])) > COEFF_RTOL:
        return "H_k at t=0 disagrees with numpy.poly(T P E P)"
    return None


CHECKS = {"theorem": check_theorem, "audit": check_audit, "peakon": check_peakon}
