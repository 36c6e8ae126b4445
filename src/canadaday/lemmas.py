"""The exhaustive lemma suite of `verify-lemmas`, each lemma a check with
its first witness.  The suite walks the matchings through the names imported
here, so a fault injected into its `weight`, `enumerate_matchings` or
`sign_flip_law_check` is not also seen by `orbit_sum_identity`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_linalg import child_seed, random_symmetric
from .lgv import audit_table
from .matchings import (
    Matching,
    decompose_clusters,
    enumerate_matchings,
    orbit_sum_identity,
    sign_flip_law_check,
    weight,
)
from .minor_sums import check_size_guard

__all__ = ["Check", "lemma_report", "lemma_suite"]


class Check(NamedTuple):
    """One lemma's verdict, with its first witness when it fails."""

    name: str
    passed: bool
    witness: dict | None


def _check_t_minor_three_way(n_max: int):
    for n in range(1, n_max + 1):
        for row in audit_table(n):
            if not row["agree"]:
                return False, {"n": n, **row}
    return True, None


def _acting_generators(m: Matching) -> list[tuple[int, int]]:
    """The generators f_ij (i < j) that flip something in m, in generator
    order: those whose edge i -> j or j -> i lies in an open cluster.  Every
    other generator leaves m unchanged, so its sign-law check holds
    trivially."""
    return sorted(
        (min(e), max(e)) for c in decompose_clusters(m).open_clusters for e in c.edges
    )


def _check_matchings(n_max: int, seed: int, bound: int, corrupt: bool):
    """The matching_count, weight_flip_invariance and sign_flip_law results
    from one walk over each M_{n,k}: each acting generator f_ij is checked
    once per matching, in `sign_flip_law_check`, and the weight check reads
    its image.  Each check keeps its own first witness."""
    count_ok = weight_ok = sign_ok = (True, None)
    corrupt_pending = corrupt
    for n in range(1, n_max + 1):
        x = random_symmetric(n, child_seed(seed, 1, n), bound)
        for k in range(0, n + 1):
            count = 0
            for m in enumerate_matchings(n, k):
                count += 1
                if k == 0:
                    continue
                w = weight(m, x)
                for i, j in _acting_generators(m):
                    chk = sign_flip_law_check(m, i, j)
                    if weight_ok[0] and chk.flipped and weight(chk.image, x) != w:
                        weight_ok = False, {"n": n, "matching": m.to_json_dict(), "i": i, "j": j}
                    holds = chk.holds
                    if chk.flipped and corrupt_pending:
                        # Self-test hook: falsify one result to prove the
                        # harness surfaces a witness.
                        holds = not holds
                        corrupt_pending = False
                    if sign_ok[0] and not holds:
                        sign_ok = False, {
                            "n": n,
                            "matching": m.to_json_dict(),
                            "i": i,
                            "j": j,
                            "separation": chk.separation,
                        }
            expected = math.comb(n, k) ** 2 * math.factorial(k)
            if count_ok[0] and count != expected:
                count_ok = False, {"n": n, "k": k, "count": count, "expected": expected}
    if corrupt_pending:
        raise ValueError(f"--corrupt-sign has no flipped pair to corrupt at n <= {n_max}")
    return count_ok, weight_ok, sign_ok


def _check_orbit_sums(n_max: int, seed: int, bound: int):
    """The orbit_structure and grand_matching_sum results, both read from one
    orbit-sum report per (n, k)."""
    structure = grand = (True, None)
    for n in range(1, n_max + 1):
        x = random_symmetric(n, child_seed(seed, 2, n), bound)
        for k in range(0, n + 1):
            rep = orbit_sum_identity(x, k)
            if structure[0] and rep.failed_checks:
                structure = False, {"n": n, "k": k, "failed": list(rep.failed_checks)}
            partitioned = "orbits_partition_matchings" not in rep.failed_checks
            if grand[0] and not (partitioned and rep.sums_equal):
                grand = False, {
                    "n": n,
                    "k": k,
                    "matching_sum": str(rep.matching_sum),
                    "interlacing_S": str(rep.interlacing_s),
                    "all_minors": str(rep.all_minors),
                }
    return structure, grand


def lemma_suite(n_max: int, seed: int, bound: int, corrupt_sign: bool) -> list[Check]:
    """Every lemma checked exhaustively up to n_max, in report order.
    corrupt_sign falsifies one sign-law result, to show a failing witness."""
    if n_max < 1:
        raise ValueError(f"nothing to check: need n >= 1, got {n_max}")
    check_size_guard(n_max)
    orbit_structure, grand_sum = _check_orbit_sums(n_max, seed, bound)
    matching_count, weight_invariance, sign_law = _check_matchings(
        n_max, seed, bound, corrupt_sign
    )
    return [
        Check("t_minor_three_way", *_check_t_minor_three_way(n_max)),
        Check("matching_count", *matching_count),
        Check("weight_flip_invariance", *weight_invariance),
        Check("sign_flip_law", *sign_law),
        Check("orbit_structure", *orbit_structure),
        Check("grand_matching_sum", *grand_sum),
    ]


def lemma_report(n_max: int = 4, seed: int = 42, bound: int = 9, corrupt_sign: bool = False) -> dict:
    """The verify-lemmas report: `lemma_suite`'s checks, passing when all do."""
    checks = lemma_suite(n_max, seed, bound, corrupt_sign)
    return {
        "command": "verify-lemmas",
        "config": {"n_max": n_max, "seed": seed, "bound": bound, "corrupt_sign": corrupt_sign},
        "passed": all(c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }
