"""The exhaustive lemma suite of `verify-lemmas`, each lemma a check with
its first witness.  The flip lemmas are checked on the orbits that
`orbit_sum_identity` builds for the orbit-sum proof, reading each member's
sign and weight from its report, so M_{n,k} is partitioned once per (n, k);
only the matching count enumerates M_{n,k} apart from the orbits.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact_linalg import child_seed, random_symmetric
from .lgv import audit_table
from .matchings import (
    decompose_clusters,
    enumerate_matchings,
    flip,
    matching_count,
    orbit_sum_identity,
)
from .minor_sums import check_size_guard, check_walk

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


def _check_orbits(n_max: int, seed: int, bound: int, corrupt: bool):
    """The matching_count, weight_flip_invariance, sign_flip_law,
    orbit_structure and grand_matching_sum results, from one orbit-sum
    report per (n, k).

    The flip checks read each member's sign and weight from the report and
    flip the member once per open cluster, through the cluster's least
    generator f_ij: the image must be a member of the same orbit, with the
    same weight and sign * (-1)^separation.  An image missing from the orbit
    fails both checks.  matching_count counts `enumerate_matchings` apart
    from the orbits, so a lost matching is caught even where orbit closure
    would regenerate it.  Each check keeps its own first witness, in orbit
    order."""
    count_ok = weight_ok = sign_ok = structure = grand = (True, None)
    corrupt_pending = corrupt
    for n in range(1, n_max + 1):
        x = random_symmetric(n, child_seed(seed, 2, n), bound)
        for k in range(0, n + 1):
            count = sum(1 for _ in enumerate_matchings(n, k))
            expected = matching_count(n, k)
            if count_ok[0] and count != expected:
                count_ok = False, {"n": n, "k": k, "count": count, "expected": expected}
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
            for o, sgs, ws in zip(rep.orbits, rep.signs, rep.weights):
                read = {m.edges: (sg, w) for m, sg, w in zip(o.members, sgs, ws)}
                for m, sg, w in zip(o.members, sgs, ws):
                    for c in decompose_clusters(m):
                        if c.kind != "open":
                            continue
                        i, j = min((min(e), max(e)) for e in c.edges)
                        image = read.get(flip(m, i, j).edges)
                        if weight_ok[0] and (image is None or image[1] != w):
                            weight_ok = False, {
                                "n": n, "matching": m.to_json_dict(), "i": i, "j": j,
                            }
                        holds = image is not None and image[0] == sg * (-1) ** c.separation
                        if corrupt_pending:
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
                                "separation": c.separation,
                            }
    if corrupt_pending:
        raise ValueError(f"--corrupt-sign has no flipped pair to corrupt at n <= {n_max}")
    return count_ok, weight_ok, sign_ok, structure, grand


def lemma_suite(n_max: int, seed: int, bound: int, corrupt_sign: bool) -> list[Check]:
    """Every lemma checked exhaustively up to n_max, in report order.
    corrupt_sign falsifies one sign-law result, to show a failing witness."""
    if n_max < 1:
        raise ValueError(f"nothing to check: need n >= 1, got {n_max}")
    check_size_guard(n_max)
    # Each M_{n,k} and T-minor table walked below is part of this walk, so
    # no inner walk is refused half done.
    check_walk(
        sum(matching_count(n, k) for n in range(1, n_max + 1) for k in range(n + 1)),
        f"matchings in every M_{{n,k}} with n <= {n_max}",
    )
    matching_count_check, weight_invariance, sign_law, orbit_structure, grand_sum = _check_orbits(
        n_max, seed, bound, corrupt_sign
    )
    return [
        Check("t_minor_three_way", *_check_t_minor_three_way(n_max)),
        Check("matching_count", *matching_count_check),
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
