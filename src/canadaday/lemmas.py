"""The exhaustive lemma suite of `verify-lemmas`, each lemma a check with
its first witness.

The suite splits as the paper's proof does.  The flip orbits of each
M_{n,k}, every matching's sign and every flip image, the T-minor tables
and the count of an enumeration of M_{n,k} depend on the size alone; the
seeded matrix X enters only through the weights, which the orbit-sum
report holds as ints over d**k (d the lcm of X's denominators), so every
weight comparison below is one of ints.  The size-only inputs are
`kept` from the second request for a size on, the orbit data on the kept
partition itself, so a process that runs the suite again, such as a
benchmark worker or a test session, builds them twice and then never.  A
one-shot `python -m canadaday verify-lemmas` run asks for each size once
and keeps nothing.  What is kept is inputs only: the weights, X's minor
sums and every comparison of all six checks run on every call.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact_linalg import as_index, child_seed, exact_str, random_symmetric
from .lgv import audit_table
from .matchings import enumerate_matchings, matching_count, orbit_sum_identity
from .minor_sums import check_entry_bits, check_flag, check_size_guard, check_walk, kept

__all__ = ["Check", "lemma_report", "lemma_suite"]


class Check(NamedTuple):
    """One lemma's verdict, with its first witness when it fails."""

    name: str
    passed: bool
    witness: dict | None


_CHECKS = (
    "t_minor_three_way",
    "matching_count",
    "weight_flip_invariance",
    "sign_flip_law",
    "orbit_structure",
    "grand_matching_sum",
)


def _failures(n_max: int, seed: int, bound: int, corrupt: bool):
    """Yield (check name, witness) for every failed check, in walk order:
    the T-minor tables, then the orbit-sum report of each (n, k).

    The flip checks take each member once per open cluster, through the
    cluster's least generator f_ij, whose image the orbit's `flips` names:
    the image must be a member of the same orbit, with the same scaled
    weight and sign * (-1)^separation.  An image missing from the
    orbit fails both checks.  matching_count counts `enumerate_matchings`
    apart from the orbits, so a lost matching is caught even where orbit
    closure would regenerate it."""
    for n in range(1, n_max + 1):
        for row in audit_table(n):
            if not row["agree"]:
                yield "t_minor_three_way", {"n": n, **row}
    for n in range(1, n_max + 1):
        x = random_symmetric(n, child_seed(seed, 2, n), bound)
        for k in range(0, n + 1):
            count = kept(("enumerated", n, k), lambda: sum(1 for _ in enumerate_matchings(n, k)))
            expected = matching_count(n, k)
            if count != expected:
                yield "matching_count", {"n": n, "k": k, "count": count, "expected": expected}
            rep = orbit_sum_identity(x, k)
            if rep.failed_checks:
                yield "orbit_structure", {"n": n, "k": k, "failed": list(rep.failed_checks)}
            if "orbits_partition_matchings" in rep.failed_checks or not rep.sums_equal:
                yield "grand_matching_sum", {
                    "n": n,
                    "k": k,
                    "matching_sum": exact_str(rep.matching_sum),
                    "interlacing_S": exact_str(rep.interlacing_s),
                    "all_minors": exact_str(rep.all_minors),
                }
            for o, ws in zip(rep.orbits, rep.weights):
                sgs = o.signs
                for r, c, image in o.flips():
                    invariant = image is not None and ws[image] == ws[r]
                    holds = image is not None and sgs[image] == sgs[r] * (-1) ** c.separation
                    if corrupt:
                        # Self-test hook: falsify one result to prove the
                        # harness surfaces a witness.
                        holds, corrupt = not holds, False
                    if not (invariant and holds):
                        i, j = c.least_generator
                        at = {"n": n, "matching": o.members[r].to_json_dict(), "i": i, "j": j}
                        if not invariant:
                            yield "weight_flip_invariance", at
                        if not holds:
                            yield "sign_flip_law", {**at, "separation": c.separation}
    if corrupt:
        raise ValueError(f"--corrupt-sign has no flipped pair to corrupt at n <= {n_max}")


def _inputs(n_max: int, seed: int, bound: int) -> tuple[int, int, int]:
    """n_max, seed and bound as ints, each refused as the suite refuses it."""
    return check_size_guard(n_max), as_index(seed), check_entry_bits(bound, "the entry bound")


def lemma_suite(n_max: int, seed: int, bound: int, corrupt_sign: bool) -> list[Check]:
    """Every lemma checked exhaustively up to n_max, in report order, each
    with its first witness.  corrupt_sign falsifies one sign-law result, to
    show a failing witness."""
    n_max, seed, bound = _inputs(n_max, seed, bound)
    corrupt_sign = check_flag(corrupt_sign, "corrupt_sign")
    # Each M_{n,k} and T-minor table walked below is part of this walk, so
    # no inner walk is refused half done.
    check_walk(
        sum(matching_count(n, k) for n in range(1, n_max + 1) for k in range(n + 1)),
        f"matchings in every M_{{n,k}} with n <= {n_max}",
    )
    first: dict[str, dict] = {}
    for name, witness in _failures(n_max, seed, bound, corrupt_sign):
        first.setdefault(name, witness)
    return [Check(name, name not in first, first.get(name)) for name in _CHECKS]


def lemma_report(n_max: int = 4, seed: int = 42, bound: int = 9, corrupt_sign: bool = False) -> dict:
    """The verify-lemmas report: `lemma_suite`'s checks, passing when all do."""
    n_max, seed, bound = _inputs(n_max, seed, bound)
    checks = lemma_suite(n_max, seed, bound, corrupt_sign)
    return {
        "command": "verify-lemmas",
        "config": {"n_max": n_max, "seed": seed, "bound": bound, "corrupt_sign": corrupt_sign},
        "passed": all(c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }
