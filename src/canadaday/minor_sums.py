"""The three minor sums of the Canada Day theorem and their supporting
predicates.

For an n x n matrix X and 1 <= k <= n the theorem asserts that three sums
agree: the principal k x k minors of T@X, all k x k minors of X (needs X
symmetric), and the interlacing-pair sum S = sum over I <= J of
2^p(I,J) * |X_IJ|.  The last two are exact reductions over level k of X's
minor table (`exact_linalg.minor_levels`), over interlacing pairs built
once per (n, k).  Every call is stateless and walks the table afresh; the
verify-theorem campaign walks each matrix's table once for all its k.  The
principal sums of T@X are (-1)^k c_k(TX), from its Berkowitz characteristic
polynomial, so a fault in the table cannot make all three agree.  The
tests check both routes against an independent Bareiss minor.

The size guard, the walk and entry caps, and `kept`, the one store of
results that depend on a size alone, serve every exhaustive route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice
from operator import add
from typing import Callable, Hashable, NamedTuple, Sequence, TypeVar

from .exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    MinorLevel,
    Rational,
    as_index,
    child_seed,
    exact_str,
    integer_char_poly,
    matrix_to_json_dict,
    minor_levels,
    random_matrix,
    random_symmetric,
    scaled_to_integers,
)

__all__ = [
    "MAX_ENTRY_BITS",
    "MAX_WALK",
    "SIZE_GUARD",
    "CanadaDayReport",
    "SymmetryError",
    "check_entry_bits",
    "check_size_guard",
    "check_walk",
    "interlacing_sum",
    "interlaces",
    "is_interlacing",
    "level_sums",
    "p_value",
    "sum_all_minors",
    "sum_principal_minors",
    "t_minor_formula",
    "theorem_campaign",
    "verify_canada_day",
]

# Level k of the minor table holds C(n,k)^2 minors (853,776 at n=12,
# k=6), and the orbit and path audits enumerate as many matchings and path
# families; beyond this n they stop being desk-scale, so refuse.
SIZE_GUARD = 12

# An exhaustive walk refuses more items than this: the matchings of
# orbit-audit's M_{n,k}, of verify-lemmas's every M_{n,k} with n <= n_max,
# or lgv-audit's table rows.  Each item took 35 to 37 us on a shared 2-vCPU
# Xeon VM (orbit-audit n=8 k=4, verify-lemmas --n 7, lgv-audit --n 10), so
# the cap is about 9 s.
MAX_WALK = 250_000

# An entry bound, or a matrix entry's numerator or denominator, of more
# bits than this is refused.  The minor-table walk grows with the entry
# bits: verify-theorem --n 12 --trials 1, the largest one-matrix campaign
# under SIZE_GUARD, took 10.4 s and 100 MB at bound 9, 15.4 s and 188 MB
# at 64 bits and 36 s and 426 MB at 256 bits (same VM as MAX_WALK).
MAX_ENTRY_BITS = 64


class SymmetryError(ValueError):
    """Raised when an operation that needs a symmetric matrix gets one that isn't."""


def _check_pair(I: IndexSet, J: IndexSet) -> None:
    if len(I) != len(J):
        raise DimensionError(
            f"index sets must have equal cardinality, got {len(I)} and {len(J)}"
        )
    if I.n != J.n:
        raise DimensionError(f"index sets have different ambient sizes {I.n} and {J.n}")


def check_size_guard(n: int) -> int:
    """`as_index(n)`, refused unless 1 <= n <= SIZE_GUARD: the one size gate.
    Every exhaustive route calls it before any work, then uses its value."""
    n = as_index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > SIZE_GUARD:
        raise ValueError(f"n={n} exceeds the guard {SIZE_GUARD}")
    return n


def check_walk(count: int, what: str) -> None:
    """Refuse a walk over `count` items, named by `what`, past MAX_WALK.
    Every exhaustive walk calls this before any of its work."""
    if count > MAX_WALK:
        raise ValueError(f"{count} {what}, over the cap MAX_WALK = {MAX_WALK}")


def check_entry_bits(value: int, what: str) -> None:
    """Refuse an entry bound, numerator or denominator, named by `what`, of
    more than MAX_ENTRY_BITS bits.  Every command that takes one calls this
    before any of its work."""
    bits = abs(value).bit_length()
    if bits > MAX_ENTRY_BITS:
        raise ValueError(
            f"{what} has {bits} bits, over the cap MAX_ENTRY_BITS = {MAX_ENTRY_BITS}"
        )


_V = TypeVar("_V")

# What `kept` keeps for the rest of the process, by key; a key asked for
# once so far maps to _ASKED_ONCE.
_STORE: dict[Hashable, object] = {}
_ASKED_ONCE = object()


def kept(key: Hashable, build: Callable[[], _V]) -> _V:
    """`build()`, which must not be None, kept for the rest of the process
    from the second request for `key` on; every later request returns that
    same object.

    For results that depend on their size alone, such as the flip-orbit
    partition of M_{n,k} or the T-minor table at n, never on a matrix X.  A
    first request only notes the key, so a one-shot `python -m canadaday`
    run, which asks for each size once, keeps nothing; a process that
    repeats a size builds it twice and then never.  Callers check their
    size and walk caps first, so what is kept is bounded by the sizes asked
    for twice.  Two threads may each build the same result; both are equal,
    and either may be kept.
    """
    value = _STORE.get(key)
    if value is None or value is _ASKED_ONCE:
        fresh = build()
        _STORE[key] = _ASKED_ONCE if value is None else fresh
        return fresh
    return value


def _forget() -> None:
    """Empty the store of `kept`, as at process start."""
    _STORE.clear()


def is_interlacing(I: IndexSet, J: IndexSet) -> bool:
    """True iff i_1 <= j_1 <= i_2 <= j_2 <= ... <= i_k <= j_k."""
    _check_pair(I, J)
    return interlaces(I.elems, J.elems)


def interlaces(I: Sequence[int], J: Sequence[int]) -> bool:
    """`is_interlacing` on two increasing sequences of equal length, unchecked."""
    for a, b in zip(I, J):
        if a > b:
            return False
    for b, a_next in zip(J, I[1:]):
        if b > a_next:
            return False
    return True


def p_of(I: Sequence[int], J: Sequence[int]) -> int:
    """p(I, J) = k - |I intersect J| on two sequences of k labels, unchecked."""
    return len(I) - len(set(I).intersection(J))


def p_value(I: IndexSet, J: IndexSet) -> int:
    """`p_of` two checked index sets: the number of elements they do not share."""
    _check_pair(I, J)
    return p_of(I.elems, J.elems)


def t_minor_formula(I: IndexSet, J: IndexSet) -> Rational:
    """Closed form for the minor of T with rows J and columns I:
    2^p(I,J) when I and J interlace, otherwise 0."""
    if is_interlacing(I, J):
        return Fraction(2) ** p_value(I, J)
    return Fraction(0)


# Every (n, k) under the guard; all k at n=12 hold about 20 MB.
@lru_cache(maxsize=SIZE_GUARD * (SIZE_GUARD + 1) // 2)
def _interlacing_ranks(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """Every interlacing pair (I, J) of k-subsets of range(n), as (rank of I,
    rank of J, p(I, J)) with ranks in `combinations` order, I first."""
    subsets = list(combinations(range(n), k))
    return tuple(
        (r, c, p_of(I, J))
        for r, I in enumerate(subsets)
        for c, J in enumerate(subsets)
        if interlaces(I, J)
    )


class _Sums(NamedTuple):
    principal: Rational
    all: Rational
    interlacing: Rational


def _reduce(level: MinorLevel) -> _Sums:
    scaled = level.scaled
    principal = sum(row[r] for r, row in enumerate(scaled))
    everything = sum(map(sum, scaled))
    interlacing = sum(scaled[i][j] << p for i, j, p in _interlacing_ranks(level.n, level.k))
    return _Sums(*(Fraction(v, level.scale) for v in (principal, everything, interlacing)))


def level_sums(m: ExactMatrix, k: int) -> _Sums:
    """The principal, all and interlacing sums of the k x k minors of the
    square matrix m, from one walk of its minor table up to level k."""
    if not m.is_square():
        raise DimensionError(f"need a square matrix, got {m.rows}x{m.cols}")
    if not 1 <= k <= m.rows:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={m.rows}")
    check_size_guard(m.rows)
    return _reduce(next(islice(minor_levels(m), k - 1, None)))


def _principal_of_tx(m: ExactMatrix) -> list[Rational]:
    """(-1)^k c_k(TX) for k = 0..n, in integers: row i of d*TX is
    s_(i-1) + s_i, for s_i the sum of rows 0..i of d*X."""
    d, rows = scaled_to_integers(m)
    s = list(accumulate(rows, lambda u, v: list(map(add, u, v))))
    tx = [list(map(add, u, v)) for u, v in zip([[0] * len(rows)] + s, s)]
    return [Fraction(-c if k % 2 else c, d**k) for k, c in enumerate(integer_char_poly(tx))]


def sum_principal_minors(m: ExactMatrix, k: int) -> Rational:
    return level_sums(m, k).principal


def sum_all_minors(m: ExactMatrix, k: int) -> Rational:
    return level_sums(m, k).all


def interlacing_sum(m: ExactMatrix, k: int) -> Rational:
    """S = sum over interlacing pairs I <= J of 2^p(I,J) * |X_IJ|."""
    return level_sums(m, k).interlacing


@dataclass(frozen=True)
class CanadaDayReport:
    """The three sums for one (matrix, k), all exact."""

    n: int
    k: int
    principal_of_tx: Rational
    all_of_x: Rational
    interlacing_s: Rational

    @property
    def part_a_equal(self) -> bool:
        """Principal minors of TX against S; holds for any X, symmetric or not."""
        return self.principal_of_tx == self.interlacing_s

    @property
    def all_equal(self) -> bool:
        """All three sums agree; the all-minors sum needs X symmetric."""
        return self.part_a_equal and self.all_of_x == self.interlacing_s

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "principal_of_TX": exact_str(self.principal_of_tx),
            "all_of_X": exact_str(self.all_of_x),
            "interlacing_S": exact_str(self.interlacing_s),
            "all_equal": self.all_equal,
        }


def verify_canada_day(m: ExactMatrix, k: int, *, allow_asymmetric: bool = False) -> CanadaDayReport:
    """Evaluate all three sums for m and report whether they agree.

    Refuses non-symmetric input unless allow_asymmetric is set, because the
    all-minors identity presumes symmetry; the principal-of-TX vs S equality
    holds regardless and is exposed as `part_a_equal` on the report.
    """
    # Refused before any minor is taken; level_sums refuses a non-square m.
    if m.is_square() and not allow_asymmetric and not m.is_symmetric():
        raise SymmetryError("matrix is not symmetric; pass allow_asymmetric=True to evaluate anyway")
    sums = level_sums(m, k)
    return CanadaDayReport(m.rows, k, _principal_of_tx(m)[k], sums.all, sums.interlacing)


def theorem_campaign(
    n_max: int,
    k: int | None = None,
    trials: int = 20,
    seed: int = 42,
    bound: int = 9,
    asymmetric: bool = False,
) -> dict:
    """The verify-theorem report: the three sums over the (n, trial, k)
    grid with seeded random matrices, from one walk of each matrix's minor
    table up to the grid's largest k and one char poly of its T@X.  In
    asymmetric mode only the principal-of-TX vs S equality is required to
    hold; the all-minors sum is reported so witnesses of its failure are
    visible."""
    n_max = check_size_guard(n_max)
    check_entry_bits(bound, "the entry bound")
    gen = random_matrix if asymmetric else random_symmetric
    cells = []
    witnesses = []
    for n in range(1, n_max + 1):
        ks = [kk for kk in ([k] if k is not None else range(1, n + 1)) if 1 <= kk <= n]
        if not ks:
            continue
        for trial in range(trials):
            mat = gen(n, child_seed(seed, n, trial), bound)
            principal = _principal_of_tx(mat)
            for level in islice(minor_levels(mat), ks[-1]):
                if level.k not in ks:
                    continue
                sums = _reduce(level)
                rep = CanadaDayReport(n, level.k, principal[level.k], sums.all, sums.interlacing)
                ok = rep.part_a_equal if asymmetric else rep.all_equal
                cell = {"trial": trial, **rep.to_json_dict(), "part_a_equal": rep.part_a_equal}
                cells.append(cell)
                if not ok:
                    witnesses.append(
                        {"n": n, "k": level.k, "trial": trial, "matrix": matrix_to_json_dict(mat)}
                    )
    if not cells:
        raise ValueError("no (n, k) cell to check: need n >= 1, trials >= 1 and 1 <= k <= n")
    return {
        "command": "verify-theorem",
        "config": {
            "n_max": n_max,
            "k": k,
            "trials": trials,
            "seed": seed,
            "bound": bound,
            "asymmetric": asymmetric,
        },
        "passed": not witnesses,
        "cell_count": len(cells),
        "part_b_inequality_count": sum(1 for c in cells if not c["all_equal"]),
        "cells": cells,
        "witnesses": witnesses,
    }
