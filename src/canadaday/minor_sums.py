"""The three minor sums of the Canada Day theorem and their supporting
predicates.

For an n x n matrix X and 1 <= k <= n the theorem asserts that three sums
agree: the principal k x k minors of T@X, all k x k minors of X (needs X
symmetric), and the interlacing-pair sum S = sum over I <= J of
2^p(I,J) * |X_IJ|.  Everything here is brute-force enumeration over exact
rationals; that is the point, these sums are the oracle the rest of the
package is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    Rational,
    k_subsets,
    minor,
    t_matrix,
)

__all__ = [
    "SIZE_GUARD",
    "CanadaDayReport",
    "SymmetryError",
    "cauchy_binet_check",
    "interlacing_sum",
    "is_interlacing",
    "p_value",
    "sum_all_minors",
    "sum_principal_minors",
    "t_minor_formula",
    "verify_canada_day",
]

# The sums enumerate C(n,k)^2 minors; beyond this n they stop being
# desk-scale, so refuse unless explicitly overridden.
SIZE_GUARD = 12


class SymmetryError(ValueError):
    """Raised when an operation that needs a symmetric matrix gets one that isn't."""


def _check_pair(I: IndexSet, J: IndexSet) -> None:
    if len(I) != len(J):
        raise DimensionError(
            f"index sets must have equal cardinality, got {len(I)} and {len(J)}"
        )
    if I.n != J.n:
        raise DimensionError(f"index sets have different ambient sizes {I.n} and {J.n}")


def _check_size(n: int, k: int, allow_large: bool) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if n > SIZE_GUARD and not allow_large:
        raise ValueError(
            f"n={n} exceeds the guard {SIZE_GUARD} (C(n,k)^2 minors); "
            "pass allow_large=True to override"
        )


def is_interlacing(I: IndexSet, J: IndexSet) -> bool:
    """True iff i_1 <= j_1 <= i_2 <= j_2 <= ... <= i_k <= j_k."""
    _check_pair(I, J)
    for a, b in zip(I.elems, J.elems):
        if a > b:
            return False
    for b, a_next in zip(J.elems, I.elems[1:]):
        if b > a_next:
            return False
    return True


def p_value(I: IndexSet, J: IndexSet) -> int:
    """p(I, J) = k - |I intersect J|, the number of elements I and J do not share."""
    _check_pair(I, J)
    return len(I) - len(set(I.elems) & set(J.elems))


def t_minor_formula(I: IndexSet, J: IndexSet) -> Rational:
    """Closed form for the minor of T with rows J and columns I:
    2^p(I,J) when I and J interlace, otherwise 0."""
    if is_interlacing(I, J):
        return Fraction(2) ** p_value(I, J)
    return Fraction(0)


def sum_principal_minors(m: ExactMatrix, k: int, *, allow_large: bool = False) -> Rational:
    if not m.is_square():
        raise DimensionError(f"need a square matrix, got {m.rows}x{m.cols}")
    _check_size(m.rows, k, allow_large)
    return sum((minor(m, J, J) for J in k_subsets(m.rows, k)), Fraction(0))


def sum_all_minors(m: ExactMatrix, k: int, *, allow_large: bool = False) -> Rational:
    if not m.is_square():
        raise DimensionError(f"need a square matrix, got {m.rows}x{m.cols}")
    _check_size(m.rows, k, allow_large)
    total = Fraction(0)
    for I in k_subsets(m.rows, k):
        for J in k_subsets(m.rows, k):
            total += minor(m, I, J)
    return total


def interlacing_sum(m: ExactMatrix, k: int, *, allow_large: bool = False) -> Rational:
    """S = sum over interlacing pairs I <= J of 2^p(I,J) * |X_IJ|."""
    if not m.is_square():
        raise DimensionError(f"need a square matrix, got {m.rows}x{m.cols}")
    _check_size(m.rows, k, allow_large)
    total = Fraction(0)
    for I in k_subsets(m.rows, k):
        for J in k_subsets(m.rows, k):
            if is_interlacing(I, J):
                total += Fraction(2) ** p_value(I, J) * minor(m, I, J)
    return total


def cauchy_binet_check(
    A: ExactMatrix, B: ExactMatrix, rows: IndexSet, cols: IndexSet
) -> bool:
    """Check |(AB)_rows,cols| == sum over I of |A_rows,I| * |B_I,cols|."""
    if not (A.is_square() and B.is_square() and A.rows == B.rows):
        raise DimensionError("A and B must be square of equal size")
    if len(rows) != len(cols):
        raise DimensionError("rows and cols must have equal cardinality")
    n, k = A.rows, len(rows)
    lhs = minor(A @ B, rows, cols)
    rhs = sum((minor(A, rows, I) * minor(B, I, cols) for I in k_subsets(n, k)), Fraction(0))
    return lhs == rhs


@dataclass(frozen=True)
class CanadaDayReport:
    """The three sums for one (matrix, k), all exact."""

    n: int
    k: int
    principal_of_tx: Rational
    all_of_x: Rational
    interlacing_s: Rational
    all_equal: bool

    @property
    def part_a_equal(self) -> bool:
        """Principal minors of TX against S; holds for any X, symmetric or not."""
        return self.principal_of_tx == self.interlacing_s

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "principal_of_TX": str(self.principal_of_tx),
            "all_of_X": str(self.all_of_x),
            "interlacing_S": str(self.interlacing_s),
            "all_equal": self.all_equal,
        }


def verify_canada_day(
    m: ExactMatrix, k: int, *, allow_asymmetric: bool = False, allow_large: bool = False
) -> CanadaDayReport:
    """Evaluate all three sums for m and report whether they agree.

    Refuses non-symmetric input unless allow_asymmetric is set, because the
    all-minors identity presumes symmetry; the principal-of-TX vs S equality
    holds regardless and is exposed as `part_a_equal` on the report.
    """
    if not m.is_square():
        raise DimensionError(f"need a square matrix, got {m.rows}x{m.cols}")
    _check_size(m.rows, k, allow_large)
    if not m.is_symmetric() and not allow_asymmetric:
        raise SymmetryError(
            "matrix is not symmetric; pass allow_asymmetric=True to evaluate anyway"
        )
    n = m.rows
    tx = t_matrix(n) @ m
    principal = sum_principal_minors(tx, k, allow_large=True)
    all_minors = sum_all_minors(m, k, allow_large=True)
    s = interlacing_sum(m, k, allow_large=True)
    return CanadaDayReport(
        n=n,
        k=k,
        principal_of_tx=principal,
        all_of_x=all_minors,
        interlacing_s=s,
        all_equal=principal == all_minors == s,
    )
