"""The one exponential (Leibniz) oracle for determinants and minors."""

from fractions import Fraction
from itertools import permutations

from canadaday.exact_linalg import DimensionError, ExactMatrix, IndexSet, Rational
from canadaday.matchings import Matching, sign, weight


def minor_via_matchings(x: ExactMatrix, I: IndexSet, J: IndexSet) -> Rational:
    """|X_IJ| as the signed sum over all bijections I -> J; determinant-free
    oracle for `exact_linalg.minor` and `exact_linalg.determinant`."""
    if len(I) != len(J):
        raise DimensionError("index sets must have equal cardinality")
    n = max(I.n, J.n)
    total = Fraction(0)
    for assignment in permutations(J.elems):
        m = Matching(n, tuple(zip(I.elems, assignment)))
        total += sign(m) * weight(m, x)
    return total
