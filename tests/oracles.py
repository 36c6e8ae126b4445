"""Test oracles: the one exponential (Leibniz) oracle for determinants and
minors, and the batched-determinant float sum of all k x k minors that
checks the peakon constants of motion up to n = 8."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

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


@lru_cache(maxsize=None)
def _subset_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices that gather every k x k submatrix of an n x n
    matrix, as a (C(n,k), C(n,k), k, k) stack in row-major (rows, cols)
    order."""
    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    return subsets[:, None, :, None], subsets[None, :, None, :]


def sum_all_minors_float(mat: np.ndarray, k: int) -> float:
    """Sum of all k x k minors of a float matrix: one batched determinant
    call over the C(n,k)^2 gathered submatrices, summed one term at a time
    in enumeration order.  Exponential in n; the oracle of
    `peakon.constants_of_motion`."""
    if k == 1:
        # A 1 x 1 determinant comes back as sign * exp(log|a|), not a.
        terms = mat.ravel().tolist()
    else:
        rows, cols = _subset_index(mat.shape[0], k)
        terms = np.linalg.det(mat[rows, cols]).ravel().tolist()
    # One addition at a time, in enumeration order: np.sum adds pairwise and
    # sum() compensates (Python >= 3.12), and either changes the last bits.
    total = 0.0
    for term in terms:
        total += term
    return total
