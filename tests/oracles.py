"""Test oracles: the fraction-free (Bareiss) determinant and the minor of
an `ExactMatrix` by slicing, the second minor engine that checks the
program's one, `exact_linalg.minor_levels`; the one exponential (Leibniz)
oracle for determinants and minors, which checks Bareiss in turn; the
batched-determinant float sum of all k x k minors that checks the peakon
constants of motion up to n = 8, the exact H_k of a float peakon state, the
peakon right-hand side in 50-digit decimals, and the canonical
sign-reversing involution that pairs the members of non-interlacing
orbits, and the sign of a matching by the inversions of its permutation,
which checks `matchings.sign`'s crossing count.  Also the identity, transpose, product and 1-based entry of an
`ExactMatrix`, which only the tests need, and `str` with no limit on int
digits, the reference for exact values rendered past that limit."""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from canadaday.exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    Rational,
    char_poly,
    t_matrix,
)
from canadaday.matchings import Cluster, Matching, decompose_clusters, flip, sign, weight


def identity(n: int) -> ExactMatrix:
    return ExactMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[m.entries[r * m.cols + c] for r in range(m.rows)] for c in range(m.cols)]
    )


def entry(m: ExactMatrix, i: int, j: int) -> Rational:
    """Entry at row i, column j (both 1-based)."""
    if not (1 <= i <= m.rows and 1 <= j <= m.cols):
        raise IndexError(f"entry ({i}, {j}) out of range for {m.rows}x{m.cols}")
    return m.entries[(i - 1) * m.cols + (j - 1)]


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The exact product a b."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    ra, rb = a.to_rows(), b.to_rows()
    return ExactMatrix.from_rows(
        [
            [sum(ra[i][t] * rb[t][j] for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def determinant(m: ExactMatrix) -> Rational:
    """Exact determinant by fraction-free (Bareiss) elimination.

    For integer matrices every intermediate value stays an integer; over
    rationals the exact divisions are still exact.  The 0x0 determinant is 1.
    """
    if not m.is_square():
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = m.to_rows()
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) / prev
            row_i[k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]


def submatrix(m: ExactMatrix, rows: IndexSet, cols: IndexSet) -> ExactMatrix:
    """Order-preserving slice of m by 1-based row and column index sets."""
    if rows.elems and rows.elems[-1] > m.rows:
        raise IndexError(f"row index {rows.elems[-1]} out of range for {m.rows} rows")
    if cols.elems and cols.elems[-1] > m.cols:
        raise IndexError(f"column index {cols.elems[-1]} out of range for {m.cols} columns")
    return ExactMatrix.from_rows([[entry(m, i, j) for j in cols] for i in rows])


def minor(m: ExactMatrix, rows: IndexSet, cols: IndexSet) -> Rational:
    """The minor of m with the given row and column sets (equal cardinality),
    by Bareiss on the slice."""
    if len(rows) != len(cols):
        raise DimensionError(
            f"minor needs equally many rows and columns, got {len(rows)} and {len(cols)}"
        )
    return determinant(submatrix(m, rows, cols))


def str_without_digit_limit(v) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def minor_via_matchings(x: ExactMatrix, I: IndexSet, J: IndexSet) -> Rational:
    """|X_IJ| as the signed sum over all bijections I -> J; determinant-free
    oracle for `minor` and `determinant`."""
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


def exact_h(s) -> list[Fraction]:
    """H_1 .. H_n of a peakon state in exact arithmetic: (-1)^k c_k of T X
    by Berkowitz, with X_ij = m_i E_ij m_j formed in Fractions from the
    state's own floats m and E = exp(-|x_i - x_j|).  X is symmetric, so the
    theorem makes these the sums of all k x k minors of X: the true H_k of
    the float state, with no rounding past m and E themselves."""
    e = np.exp(-np.abs(s.x[:, None] - s.x[None, :])).tolist()
    m = [Fraction(v) for v in s.m.tolist()]
    x = ExactMatrix.from_rows(
        [[m[i] * Fraction(e[i][j]) * m[j] for j in range(s.n)] for i in range(s.n)]
    )
    c = char_poly(matmul(t_matrix(s.n), x))
    return [(-1) ** k * c[k] for k in range(1, s.n + 1)]


def decimal_rhs(s) -> list[tuple[Decimal, Decimal, Decimal]]:
    """Per peakon k of a float state: x'_k = u_k^2, m'_k = m_k u_k (L_k - R_k)
    and the scale m_k u_k (L_k + R_k) of m'_k's terms, in 50-digit decimals
    from the state's own floats.  L_k and R_k are the sums of m_j e^{-|x_k -
    x_j|} over j < k and j > k, taken term by term from the textbook formula:
    the referee of the stepper's O(n) recurrences."""
    x, m = s.x.tolist(), s.m.tolist()
    with localcontext() as ctx:
        ctx.prec = 50
        xd, md = [Decimal(v) for v in x], [Decimal(v) for v in m]
        out = []
        for k in range(s.n):
            terms = [md[j] * (-abs(xd[k] - xd[j])).exp() for j in range(s.n)]
            left, right = sum(terms[:k], Decimal(0)), sum(terms[k + 1 :], Decimal(0))
            u = md[k] + left + right
            out.append((u * u, md[k] * u * (left - right), md[k] * u * (left + right)))
    return out


def permutation_sign(m: Matching) -> int:
    """Inversion count of the underlying permutation; independent of the
    crossing-number computation."""
    mapping = dict(m.edges)
    cols = sorted(mapping.values())
    pos = {j: t for t, j in enumerate(cols)}
    perm = [pos[mapping[i]] for i in sorted(mapping)]
    inversions = sum(
        1 for a, b in combinations(range(len(perm)), 2) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def canonical_involution(m: Matching) -> Matching:
    """Sign-reversing involution on non-interlacing orbits: flip the
    odd-separation open cluster whose smallest incident node label (over both
    sides) is minimal, by the public generator of one of its edges.

    That label set is unchanged by flipping, so applying the map twice gives m
    back; the flip reverses the sign because the separation is odd.
    """
    odd_opens = [
        c
        for c in decompose_clusters(m)
        if c.kind == "open" and c.separation % 2 == 1
    ]
    if not odd_opens:
        raise ValueError(
            "matching has no odd-separation open cluster (its orbit is interlacing)"
        )

    def label_key(c: Cluster) -> tuple[int, ...]:
        labels = {i for i, _ in c.edges} | {j for _, j in c.edges}
        return tuple(sorted(labels))

    i, j = min(odd_opens, key=label_key).edges[0]
    return flip(m, min(i, j), max(i, j))
