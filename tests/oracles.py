"""Test oracles: the fraction-free (Bareiss) determinant and the minor of
an `ExactMatrix` by slicing, the second minor engine that checks the
program's one, `exact_linalg.minor_levels`; the one exponential (Leibniz)
oracle for determinants and minors, which checks Bareiss in turn; the
batched-determinant float sum of all k x k minors that checks the peakon
constants of motion up to n = 8, the exact H_k of a float peakon state, the
peakon right-hand side in 50-digit decimals, the unfused O(n) right-hand
side and RK4 step whose bits the program's fused step keeps, and the canonical
sign-reversing involution that pairs the members of non-interlacing
orbits, and the sign of a matching by the inversions of its permutation,
which checks `matchings.sign`'s crossing count, and the weight of a
matching in Fractions, which checks `matchings.scaled_weight`, and the
separations of a matching's clusters from its edges alone, which check the
`separations` of an orbit-audit report.  Also the
identity, transpose, product and 1-based entry of an `ExactMatrix`, which
only the tests need, and `str` with no limit on int digits, the reference
for exact values rendered past that limit."""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import exp, isfinite
from operator import lt, sub

import numpy as np

from canadaday.exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    Rational,
    char_poly,
    t_matrix,
)
from canadaday.matchings import Cluster, Matching, decompose_clusters, flip, sign
from canadaday.peakon import _fault


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


def weight(m: Matching, x: ExactMatrix) -> Rational:
    """Product of the matrix entries along the matching's edges, in
    Fractions: the oracle of `matchings.scaled_weight` over d**k."""
    if m.n > x.rows or m.n > x.cols:
        raise DimensionError(f"matching on n={m.n} does not fit a {x.rows}x{x.cols} matrix")
    entries, cols = x.entries, x.cols
    num = den = 1
    for i, j in m.edges:
        e = entries[(i - 1) * cols + j - 1]
        num *= e.numerator
        den *= e.denominator
    return Fraction(num, den)


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


def reference_rhs(x: list, m: list) -> list | None:
    """x' + m' (one list), the right-hand side at positions x and amplitudes
    m (lists of floats), in O(n) with no n x n array; None when x is not
    finite and strictly increasing, so that no exp is taken at a crossed
    state.

    With q_l = exp(x_l - x_{l+1}), the parts of u(x_k) from the peakons
    strictly left and right of k are

        L_k = q_{k-1} (L_{k-1} + m_{k-1}),   R_k = q_k (R_{k+1} + m_{k+1}),

    with L_1 = R_n = 0, so u_k = m_k + L_k + R_k, x'_k = u_k^2 and
    m'_k = m_k u_k (L_k - R_k).  The recurrences have no subtraction, and
    each exp gets a negative argument.
    """
    right_of = x[1:]
    # Strictly increasing neighbours leave no NaN, and an infinity only at
    # an end.
    if not (all(map(lt, x, right_of)) and isfinite(x[0]) and isfinite(x[-1])):
        return None
    q = list(map(exp, map(sub, x, right_of)))
    left, acc = [0.0], 0.0
    for ql, ml in zip(q, m):
        acc = ql * (acc + ml)
        left.append(acc)
    # k = n, ..., 1, carrying R_k; the 0.0 goes with k = 1, whose R_0 is not
    # needed.
    kx, km, r = [], [], 0.0
    for mk, lk, ql in zip(reversed(m), reversed(left), chain(reversed(q), (0.0,))):
        uk = mk + lk + r
        kx.append(uk * uk)
        km.append(mk * uk * (lk - r))
        r = ql * (r + mk)
    kx.reverse()
    km.reverse()
    return kx + km


def reference_step(y: list, n: int, dt: float, rhs=reference_rhs) -> str | None:
    """One classical RK4 step of dt, in place, on the packed state y = x + m
    of n peakons, a list of Python floats, with the O(n) right-hand side
    `rhs`; None, or why a stage could not be taken: the unfused stepper
    that `peakon._step` must match bit for bit.

    A stage whose positions are not finite and strictly increasing is not
    evaluated: y is left as it was, and the step returns "collision" for a
    finite gap <= 0, "numerical failure" for a non-finite position.  A
    non-finite amplitude in a stage carries into the stepped state, where
    `_fault` finds it.  The stages combine as y + dt/6 * (k1 + 2 k2 + 2 k3
    + k4) in the order of the array formulas.
    """
    z, ks = y, []
    for h in (0.5 * dt, 0.5 * dt, dt, None):
        k = rhs(z[:n], z[n:])
        if k is None:
            return _fault(z, n, 0.0)
        ks.append(k)
        if h is not None:
            z = [a + h * b for a, b in zip(y, k)]
    sixth = dt / 6.0
    y[:] = [a + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) for a, k1, k2, k3, k4 in zip(y, *ks)]
    return None


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


def separations(edges) -> list[int]:
    """The separation of each cluster of the matching with these (i, j)
    edges, in the clusters' order by least edge: for an open cluster from
    a in I - J to b in J - I, the number of labels of I and of J strictly
    between a and b, a label in both counted twice; 0 for a closed one.

    The clusters are traced here from the edges, with no `Cluster`: a left
    node i that is also a right node is the end of the edge into i, so the
    walk back from a left node stops at the open cluster's start, or comes
    round to where it began on a cycle."""
    tau = {i: j for i, j in edges}
    into = {j: i for i, j in edges}
    labels = sorted(tau) + sorted(into)
    seen = set()
    out = []
    for first in sorted(tau):  # a cluster's least edge has its least left node
        if first in seen:
            continue
        start = first
        while start in into and into[start] != first:
            start = into[start]
        node = start
        while True:
            seen.add(node)
            node = tau[node]
            if node not in tau or node == start:
                break
        if node == start:
            out.append(0)
        else:
            lo, hi = sorted((start, node))
            out.append(sum(lo < v < hi for v in labels))
    return out


def misreported_separations(report: dict) -> list[tuple]:
    """(edges, reported, `separations` of the edges) for each member of a
    parsed orbit-audit report whose separations are not their definition."""
    return [
        (m["edges"], seps, separations(m["edges"]))
        for o in report["orbits"]
        for m, seps in zip(o["members"], o["separations"], strict=True)
        if seps != separations(m["edges"])
    ]
