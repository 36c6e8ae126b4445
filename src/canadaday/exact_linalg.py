"""Exact rational linear algebra: dense matrices of arbitrary-precision
rationals with fraction-free determinants, minors, the table of all k x k
minors of a matrix, its division-free characteristic polynomial, and the
structured lower-triangular matrix T with entries 1 + sgn(i - j).

All public interfaces are 1-based in row/column indices, so worked examples
from the literature transcribe directly.  Internal storage is 0-based
row-major.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, groupby
from math import lcm
from operator import mul
from typing import Iterator, Sequence

# Matrix entries are stdlib Fractions: always in lowest terms, positive
# denominator, exact arithmetic.
Rational = Fraction

__all__ = [
    "DimensionError",
    "ExactMatrix",
    "IndexSet",
    "MinorLevel",
    "Rational",
    "char_poly",
    "child_seed",
    "determinant",
    "exact_str",
    "integer_char_poly",
    "k_subsets",
    "load_matrix",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "minor",
    "minor_levels",
    "random_matrix",
    "random_symmetric",
    "scaled_to_integers",
    "submatrix",
    "t_matrix",
]


class DimensionError(ValueError):
    """Raised when matrix or index-set dimensions are incompatible."""


@dataclass(frozen=True, order=True)
class IndexSet:
    """A strictly increasing subset of {1, ..., n}, kept with its ambient size."""

    n: int
    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elems", tuple(self.elems))
        if self.n < 0:
            raise ValueError(f"ambient size must be nonnegative, got {self.n}")
        prev = 0
        for e in self.elems:
            if e <= prev:
                raise ValueError(
                    f"elements must be strictly increasing and >= 1, got {self.elems}"
                )
            prev = e
        if self.elems and self.elems[-1] > self.n:
            raise ValueError(
                f"element {self.elems[-1]} exceeds ambient size {self.n}"
            )

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)


def k_subsets(n: int, k: int) -> Iterator[IndexSet]:
    """Yield all k-element subsets of {1, ..., n} in lexicographic order."""
    for combo in combinations(range(1, n + 1), k):
        yield IndexSet(n, combo)


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(Fraction(v) for v in self.entries))
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> ExactMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return ExactMatrix(r, c, tuple(v for row in rows for v in row))

    def entry(self, i: int, j: int) -> Rational:
        """Entry at row i, column j (both 1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def to_rows(self) -> list[list[Rational]]:
        c = self.cols
        return [list(self.entries[r * c : (r + 1) * c]) for r in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        n, e = self.rows, self.entries
        return all(e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i + 1, n))

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self.to_rows(), other.to_rows()
        return ExactMatrix.from_rows(
            [
                [sum(a[i][t] * b[t][j] for t in range(self.cols)) for j in range(other.cols)]
                for i in range(self.rows)
            ]
        )


def t_matrix(n: int) -> ExactMatrix:
    """The n x n matrix with entries 1 + sgn(i - j): 0 above the diagonal,
    1 on it, 2 below."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return ExactMatrix.from_rows(
        [[0 if i < j else (1 if i == j else 2) for j in range(n)] for i in range(n)]
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
    return ExactMatrix.from_rows([[m.entry(i, j) for j in cols] for i in rows])


def minor(m: ExactMatrix, rows: IndexSet, cols: IndexSet) -> Rational:
    """The minor of m with the given row and column sets (equal cardinality)."""
    if len(rows) != len(cols):
        raise DimensionError(
            f"minor needs equally many rows and columns, got {len(rows)} and {len(cols)}"
        )
    return determinant(submatrix(m, rows, cols))


@dataclass(frozen=True, eq=False)
class MinorLevel:
    """Every k x k minor of an n x n matrix X over one common denominator.

    `scaled[r][c] == scale * |X_{I_r, J_c}|` exactly, where I_r and J_c are
    the r-th and c-th sets of `k_subsets(n, k)`.  `scale` is d**k for d the
    lcm of the denominators of X, so every `scaled` entry is an int.
    """

    n: int
    k: int
    scale: int
    scaled: tuple[tuple[int, ...], ...]


def scaled_to_integers(m: ExactMatrix) -> tuple[int, list[list[int]]]:
    """(d, rows of d*m) for d the lcm of the denominators of m."""
    d = lcm(*(v.denominator for v in m.entries))
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in m.to_rows()]


def integer_char_poly(a: Sequence[Sequence[int]]) -> list[int]:
    """c_0..c_n of det(lambda*I - a) = sum_k c_k lambda^(n-k) for a square
    integer a, by Berkowitz (1984), division-free in O(n^4): leading block r
    maps block r-1's polynomial by the Toeplitz matrix of 1, -a_rr, -R S,
    -R M S, ..., -R M^(r-1) S (M block r-1, R and S its new row, column)."""
    c = [1]
    for r, row in enumerate(a):
        t, v = [1, -row[r]], [a[i][r] for i in range(r)]
        for _ in range(r):
            t.append(-sum(map(mul, row, v)))
            v = [sum(map(mul, a[i], v)) for i in range(r)]
        c = [sum(t[i - j] * c[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return c


def char_poly(m: ExactMatrix) -> list[Rational]:
    """c_0..c_n of det(lambda*I - m), `integer_char_poly` of d*m over d**k;
    (-1)^k c_k is the sum of the principal k x k minors of m."""
    if not m.is_square():
        raise DimensionError(f"char poly needs a square matrix, got {m.rows}x{m.cols}")
    d, a = scaled_to_integers(m)
    return [Fraction(c, d**k) for k, c in enumerate(integer_char_poly(a))]


def minor_levels(m: ExactMatrix) -> Iterator[MinorLevel]:
    """Yield all k x k minors of the square matrix m for k = 1, 2, ..., n.

    Level k is built from level k - 1 by Laplace expansion of each minor
    along its last row (Aitken's compound-matrix recursion):

        |X_{I,J}| = sum_t (-1)^(k-1+t) x_{i_k, j_t} |X_{I - i_k, J - j_t}|

    m is first scaled to integers by the lcm d of its denominators, so all
    arithmetic is in Python ints and level k is exact over d**k.  A level is
    built only when the caller asks for it, and only the level before it is
    kept to build it.
    """
    if not m.is_square():
        raise DimensionError(f"minor table needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    d, a = scaled_to_integers(m)
    prev_rank: dict[tuple[int, ...], int] = {(): 0}
    prev: tuple[tuple[int, ...], ...] = ((1,),)
    for k in range(1, n + 1):
        subsets = list(combinations(range(n), k))
        # For each column set J: (j_t, rank of J - j_t, sign of the term).
        expansion = [
            [
                (j, prev_rank[J[:t] + J[t + 1 :]], -1 if (k - 1 - t) % 2 else 1)
                for t, j in enumerate(J)
            ]
            for J in subsets
        ]
        level = []
        # Row sets come in runs sharing I - i_k, hence the same smaller minors.
        for head, row_sets in groupby(subsets, key=lambda s: s[:-1]):
            above = prev[prev_rank[head]]
            cofactors = [[(j, sign * above[c]) for j, c, sign in terms] for terms in expansion]
            for I in row_sets:
                row = a[I[-1]]
                level.append(tuple(sum(row[j] * w for j, w in cof) for cof in cofactors))
        prev = tuple(level)
        prev_rank = {s: r for r, s in enumerate(subsets)}
        yield MinorLevel(n, k, d**k, prev)


def child_seed(seed: int, *parts: int) -> int:
    """The seed of one campaign matrix, from the run's seed and its coordinates."""
    out = seed
    for p in parts:
        out = out * 1_000_003 + p + 1
    return out


def random_symmetric(n: int, seed: int, entry_bound: int) -> ExactMatrix:
    """Seeded random symmetric n x n matrix with integer entries in
    [-entry_bound, entry_bound]. Same arguments always give the same matrix."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if entry_bound < 0:
        raise ValueError(f"entry_bound must be >= 0, got {entry_bound}")
    rng = random.Random(seed)
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-entry_bound, entry_bound)
            vals[i][j] = v
            vals[j][i] = v
    return ExactMatrix.from_rows(vals)


def random_matrix(n: int, seed: int, entry_bound: int) -> ExactMatrix:
    """Seeded random n x n integer matrix, no symmetry imposed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if entry_bound < 0:
        raise ValueError(f"entry_bound must be >= 0, got {entry_bound}")
    rng = random.Random(seed)
    return ExactMatrix.from_rows(
        [[rng.randint(-entry_bound, entry_bound) for _ in range(n)] for _ in range(n)]
    )


def exact_str(v: Rational) -> str:
    """The digits of `str(v)`, also past Python's limit on int-to-str digits,
    which a product of k admitted entries can exceed; `decimal` has no such
    limit, and an int's `Decimal` prints exactly its `str`."""
    num = str(Decimal(v.numerator))
    return num if v.denominator == 1 else f"{num}/{Decimal(v.denominator)}"


def matrix_to_json_dict(m: ExactMatrix) -> dict:
    """Serialize to {"rows", "cols", "entries"} with entries as exact strings:
    integers as plain strings, non-integers as "p/q" in lowest terms."""
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[exact_str(v) for v in row] for row in m.to_rows()],
    }


def matrix_from_json_dict(d: dict) -> ExactMatrix:
    """Inverse of `matrix_to_json_dict`.  rows and cols must be integers and
    entries a list of rows of exact entries, integers or strings such as
    "-3/4" or "0.25", with no exponent; anything else, a missing key, floats,
    booleans and "1e9" included, raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a matrix must be a JSON object, got {type(d).__name__}")
    missing = [key for key in ("rows", "cols", "entries") if key not in d]
    if missing:
        raise ValueError(f"a matrix needs rows, cols and entries; missing {', '.join(missing)}")
    rows, cols, entries = d["rows"], d["cols"], d["entries"]
    if type(rows) is not int or type(cols) is not int or type(entries) is not list:
        raise ValueError("a matrix needs integer rows and cols and a list of entry rows")
    if len(entries) != rows or any(type(row) is not list or len(row) != cols for row in entries):
        raise DimensionError("entry grid does not match declared rows/cols")
    for row in entries:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise ValueError(f"matrix entries must be integers or exact strings, got {v!r}")
            # Fraction would expand an exponent in full: "1e100000000" hangs.
            if isinstance(v, str) and ("e" in v or "E" in v):
                raise ValueError(f"matrix entries take no exponent, got {v!r}")
    try:
        return ExactMatrix.from_rows(entries)
    except ZeroDivisionError:
        raise ValueError("matrix entries must not have a zero denominator") from None


def load_matrix(path) -> ExactMatrix:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return matrix_from_json_dict(doc)
