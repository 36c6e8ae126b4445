"""Exact rational linear algebra: dense matrices of arbitrary-precision
rationals, the table of all k x k minors of a matrix (the one minor engine
of the package), its division-free characteristic polynomial, and the
structured lower-triangular matrix T with entries 1 + sgn(i - j).  The
Bareiss determinant that checks the minor table lives with the test oracles.
Also the JSON side of the package: matrix documents, `read_json`, and
`json_text`, the renderer of every JSON report, with `JsonTemplate`, the
text of a list of dicts kept across calls, written for a `TemplatedList`
that still fits it.

All public interfaces are 1-based in row/column indices, so worked examples
from the literature transcribe directly.  Internal storage is 0-based
row-major.
"""

from __future__ import annotations

import json
import marshal
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, repeat
from json.encoder import encode_basestring_ascii
from math import inf, lcm
from operator import index, itemgetter, mul, neg
from typing import Iterator, Sequence

# Matrix entries are stdlib Fractions: always in lowest terms, positive
# denominator, exact arithmetic.
Rational = Fraction

# Level k of the minor table holds C(n,k)^2 minors (853,776 at n=12,
# k=6), and the orbit and path audits enumerate as many matchings and path
# families; beyond this n they stop being desk-scale, so refuse.
SIZE_GUARD = 12


def refuse_past_guard(n: int) -> None:
    """Refuse n > SIZE_GUARD, before any enumeration of minors or matchings."""
    if n > SIZE_GUARD:
        raise ValueError(f"n={n} exceeds the guard {SIZE_GUARD}")


__all__ = [
    "DimensionError",
    "ExactMatrix",
    "IndexSet",
    "JsonTemplate",
    "MinorLevel",
    "Rational",
    "TemplatedList",
    "as_index",
    "char_poly",
    "child_seed",
    "exact_str",
    "integer_char_poly",
    "json_text",
    "k_subsets",
    "load_matrix",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "minor_levels",
    "random_matrix",
    "random_symmetric",
    "read_json",
    "scaled_to_integers",
    "t_matrix",
]


class DimensionError(ValueError):
    """Raised when matrix or index-set dimensions are incompatible."""


def as_index(v) -> int:
    """`v` as a Python int.  Python and numpy integers pass, through
    `operator.index`; a bool, float, string or any other value raises a
    ValueError that names it, rather than being rounded or parsed."""
    if type(v) is int:
        return v
    if not isinstance(v, bool):  # operator.index would take True as 1
        try:
            return index(v)
        except TypeError:
            pass
    raise ValueError(f"an index must be an integer, got {v!r}")


@dataclass(frozen=True, order=True)
class IndexSet:
    """A strictly increasing subset of {1, ..., n}, kept with its ambient size."""

    n: int
    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_index(self.n))
        object.__setattr__(self, "elems", tuple(map(as_index, self.elems)))
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
        object.__setattr__(self, "rows", as_index(self.rows))
        object.__setattr__(self, "cols", as_index(self.cols))
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


def t_matrix(n: int) -> ExactMatrix:
    """The n x n matrix with entries 1 + sgn(i - j): 0 above the diagonal,
    1 on it, 2 below."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return ExactMatrix.from_rows(
        [[0 if i < j else (1 if i == j else 2) for j in range(n)] for i in range(n)]
    )


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


# Every (n, k) under the guard; all k at n=12 hold 2.2 MB, all 78 3.6 MB.
@lru_cache(maxsize=SIZE_GUARD * (SIZE_GUARD + 1) // 2)
def _plan(n: int, k: int) -> tuple[tuple, tuple]:
    """The X-free half of level k: the runs of row sets I that share the head
    H = I - i_k, as (rank of H at level k - 1, the rows i_k of the run), and
    for each column set J an itemgetter over H's row at level k - 1, then
    its negation, then a 0.  It takes the weights (-1)^(k-1+t)
    |X_{H, J - j_t}| at each column j_t of J and the 0 elsewhere, n + 1 in
    all, the last past every row, so that n = 1 still gives a tuple."""
    heads = {H: r for r, H in enumerate(combinations(range(n), k - 1))}
    subsets = list(combinations(range(n), k))
    runs = tuple((heads[H], tuple(I[-1] for I in g)) for H, g in groupby(subsets, lambda s: s[:-1]))
    cols = []
    for J in subsets:
        at = [2 * len(heads)] * (n + 1)
        for t, j in enumerate(J):
            at[j] = heads[J[:t] + J[t + 1 :]] + (len(heads) if (k - 1 - t) % 2 else 0)
        cols.append(itemgetter(*at))
    return runs, tuple(cols)


def minor_levels(m: ExactMatrix) -> Iterator[MinorLevel]:
    """Yield all k x k minors of the square matrix m for k = 1, 2, ..., n.

    Level k is built from level k - 1 by Laplace expansion of each minor
    along its last row (Aitken's compound-matrix recursion):

        |X_{I,J}| = sum_t (-1)^(k-1+t) x_{i_k, j_t} |X_{I - i_k, J - j_t}|

    m is first scaled to integers by the lcm d of its denominators, so all
    arithmetic is in Python ints and level k is exact over d**k.  What does
    not depend on m is `_plan(n, k)`, cached per (n, k); each minor is then
    one C-level `sum(map(mul, row, weights))`, and only +, unary -, * and
    sum touch the entries.  A level is built only when the caller asks for
    it, and only the level before it is kept to build it.  A matrix past
    SIZE_GUARD rows is refused before the first level.
    """
    if not m.is_square():
        raise DimensionError(f"minor table needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    refuse_past_guard(n)
    d, a = scaled_to_integers(m)
    prev: tuple[tuple[int, ...], ...] = ((1,),)
    for k in range(1, n + 1):
        runs, cols = _plan(n, k)
        level = []
        for head, rows in runs:
            above = prev[head]
            ext = (*above, *map(neg, above), 0)
            weights = [g(ext) for g in cols]
            level.extend(tuple(map(sum, map(map, repeat(mul), repeat(a[i]), weights))) for i in rows)
        prev = tuple(level)
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


def read_json(path):
    """The JSON document in the file at path; nesting too deep for the
    parser raises ValueError, not RecursionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_matrix(path) -> ExactMatrix:
    return matrix_from_json_dict(read_json(path))


class JsonTemplate:
    """The JSON text of a list of dicts less its slots, for a later list
    that differs only there.  The slots are the str values under the keys
    `slots`, each alone or in a list; every other value is fixed.

    `pieces` is the fixed text between the slots, as `json_text` writes the
    list at `indent`: it renders the rows with the sentinel "\\x00" in each
    slot and splits on the sentinel's text.  `keys` are each row's keys in
    order, `fixed` each row's fixed values by `marshal` (format 2, which
    writes no back-references), and `shape` the length of each slot list,
    -1 for a lone str.  Nothing in it is a slot value.
    """

    __slots__ = ("indent", "keys", "slots", "fixed_of", "fixed", "shape", "pieces")

    def __init__(self, rows: list[dict], slots: tuple[str, ...], indent: str):
        """The template of `rows` at `indent`.  Each row must be a dict with
        the keys of the first, in order, at least one of them not a slot,
        and a str or a list of str under each slot key; any other rows, and
        fixed values that `marshal` refuses, raise ValueError."""
        self.indent = indent
        self.keys = tuple(rows[0]) if rows else ()
        self.slots = tuple(key for key in self.keys if key in slots)  # in row order
        fixed = [key for key in self.keys if key not in slots]
        if not fixed or len(self.slots) != len(set(slots)):
            raise ValueError("a template needs rows with every slot key and another key")
        self.fixed_of = itemgetter(*fixed)
        shape, values = self._slot_values(rows)
        if values is None or not all(type(v) is str for v in values):
            raise ValueError("every row needs the same keys and str slot values")
        self.fixed = marshal.dumps(list(map(self.fixed_of, rows)), 2)
        self.shape = tuple(shape)
        blank = [
            {key: _blank(v) if key in slots else v for key, v in row.items()} for row in rows
        ]
        self.pieces = tuple(json_text(blank, indent).split(encode_basestring_ascii("\x00")))
        if len(self.pieces) != len(values) + 1:
            raise ValueError("a fixed value holds the sentinel")

    def _slot_values(self, rows) -> tuple[list[int], list | None]:
        """(shape, slot values) of `rows`; None for the values if a row is not a
        dict with `keys` in order."""
        keys, slots = self.keys, self.slots
        shape, values = [], []
        for row in rows:
            if type(row) is not dict or tuple(row) != keys:
                return shape, None
            for key in slots:
                v = row[key]
                if type(v) is list:
                    shape.append(len(v))
                    values += v
                else:
                    shape.append(-1)
                    values.append(v)
        return shape, values

    def text(self, rows: list, indent: str) -> str | None:
        """`json_text(rows, indent)` from the pieces if `rows` fit them: the
        template's indent, keys, fixed values and shape, and str slot
        values.  None if they do not."""
        if indent != self.indent:
            return None
        shape, values = self._slot_values(rows)
        try:
            if (
                values is None
                or tuple(shape) != self.shape
                or marshal.dumps(list(map(self.fixed_of, rows)), 2) != self.fixed
            ):
                return None
            parts = [""] * (2 * len(values) + 1)
            parts[1::2] = map(encode_basestring_ascii, values)  # TypeError unless str
        except (TypeError, ValueError):  # a slot not a str; a value marshal refuses
            return None
        parts[::2] = self.pieces
        return "".join(parts)


def _blank(v):
    """The sentinel in place of a slot value, or of each of a list's."""
    return ["\x00"] * len(v) if type(v) is list else "\x00"


class TemplatedList(list):
    """A list that `json_text` writes from `template`, a `JsonTemplate`,
    while the list fits it, and as a plain list otherwise.  As a list it is
    its plain items: `==` to them, and written as them by `json.dumps`."""

    __slots__ = ("template",)

    def __init__(self, items, template: JsonTemplate, /):
        super().__init__(items)
        self.template = template


def json_text(o, indent: str = "") -> str:
    """`json.dumps(o, indent=2)`, byte for byte, in one recursive pass.

    With `indent` set, `json.dumps` runs the pure-Python encoder.  This
    renderer writes, by exact type, only what reports hold: a dict with str
    keys, a list or tuple (its str and int items inline, without a call), a
    finite float, a bool, None, and a `TemplatedList`, which its template
    writes if the list still fits it.  Every other value, and a dict with a
    key that is not a str (on which `encode_basestring_ascii` raises
    TypeError), goes to `json.dumps(o, indent=2)`.  Depth-0 text is moved to
    this depth by following each newline with `indent`, which is exact
    because indent=2 JSON has no newline inside a string."""
    t = type(o)
    if t is dict or t is list or t is tuple:
        if not o:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        if t is not dict:
            enc = encode_basestring_ascii
            items = [
                enc(v) if type(v) is str else repr(v) if type(v) is int else json_text(v, inner)
                for v in o
            ]
            return _enclosed("[", items, "]", indent)
        try:
            return _enclosed("{", _items(o.items(), inner), "}", indent)
        except TypeError:  # a key that is not a str; or a value json.dumps refuses too
            pass
    elif t is float and -inf < o < inf:
        return repr(o)
    elif t is bool:
        return "true" if o else "false"
    elif o is None:
        return "null"
    elif t is TemplatedList:
        text = o.template.text(o, indent)
        return json_text(list(o), indent) if text is None else text
    return json.dumps(o, indent=2).replace("\n", "\n" + indent)


def _enclosed(opening: str, items: list[str], closing: str, indent: str) -> str:
    """The rendered `items`, one to a line at `indent` plus two spaces,
    between `opening` and `closing` on lines of their own.  The brackets are
    joined onto the first and last items, so that the one `str.join` is the
    only copy of the whole text: a 2.5 MB report is not copied once more
    per bracket."""
    inner = indent + "  "
    items[0] = opening + "\n" + inner + items[0]
    items[-1] += "\n" + indent + closing
    return (",\n" + inner).join(items)


def _items(pairs, inner: str) -> list[str]:
    """Each (key, value) of `pairs` as a dict item at indent `inner`; a key
    that is not a str raises TypeError."""
    enc = encode_basestring_ascii
    return [
        enc(k)
        + ": "
        + (enc(v) if type(v) is str else repr(v) if type(v) is int else json_text(v, inner))
        for k, v in pairs
    ]
