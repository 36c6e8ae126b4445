"""Planar layered network whose path matrix is the T matrix, with exhaustive
vertex-disjoint path-family counting.

This gives a second, determinant-free route to the minors of T: by the
Lindstrom-Gessel-Viennot lemma, |T_{J,I}| counts vertex-disjoint path
families from sources J to sinks I.  The counting here is plain backtracking
over per-source path choices, deliberately independent of `exact_linalg`;
each source's paths are enumerated once per network and kept on it, and the
path matrix is counted from those same paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .exact_linalg import DimensionError, ExactMatrix, IndexSet, k_subsets, minor_levels, t_matrix
from .minor_sums import check_size_guard, check_walk, t_minor_formula

__all__ = [
    "LayeredNetwork",
    "audit",
    "audit_table",
    "build_network",
    "count_disjoint_families",
    "path_matrix",
]

Edge = tuple[int, int]  # (left row, right row) within one layer


@dataclass(frozen=True)
class LayeredNetwork:
    """Directed graph arranged in layers between n-row vertex columns.

    Vertices are (boundary, row) pairs with boundaries 0..len(layers); layer b
    holds edges from boundary b to boundary b+1.  Sources are column 0, sinks
    the last column.
    """

    n: int
    layers: tuple[frozenset[Edge], ...]

    def __post_init__(self) -> None:
        for b, layer in enumerate(self.layers):
            for a, c in layer:
                if not (1 <= a <= self.n and 1 <= c <= self.n):
                    raise ValueError(f"edge ({a}, {c}) in layer {b} out of range")
            for a, c in layer:
                for a2, c2 in layer:
                    if (a - a2) * (c - c2) < 0:
                        raise ValueError(
                            f"layer {b} is not planar: edges ({a}->{c}) and "
                            f"({a2}->{c2}) cross"
                        )

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def _paths(self) -> tuple[list[tuple[int, ...]], ...]:
        """`_paths_from` of sources 1..n, enumerated once per instance.
        cached_property writes the instance __dict__, past the frozen
        __setattr__; dataclass eq and hash see only the fields."""
        return tuple(_paths_from(self, s) for s in range(1, self.n + 1))


def build_network(n: int) -> LayeredNetwork:
    """Network with path matrix equal to t_matrix(n).

    Layer 0 realizes the bidiagonal factor (edges i->i, and i->i-1 for i >= 2);
    layer t in 1..n-1 realizes one elementary factor of the lower-triangular
    all-ones matrix (edges i->i plus the single edge (n-t+1)->(n-t)).  The
    path matrix, counted from the paths that `count_disjoint_families` uses,
    is checked against t_matrix(n) at construction.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bidiag = {(i, i) for i in range(1, n + 1)} | {(i, i - 1) for i in range(2, n + 1)}
    layers = [frozenset(bidiag)]
    for t in range(1, n):
        step = {(i, i) for i in range(1, n + 1)}
        step.add((n - t + 1, n - t))
        layers.append(frozenset(step))
    net = LayeredNetwork(n, tuple(layers))
    if path_matrix(net) != t_matrix(n):
        raise RuntimeError(f"constructed network has wrong path matrix for n={n}")
    return net


def path_matrix(net: LayeredNetwork) -> ExactMatrix:
    """Entry (a, b) counts the directed paths from source a to sink b: the
    endpoints of the source's enumerated paths, converted to an `ExactMatrix`
    once."""
    rows = [[0] * net.n for _ in range(net.n)]
    for row, paths in zip(rows, net._paths):
        for p in paths:
            row[p[-1] - 1] += 1
    return ExactMatrix.from_rows(rows)


def _paths_from(net: LayeredNetwork, source: int) -> list[tuple[int, ...]]:
    """All directed paths from (0, source) to the sink column, as row tuples,
    extended one layer at a time."""
    paths = [(source,)]
    for layer in net.layers:
        paths = [p + (c,) for p in paths for a, c in layer if a == p[-1]]
    return paths


def count_disjoint_families(net: LayeredNetwork, sources: IndexSet, sinks: IndexSet) -> int:
    """Number of families of vertex-disjoint paths joining the source set
    bijectively onto the sink set.

    Exhaustive backtracking: each source in turn tries each of its paths whose
    endpoint is an unused sink and whose vertices are all unoccupied.  In this
    planar network only the order-preserving connection can survive, which is
    what makes the count equal the corresponding minor of T.  Raises
    DimensionError unless sources and sinks are equally large subsets of
    1..net.n.
    """
    if len(sources) != len(sinks):
        raise DimensionError(
            f"need equally many sources and sinks, got {len(sources)} and {len(sinks)}"
        )
    if sources.n != net.n or sinks.n != net.n:
        raise DimensionError(
            f"sources and sinks must be subsets of 1..{net.n}, got sizes {sources.n} and {sinks.n}"
        )
    sink_set = set(sinks)
    per_source = [[p for p in net._paths[s - 1] if p[-1] in sink_set] for s in sources]

    def extend(idx: int, occupied: set, used_sinks: set) -> int:
        if idx == len(per_source):
            return 1
        total = 0
        for path in per_source[idx]:
            if path[-1] in used_sinks:
                continue
            verts = set(enumerate(path))
            if verts & occupied:
                continue
            total += extend(idx + 1, occupied | verts, used_sinks | {path[-1]})
        return total

    return extend(0, set(), set())


def audit_table(n: int) -> list[dict]:
    """Three-way table over all index pairs: closed formula, determinant minor
    of T (rows J, cols I), and the backtracking path-family count.  The
    minors are read from one pass of T's minor table (`minor_levels`).
    `agree` compares the exact values; the table shows them as integers.
    Refuses, before any work, more than MAX_WALK rows."""
    check_size_guard(n)
    # sum of C(n,k)^2 over k = 1..n, by Vandermonde
    check_walk(comb(2 * n, n) - 1, f"table rows at n={n}")
    net = build_network(n)
    table = []
    for level in minor_levels(t_matrix(n)):
        subsets = list(k_subsets(n, level.k))
        for col, I in enumerate(subsets):
            for row, J in enumerate(subsets):
                formula = t_minor_formula(I, J)
                det_value = Fraction(level.scaled[row][col], level.scale)
                lgv_count = count_disjoint_families(net, J, I)
                table.append(
                    {
                        "k": level.k,
                        "I": list(I.elems),
                        "J": list(J.elems),
                        "formula_value": int(formula),
                        "det_value": int(det_value),
                        "lgv_count": lgv_count,
                        "agree": formula == det_value == lgv_count,
                    }
                )
    return table


def audit(n: int) -> dict:
    """The lgv-audit report: `audit_table(n)`, passing when every row agrees."""
    table = audit_table(n)
    return {
        "command": "lgv-audit",
        "n": n,
        "pair_count": len(table),
        "passed": all(row["agree"] for row in table),
        "table": table,
    }
