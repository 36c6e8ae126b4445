"""Matchings of the complete bipartite graph K_{n,n} as signed, weighted
bijections, their cluster decomposition, and the cluster-flip group action.

A k-edge matching tau: I -> J contributes sign(tau) * prod x_{i,tau(i)} to the
expansion of the minor |X_IJ|.  Joining edges through auxiliary r -> r links
for r in the intersection of I and J partitions the edges into open and closed
clusters; flipping an open cluster (reversing all its edges) generates an
action of (Z/2)^C(n,2) whose orbit structure is what makes the sum of all
minors collapse onto interlacing pairs: non-interlacing orbits are
sign-balanced and cancel, interlacing orbits contribute 2^p equal terms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, permutations, product
from math import comb, factorial
from typing import Iterator

from .exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    Rational,
    as_index,
    exact_str,
    k_subsets,
    matrix_to_json_dict,
)
from .minor_sums import (
    SymmetryError,
    check_size_guard,
    check_walk,
    interlaces,
    level_sums,
    p_value,
)

__all__ = [
    "Cluster",
    "Matching",
    "Orbit",
    "OrbitSumReport",
    "decompose_clusters",
    "enumerate_matchings",
    "flip",
    "matching_count",
    "orbit",
    "orbit_audit",
    "orbit_sum_identity",
    "partition_into_orbits",
    "sign",
    "weight",
]


@dataclass(frozen=True)
class Matching:
    """k-edge matching of K_{n,n}; edge (i, j) joins left node i to right node j."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_index(self.n))
        edges = tuple(sorted((as_index(i), as_index(j)) for i, j in self.edges))
        object.__setattr__(self, "edges", edges)
        lefts = [i for i, _ in edges]
        rights = [j for _, j in edges]
        for v in lefts + rights:
            if not 1 <= v <= self.n:
                raise ValueError(f"node {v} out of range for n={self.n}")
        if len(set(lefts)) != len(edges) or len(set(rights)) != len(edges):
            raise ValueError("edges share a vertex; not a matching")

    @property
    def k(self) -> int:
        return len(self.edges)

    @cached_property
    def _clusters(self) -> tuple[Cluster, ...]:
        # cached_property writes the instance __dict__, past the frozen
        # __setattr__; dataclass eq, hash and repr see only the fields.
        return _trace_clusters(self)

    def row_set(self) -> IndexSet:
        return IndexSet(self.n, tuple(i for i, _ in self.edges))

    def col_set(self) -> IndexSet:
        return IndexSet(self.n, tuple(sorted(j for _, j in self.edges)))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j] for i, j in self.edges]}


def enumerate_matchings(n: int, k: int) -> Iterator[Matching]:
    """All k-edge matchings of K_{n,n}, each exactly once, in lexicographic
    (I, J, assignment) order; there are C(n,k)^2 * k! of them."""
    for edges in _edge_tuples(n, k):
        yield Matching(n, edges)


def matching_count(n: int, k: int) -> int:
    """|M_{n,k}| = C(n,k)^2 * k!, the number of k-edge matchings of K_{n,n}."""
    _check_k(n, k)
    return comb(n, k) ** 2 * factorial(k)


def _check_k(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")


def _edge_tuples(n: int, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The edges of each matching of `enumerate_matchings`, in its order and
    already sorted by left node, without building the Matching."""
    _check_k(n, k)
    for I in k_subsets(n, k):
        for J in k_subsets(n, k):
            for assignment in permutations(J.elems):
                yield tuple(zip(I.elems, assignment))


def sign(m: Matching) -> int:
    """+1 or -1 by the parity of the crossing number: edge pairs (i -> j),
    (i' -> j') with (i - i') * (j - j') < 0.  Equals the sign of the underlying
    permutation."""
    crossings = 0
    edges = m.edges
    for s in range(len(edges)):
        i, j = edges[s]
        for t in range(s + 1, len(edges)):
            i2, j2 = edges[t]
            if (i - i2) * (j - j2) < 0:
                crossings += 1
    return -1 if crossings % 2 else 1


def weight(m: Matching, x: ExactMatrix) -> Rational:
    """Product of the matrix entries along the matching's edges."""
    if m.n > x.rows or m.n > x.cols:
        raise DimensionError(f"matching on n={m.n} does not fit a {x.rows}x{x.cols} matrix")
    entries, cols = x.entries, x.cols
    num = den = 1
    for i, j in m.edges:
        e = entries[(i - 1) * cols + j - 1]
        num *= e.numerator
        den *= e.denominator
    return Fraction(num, den)


@dataclass(frozen=True)
class Cluster:
    """One block of a matching's cluster decomposition.

    Open clusters form a path from a left node in I' = I - (I&J) to a right
    node in J' = J - (I&J); those two labels are the endpoints.  Closed
    clusters have separation 0 by definition.
    """

    edges: tuple[tuple[int, int], ...]
    kind: str  # "open" or "closed"
    endpoints: tuple[int, int] | None
    separation: int


def decompose_clusters(m: Matching) -> tuple[Cluster, ...]:
    """Partition the edges into clusters: connected components after
    temporarily adding auxiliary edges r -> r for every r in both I and J.

    With those links the matching is the partial permutation tau of the node
    labels, so each open cluster is the path that starts at a left node in
    I - J and follows tau through I & J until it reaches a node of J - I,
    and each closed cluster is a cycle of tau on I & J.  The clusters come
    sorted by their edges; they are traced once per Matching instance, one
    step per edge, and kept on it.
    """
    return m._clusters


def _trace_clusters(m: Matching) -> tuple[Cluster, ...]:
    tau = dict(m.edges)
    I = tuple(tau)  # sorted, as the edges are
    J = tuple(sorted(tau.values()))
    targets = set(J)
    todo = set(I)

    def walk(i: int) -> tuple[tuple[tuple[int, int], ...], int]:
        """Follow tau from left node i to where it leaves I or returns to i."""
        edges = []
        while i in todo:
            todo.remove(i)
            edges.append((i, tau[i]))
            i = tau[i]
        return tuple(sorted(edges)), i

    clusters = []
    for a in I:
        if a not in targets:
            edges, b = walk(a)
            lo, hi = min(a, b), max(a, b)
            separation = (
                bisect_left(I, hi) - bisect_right(I, lo) + bisect_left(J, hi) - bisect_right(J, lo)
            )
            clusters.append(Cluster(edges, "open", (a, b), separation))
    for r in I:
        if r in todo:
            clusters.append(Cluster(walk(r)[0], "closed", None, 0))
    clusters.sort(key=lambda c: c.edges)
    return tuple(clusters)


def flip(m: Matching, i: int, j: int) -> Matching:
    """Generator f_ij of the flip group: if an open cluster contains the edge
    i -> j or j -> i, reverse every edge of that cluster; otherwise return m
    unchanged.  The cluster is picked by identity, so no two clusters are
    compared."""
    if not 1 <= i < j <= m.n:
        raise ValueError(f"flip generators need 1 <= i < j <= n, got ({i}, {j})")
    clusters = decompose_clusters(m)
    for c in clusters:
        if c.kind == "open" and ((i, j) in c.edges or (j, i) in c.edges):
            return _assemble(m.n, [_reversed(d) if d is c else d for d in clusters])
    return m


def _reversed(cluster: Cluster) -> Cluster:
    """An open cluster with its edges reversed and its endpoints swapped.  Its
    separation is unchanged, because reversing keeps the multiset I + J."""
    a, b = cluster.endpoints
    edges = tuple(sorted((j, i) for i, j in cluster.edges))
    return Cluster(edges, "open", (b, a), cluster.separation)


def _trusted(n: int, edges: tuple[tuple[int, int], ...], **cached) -> Matching:
    """The Matching of n and `edges`, built without `__post_init__`.

    Every caller passes edges that are already sorted and a valid matching
    by construction; `cached` presets cached properties such as `_clusters`.
    Tests check each caller's results against a validated construction and
    a fresh trace.
    """
    m = object.__new__(Matching)
    # Past the frozen __setattr__, as cached_property does; a cached
    # property's own slot is its name in the instance __dict__.
    m.__dict__.update(n=n, edges=edges, **cached)
    return m


def _assemble(n: int, clusters) -> Matching:
    """The matching whose edges are the union of `clusters`, carrying them.

    Every caller passes the clusters of a valid matching with some open
    clusters reversed, which is again a valid matching with exactly those
    clusters, so it needs no re-validation and no trace.
    """
    return _trusted(
        n,
        tuple(sorted(e for c in clusters for e in c.edges)),
        _clusters=tuple(sorted(clusters, key=lambda c: c.edges)),
    )


@dataclass(frozen=True)
class Orbit:
    """A flip-group orbit: all 2^p reversals-of-subsets of the open clusters."""

    members: tuple[Matching, ...]
    classification: str  # "interlacing" or "non-interlacing"


def orbit(m: Matching) -> Orbit:
    """Materialize the orbit of m under all cluster flips.

    Open clusters flip independently, so the members are exactly the 2^p
    choices of orientation of m's open clusters, each built once from m's
    single trace.  Classification follows the parity criterion (orbit is
    interlacing iff every cluster separation is even), cross-checked against
    an explicit scan for an interlacing member.
    """
    clusters = decompose_clusters(m)
    closed = [c for c in clusters if c.kind == "closed"]
    picks = product(*((c, _reversed(c)) for c in clusters if c.kind == "open"))
    next(picks)  # every open cluster as in m: m itself
    members = sorted(
        [m, *(_assemble(m.n, closed + list(pick)) for pick in picks)], key=lambda t: t.edges
    )

    all_even = all(c.separation % 2 == 0 for c in clusters)
    interlacing_members = [
        t for t in members if interlaces([i for i, _ in t.edges], sorted(j for _, j in t.edges))
    ]
    if all_even != bool(interlacing_members) or len(interlacing_members) > 1:
        raise RuntimeError(
            f"orbit classification inconsistency for {m}: even={all_even}, "
            f"interlacing members={len(interlacing_members)}"
        )
    return Orbit(tuple(members), "interlacing" if all_even else "non-interlacing")


@dataclass(frozen=True)
class OrbitSumReport:
    """Orbit-by-orbit audit of the alternating matching sum for symmetric X.

    `signs` and `weights` (one per member) and `orbit_sums` (signed sum of
    the members) run parallel to `orbits`; `failed_checks` names the
    properties of the orbit partition that do not hold.
    """

    n: int
    k: int
    orbits: tuple[Orbit, ...]
    signs: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[Rational, ...], ...]
    orbit_sums: tuple[Rational, ...]
    failed_checks: tuple[str, ...]
    interlacing_orbit_sum: Rational
    non_interlacing_orbit_sum: Rational
    interlacing_s: Rational
    all_minors: Rational

    @property
    def matching_sum(self) -> Rational:
        return self.interlacing_orbit_sum + self.non_interlacing_orbit_sum

    @property
    def sums_equal(self) -> bool:
        return self.matching_sum == self.interlacing_s == self.all_minors

    @property
    def all_checks_pass(self) -> bool:
        return not self.failed_checks and self.sums_equal


def partition_into_orbits(n: int, k: int) -> list[Orbit]:
    """All of M_{n,k} grouped into flip-group orbits, in canonical order.
    Refuses, before any enumeration, an M_{n,k} of more than MAX_WALK
    matchings."""
    check_size_guard(n)
    check_walk(matching_count(n, k), f"matchings in M_{{{n},{k}}}")
    seen: set[tuple[tuple[int, int], ...]] = set()
    orbits = []
    for edges in _edge_tuples(n, k):
        if edges in seen:
            continue
        o = orbit(_trusted(n, edges))
        for member in o.members:
            seen.add(member.edges)
        orbits.append(o)
    return orbits


def orbit_sum_identity(x: ExactMatrix, k: int) -> OrbitSumReport:
    """Execute the orbit-sum proof on concrete data.

    Partitions M_{n,k} into flip orbits once and evaluates each member's sign
    and weight once.  Checks that the orbits partition M_{n,k} (distinct
    members, C(n,k)^2 * k! in total), that each orbit has 2^p(I,J) members and
    constant weight, that interlacing orbits have a single sign and that
    non-interlacing orbits are sign-balanced.  An orbit whose weights are all
    equal, as checked, sums to that weight times the sum of its signs; any
    other orbit is summed member by member.  The grand alternating sum is the
    sum of the orbit sums; it must equal S and the sum of all k x k minors of
    X, both taken as 1 at k=0.
    """
    if not x.is_square():
        raise DimensionError(f"need a square matrix, got {x.rows}x{x.cols}")
    if not x.is_symmetric():
        raise SymmetryError("orbit sum identity needs a symmetric matrix")
    n = x.rows
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    orbits = partition_into_orbits(n, k)
    if k == 0:
        s = all_minors = Fraction(1)  # the single empty pair contributes the empty minor
    else:
        sums = level_sums(x, k)
        s, all_minors = sums.interlacing, sums.all

    # p(I, J) of a matching's row and column sets, on these k-subsets,
    # validated once.
    subsets = {s.elems: s for s in k_subsets(n, k)}

    def p(m: Matching) -> int:
        rows, cols = tuple(i for i, _ in m.edges), tuple(sorted(j for _, j in m.edges))
        return p_value(subsets[rows], subsets[cols])

    weights = tuple(tuple(weight(m, x) for m in o.members) for o in orbits)
    signs = tuple(tuple(sign(m) for m in o.members) for o in orbits)
    # By equality: a set would hash every Fraction, a modular inverse each.
    constant = tuple(all(w == ws[0] for w in ws) for ws in weights)
    orbit_sums = tuple(
        ws[0] * sum(sgs) if same else sum((sg * w for sg, w in zip(sgs, ws)), Fraction(0))
        for sgs, ws, same in zip(signs, weights, constant)
    )
    interlacing = tuple(o.classification == "interlacing" for o in orbits)
    non_interlacing = tuple(not il for il in interlacing)
    checks = {
        "orbits_partition_matchings": len({m.edges for o in orbits for m in o.members})
        == sum(len(o.members) for o in orbits)
        == matching_count(n, k),
        "orbit_sizes_match_p": all(len(o.members) == 2 ** p(o.members[0]) for o in orbits),
        "weight_constant_on_orbits": all(constant),
        "interlacing_orbits_uniform_sign": all(
            len(set(sgs)) == 1 for sgs in compress(signs, interlacing)
        ),
        "non_interlacing_orbits_balanced": all(
            sum(sgs) == 0 for sgs in compress(signs, non_interlacing)
        ),
    }

    return OrbitSumReport(
        n=n,
        k=k,
        orbits=tuple(orbits),
        signs=signs,
        weights=weights,
        orbit_sums=orbit_sums,
        failed_checks=tuple(name for name, ok in checks.items() if not ok),
        interlacing_orbit_sum=sum(compress(orbit_sums, interlacing), Fraction(0)),
        non_interlacing_orbit_sum=sum(compress(orbit_sums, non_interlacing), Fraction(0)),
        interlacing_s=s,
        all_minors=all_minors,
    )


def orbit_audit(x: ExactMatrix, k: int) -> dict:
    """The orbit-audit report of `orbit_sum_identity(x, k)`: every orbit of
    M_{n,k} with members, signs, separations, weights and signed sum, then
    the totals of the orbit-sum argument.  Passes when every orbit property
    holds and the grand sum equals both S and the sum of all k x k minors of
    X."""
    rep = orbit_sum_identity(x, k)
    return {
        "command": "orbit-audit",
        "n": rep.n,
        "k": k,
        "matrix": matrix_to_json_dict(x),
        "orbit_count": len(rep.orbits),
        "orbits": [
            {
                "classification": o.classification,
                "members": [m.to_json_dict() for m in o.members],
                "signs": list(sgs),
                "separations": [[c.separation for c in decompose_clusters(m)] for m in o.members],
                "weights": [exact_str(w) for w in ws],
                "orbit_sum": exact_str(total),
            }
            for o, sgs, ws, total in zip(rep.orbits, rep.signs, rep.weights, rep.orbit_sums)
        ],
        "totals": {
            "matching_sum": exact_str(rep.matching_sum),
            "interlacing_orbit_sum": exact_str(rep.interlacing_orbit_sum),
            "non_interlacing_orbit_sum": exact_str(rep.non_interlacing_orbit_sum),
            "interlacing_S": exact_str(rep.interlacing_s),
            "all_minors_of_X": exact_str(rep.all_minors),
        },
        "passed": rep.all_checks_pass,
    }
