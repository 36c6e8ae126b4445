"""Matchings of the complete bipartite graph K_{n,n} as signed, weighted
bijections, their cluster decomposition, and the cluster-flip group action.

A k-edge matching tau: I -> J contributes sign(tau) * prod x_{i,tau(i)} to the
expansion of the minor |X_IJ|.  Joining edges through auxiliary r -> r links
for r in the intersection of I and J partitions the edges into open and closed
clusters; flipping an open cluster (reversing all its edges) generates an
action of (Z/2)^C(n,2) whose orbit structure is what makes the sum of all
minors collapse onto interlacing pairs: non-interlacing orbits are
sign-balanced and cancel, interlacing orbits contribute 2^p equal terms.

The orbit-sum report runs in Python ints, as the minor table does: X is
scaled once to integers over the lcm d of its denominators, each member's
weight is the int product of its k scaled entries over d**k, and only the
three totals become rationals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, permutations, product
from math import comb, factorial
from operator import mul
from typing import Iterator, Sequence

from .exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    JsonTemplate,
    Rational,
    TemplatedList,
    as_index,
    exact_str,
    matrix_to_json_dict,
    refuse_past_guard,
    scaled_to_integers,
)
from .minor_sums import (
    SymmetryError,
    check_entry_bits,
    check_size_guard,
    check_walk,
    interlaces,
    kept,
    kept_on_repeat,
    level_sums,
    p_of,
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
    "scaled_weight",
    "sign",
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
    (I, J, assignment) order; there are C(n,k)^2 * k! of them.  Refuses
    n > SIZE_GUARD."""
    for edges in _edge_tuples(n, k):
        yield Matching(n, edges)


def matching_count(n: int, k: int) -> int:
    """|M_{n,k}| = C(n,k)^2 * k!, the number of k-edge matchings of K_{n,n}."""
    _check_k(n, k)
    return comb(n, k) ** 2 * factorial(k)


def _check_k(n: int, k: int) -> int:
    """`as_index(k)`, refused unless 0 <= k <= n."""
    k = as_index(k)
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return k


def _edge_tuples(n: int, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The edges of each matching of `enumerate_matchings`, in its order and
    already sorted by left node, from one list of plain k-subsets of 1..n."""
    refuse_past_guard(n)
    _check_k(n, k)
    subsets = list(combinations(range(1, n + 1), k))
    for I in subsets:
        for J in subsets:
            for assignment in permutations(J):
                yield tuple(zip(I, assignment))


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


def scaled_weight(m: Matching, rows: Sequence[Sequence[int]]) -> int:
    """Product of the entries of d*X along the matching's edges, for `rows`
    the integer rows of d*X from `scaled_to_integers`: d**k times the
    matching's weight, the product of the entries of X."""
    w = 1
    for i, j in m.edges:
        w *= rows[i - 1][j - 1]
    return w


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

    @property
    def least_generator(self) -> tuple[int, int]:
        """(i, j), i < j, of the least flip generator f_ij that acts on the
        cluster: its least edge, with the ends in order."""
        return min((min(e), max(e)) for e in self.edges)


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


@dataclass(frozen=True, slots=True)
class Orbit:
    """A flip-group orbit: all 2^p reversals-of-subsets of the open clusters,
    with p and the `sign` of each member, in member order.  The instance has
    slots, not a __dict__: M_{7,5} alone has 21,420 orbits."""

    members: tuple[Matching, ...]
    classification: str  # "interlacing" or "non-interlacing"
    signs: tuple[int, ...]
    p: int
    _flip_images: tuple[int | None, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def flips(self) -> Iterator[tuple[int, Cluster, int | None]]:
        """(r, c, image) for each member r in turn and each of its open
        clusters c in cluster order, `image` the index in `members` of the
        `flip` of member r by c's least generator, or None if that is not a
        member.  The images are taken on the first call and kept on the
        instance, one flat tuple of small ints, so a kept partition keeps
        them.  They stay lazy on purpose: only the lemma suite reads them,
        and they add about three quarters to a cold partition build (5.9
        against 10.4 ms at (5, 3), in-process on a 2-vCPU Xeon), which a
        one-shot `orbit-audit` would otherwise pay for nothing."""
        if self._flip_images is None:
            index = {m.edges: r for r, m in enumerate(self.members)}
            images = tuple(
                index.get(flip(m, *c.least_generator).edges)
                for m in self.members for c in decompose_clusters(m) if c.kind == "open"
            )
            object.__setattr__(self, "_flip_images", images)  # past the frozen __setattr__
        images = iter(self._flip_images)
        for r, m in enumerate(self.members):
            for c in decompose_clusters(m):
                if c.kind == "open":
                    yield r, c, next(images)


def orbit(m: Matching) -> Orbit:
    """Materialize the orbit of m under all cluster flips.

    Open clusters flip independently, so the members are exactly the 2^p
    choices of orientation of m's open clusters, each built once from m's
    single trace.  Classification follows the parity criterion (orbit is
    interlacing iff every cluster separation is even), cross-checked against
    an explicit scan for an interlacing member.  Each member's sign is taken
    once, here, and p by `p_of` of m's labels, independent of the trace.
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
    kind = "interlacing" if all_even else "non-interlacing"
    p = p_of([i for i, _ in m.edges], [j for _, j in m.edges])
    return Orbit(tuple(members), kind, tuple(map(sign, members)), p)


@dataclass(frozen=True)
class OrbitSumReport:
    """Orbit-by-orbit audit of the alternating matching sum for symmetric X.

    `weights` (one per member, beside each orbit's own `signs`) and
    `orbit_sums` (signed sum of the members) run parallel to `orbits`, as
    ints over `scale` = d**k for d the lcm of the denominators of X, as a
    `MinorLevel` holds its minors; `failed_checks` names the orbit
    partition's properties that do not hold.  The three totals are exact
    rationals.
    """

    n: int
    k: int
    orbits: tuple[Orbit, ...]
    scale: int
    weights: tuple[tuple[int, ...], ...]
    orbit_sums: tuple[int, ...]
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


def partition_into_orbits(n: int, k: int) -> tuple[Orbit, ...]:
    """All of M_{n,k} grouped into flip-group orbits, in canonical order.
    Refuses, before any enumeration or lookup, n outside 1..SIZE_GUARD and
    an M_{n,k} of more than MAX_WALK matchings.

    The partition depends on (n, k) alone, so it is `kept` from the second
    request for an (n, k) on, and every later request returns that same
    tuple, its members' clusters already traced, each orbit's signs and p
    with it and its flip images, once read, kept on it.  A one-shot
    `python -m canadaday` run asks for each (n, k) once and keeps none; a process that asks for
    the same (n, k) again, such as a benchmark worker or a test session,
    builds it twice and then never.
    """
    n = check_size_guard(n)
    k = _check_k(n, k)
    check_walk(matching_count(n, k), f"matchings in M_{{{n},{k}}}")
    return kept(("partition", n, k), lambda: _partition(n, k))


def _partition(n: int, k: int) -> tuple[Orbit, ...]:
    seen: set[tuple[tuple[int, int], ...]] = set()
    orbits = []
    for edges in _edge_tuples(n, k):
        if edges in seen:
            continue
        o = orbit(_trusted(n, edges))
        for member in o.members:
            seen.add(member.edges)
        orbits.append(o)
    return tuple(orbits)


def orbit_sum_identity(x: ExactMatrix, k: int) -> OrbitSumReport:
    """Execute the orbit-sum proof on concrete data.

    Takes the flip orbits of M_{n,k} from `partition_into_orbits`, which
    refuses n outside 1..SIZE_GUARD and may hand back a kept partition, and
    each member's sign from its orbit; each weight, X's minor sums and every
    check below are taken on every call.  X is scaled once to integers over
    the lcm d of its denominators, so each weight is the int
    `scaled_weight` over d**k and every sum below is a sum of ints; only the
    three totals become rationals.  Checks that the orbits partition
    M_{n,k} (distinct members, C(n,k)^2 * k! in total), that each has 2^p
    members (its own `p`) and constant weight, that interlacing orbits have
    one sign and that non-interlacing orbits are sign-balanced.  Every
    orbit is summed member by member, sign times weight.  The grand sum of
    the orbit sums must equal S and the sum of all k x k minors of X, both
    1 at k=0.
    """
    if not x.is_square():
        raise DimensionError(f"need a square matrix, got {x.rows}x{x.cols}")
    if not x.is_symmetric():
        raise SymmetryError("orbit sum identity needs a symmetric matrix")
    n, k = x.rows, as_index(k)
    orbits = partition_into_orbits(n, k)
    if k == 0:
        s = all_minors = Fraction(1)  # the single empty pair contributes the empty minor
    else:
        sums = level_sums(x, k)
        s, all_minors = sums.interlacing, sums.all

    d, rows = scaled_to_integers(x)
    scale = d**k
    weights = tuple(tuple(scaled_weight(m, rows) for m in o.members) for o in orbits)
    signs = tuple(o.signs for o in orbits)
    orbit_sums = tuple(sum(map(mul, sgs, ws)) for sgs, ws in zip(signs, weights))
    interlacing = tuple(o.classification == "interlacing" for o in orbits)
    non_interlacing = tuple(not il for il in interlacing)
    checks = {
        "orbits_partition_matchings": len({m.edges for o in orbits for m in o.members})
        == sum(len(o.members) for o in orbits)
        == matching_count(n, k),
        "orbit_sizes_match_p": all(len(o.members) == 2**o.p for o in orbits),
        "weight_constant_on_orbits": all(ws.count(ws[0]) == len(ws) for ws in weights),
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
        orbits=orbits,
        scale=scale,
        weights=weights,
        orbit_sums=orbit_sums,
        failed_checks=tuple(name for name, ok in checks.items() if not ok),
        interlacing_orbit_sum=Fraction(sum(compress(orbit_sums, interlacing)), scale),
        non_interlacing_orbit_sum=Fraction(sum(compress(orbit_sums, non_interlacing)), scale),
        interlacing_s=s,
        all_minors=all_minors,
    )


def orbit_audit(x: ExactMatrix, k: int) -> dict:
    """The orbit-audit report of `orbit_sum_identity(x, k)`: every orbit of
    M_{n,k} with members, signs, separations, weights and signed sum, then
    the totals of the orbit-sum argument.  Passes when every orbit property
    holds and the grand sum equals both S and the sum of all k x k minors of
    X.  Refuses, before any work, an entry of X whose numerator or
    denominator has more than MAX_ENTRY_BITS bits.

    Each orbit entry is built afresh on every call.  Its classification,
    members, signs and separations depend on (n, k) alone, so from the
    second request for an (n, k) on, `orbits` is a `TemplatedList` whose
    `JsonTemplate`, kept per (n, k), holds the text of the entries less
    their weights and orbit sums.  The renderer checks that every entry
    still holds the template's X-free values and writes the weights and
    sums into that text; an edited entry is rendered as it now is.  A first
    request builds no template.  Each distinct scaled weight or orbit sum
    is rendered once per call; a member's edges and an orbit's signs go
    into the report as the tuples they are, which the JSON renderer writes
    as lists."""
    for v in x.entries:
        check_entry_bits(v.numerator, "a matrix entry's numerator")
        check_entry_bits(v.denominator, "a matrix entry's denominator")
    rep = orbit_sum_identity(x, k)
    scale = rep.scale
    text = {
        v: exact_str(Fraction(v, scale))
        for v in {w for ws in rep.weights for w in ws}.union(rep.orbit_sums)
    }
    orbits = [
        {
            "classification": o.classification,
            "members": [{"n": m.n, "edges": m.edges} for m in o.members],
            "signs": o.signs,
            "separations": [[c.separation for c in decompose_clusters(m)] for m in o.members],
            "weights": [text[w] for w in ws],
            "orbit_sum": text[total],
        }
        for o, ws, total in zip(rep.orbits, rep.weights, rep.orbit_sums)
    ]
    # Written at the depth of "orbits" in the report.
    template = kept_on_repeat(
        ("audit_text", rep.n, rep.k), lambda: JsonTemplate(orbits, ("weights", "orbit_sum"), "  ")
    )
    return {
        "command": "orbit-audit",
        "n": rep.n,
        "k": rep.k,
        "matrix": matrix_to_json_dict(x),
        "orbit_count": len(rep.orbits),
        "orbits": orbits if template is None else TemplatedList(orbits, template),
        "totals": {
            "matching_sum": exact_str(rep.matching_sum),
            "interlacing_orbit_sum": exact_str(rep.interlacing_orbit_sum),
            "non_interlacing_orbit_sum": exact_str(rep.non_interlacing_orbit_sum),
            "interlacing_S": exact_str(rep.interlacing_s),
            "all_minors_of_X": exact_str(rep.all_minors),
        },
        "passed": rep.all_checks_pass,
    }
