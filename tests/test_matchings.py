import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canadaday.exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    k_subsets,
    load_matrix,
    random_symmetric,
    t_matrix,
)
from canadaday import lemmas, matchings, minor_sums
from canadaday.cli import main
from canadaday.matchings import (
    Cluster,
    Matching,
    Orbit,
    decompose_clusters,
    enumerate_matchings,
    flip,
    matching_count,
    orbit,
    orbit_audit,
    orbit_sum_identity,
    partition_into_orbits,
    scaled_weight,
    sign,
)
from canadaday.minor_sums import (
    SymmetryError,
    interlacing_sum,
    is_interlacing,
    level_sums,
    p_of,
    p_value,
    sum_all_minors,
)
from oracles import (
    canonical_involution,
    entry,
    minor,
    minor_via_matchings,
    misreported_separations,
    permutation_sign,
    separations,
    weight,
)

# the n=8, k=7 worked matching used throughout the cluster examples
TAU8 = Matching(8, ((1, 6), (2, 8), (3, 4), (4, 2), (5, 5), (6, 1), (8, 7)))


@st.composite
def _matchings(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n))
    rows = draw(st.permutations(range(1, n + 1)))[:k]
    cols = draw(st.permutations(range(1, n + 1)))[:k]
    return Matching(n, tuple(zip(rows, cols)))


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(3, ((1, 2), (1, 3)))  # shared left node
    with pytest.raises(ValueError):
        Matching(3, ((1, 2), (3, 2)))  # shared right node
    with pytest.raises(ValueError):
        Matching(3, ((0, 2),))
    with pytest.raises(ValueError):
        Matching(3, ((1, 4),))


@pytest.mark.parametrize(
    "n,edges,bad",
    [(3, ((1.5, 2),), "1.5"), (3, ((1, "2"),), "'2'"), (3, ((True, 2),), "True"),
     (3.5, ((1, 2),), "3.5"), (3, ((1, np.float64(2.0)),), "2.0")],
)
def test_matching_refuses_non_integer_nodes(n, edges, bad):
    # int() would make the edge (1.5, 2) into (1, 2): a silent wrong matching
    with pytest.raises(ValueError, match=re.escape(bad)):
        Matching(n, edges)


def test_matching_takes_numpy_integers_as_ints():
    m = Matching(np.int64(3), ((np.int64(1), 2), (3, np.int32(1))))
    assert m == Matching(3, ((1, 2), (3, 1)))
    assert {type(v) for v in (m.n, *(v for e in m.edges for v in e))} == {int}


def test_matching_edges_canonically_sorted():
    m = Matching(4, ((4, 1), (2, 3)))
    assert m.edges == ((2, 3), (4, 1))
    assert m.row_set().elems == (2, 4)
    assert m.col_set().elems == (1, 3)


@pytest.mark.parametrize(
    "n,k",
    [(2, 1), (3, 3), (5, 3), (4, 0), (4, 2)],
)
def test_enumeration_count(n, k):
    ms = list(enumerate_matchings(n, k))
    assert len(ms) == comb(n, k) ** 2 * factorial(k)
    assert len(set(ms)) == len(ms)


def test_enumeration_refuses_n_past_the_size_guard_before_any_work(monkeypatch):
    assert next(enumerate_matchings(12, 6)) == Matching(12, tuple((i, i) for i in range(1, 7)))
    assert list(enumerate_matchings(0, 0)) == [Matching(0, ())]  # M_{0,0}: the empty matching
    monkeypatch.setattr(matchings, "combinations", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match=r"^n=13 exceeds the guard 12$"):
        next(enumerate_matchings(13, 6))


def test_enumeration_order_is_deterministic():
    assert list(enumerate_matchings(3, 2)) == list(enumerate_matchings(3, 2))


def test_sign_worked_example_two_crossings():
    m = Matching(5, ((2, 3), (3, 5), (4, 1)))
    assert sign(m) == 1


def test_sign_single_edge_and_identity():
    assert sign(Matching(4, ((2, 3),))) == 1
    assert sign(Matching(4, ((1, 1), (2, 2), (4, 4)))) == 1


def test_sign_matches_permutation_parity_exhaustively():
    for k in range(0, 4):
        for m in enumerate_matchings(4, k):
            assert sign(m) == permutation_sign(m)


def test_weight_worked_example_product():
    x = ExactMatrix.from_rows([[100 * i + j for j in range(1, 9)] for i in range(1, 9)])
    expected = Fraction(1)
    for i, j in ((1, 6), (2, 8), (3, 4), (4, 2), (5, 5), (6, 1), (8, 7)):
        expected *= 100 * i + j
    assert weight(TAU8, x) == expected


def test_weight_refuses_a_matching_wider_than_the_matrix():
    with pytest.raises(DimensionError):
        weight(Matching(3, ((3, 1),)), random_symmetric(2, 1, 9))


def test_weight_empty_matching_is_one():
    assert weight(Matching(3, ()), random_symmetric(3, 1, 9)) == 1


def test_weight_single_edge_is_entry():
    x = random_symmetric(3, 2, 9)
    assert weight(Matching(3, ((2, 3),)), x) == entry(x, 2, 3)


@settings(max_examples=100, deadline=None)
@given(
    m=_matchings(max_n=6),
    entries=st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), min_size=36, max_size=36
    ),
)
def test_weight_equals_running_fraction_product(m, entries):
    # entries p/q with |p|, q <= 9: negative, zero and non-integer values
    x = ExactMatrix.from_rows([entries[6 * r : 6 * r + 6] for r in range(6)])
    expected = Fraction(1)
    for i, j in m.edges:
        expected *= entry(x, i, j)
    w = weight(m, x)
    assert isinstance(w, Fraction) and w == expected
    assert w.denominator > 0 and gcd(w.numerator, w.denominator) == 1


def test_weight_zero_and_negative_entries():
    x = ExactMatrix.from_rows([[Fraction(-2, 3), 0], [Fraction(3, 4), Fraction(-5, 6)]])
    assert weight(Matching(2, ((1, 1), (2, 2))), x) == Fraction(5, 9)
    zero = weight(Matching(2, ((1, 2), (2, 1))), x)
    assert (zero.numerator, zero.denominator) == (0, 1)


def test_minor_via_matchings_k1():
    x = random_symmetric(3, 3, 9)
    assert minor_via_matchings(x, IndexSet(3, (2,)), IndexSet(3, (3,))) == entry(x, 2, 3)


def test_minor_via_matchings_t3():
    assert minor_via_matchings(t_matrix(3), IndexSet(3, (1, 2)), IndexSet(3, (1, 2))) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minor_via_matchings_agrees_with_determinant(n):
    x = random_symmetric(n, 40 + n, 9)
    for k in range(1, n + 1):
        for I in k_subsets(n, k):
            for J in k_subsets(n, k):
                assert minor_via_matchings(x, I, J) == minor(x, I, J)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    ),
    I=st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    J=st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
)
def test_minor_via_matchings_random(rows, I, J):
    k = min(len(I), len(J))
    I_set = IndexSet(4, tuple(sorted(I))[:k])
    J_set = IndexSet(4, tuple(sorted(J))[:k])
    x = ExactMatrix.from_rows(rows)
    assert minor_via_matchings(x, I_set, J_set) == minor(x, I_set, J_set)


def _union_find_clusters(m: Matching) -> tuple[Cluster, ...]:
    """Oracle for the cluster tracer: connected components of the matching
    plus the auxiliary r -> r links, found by union-find over left/right
    nodes; a component is open when it touches a node of degree one."""
    I = tuple(i for i, _ in m.edges)
    J = tuple(sorted(j for _, j in m.edges))
    common = set(I) & set(J)
    parent = {("L", i): ("L", i) for i in I} | {("R", j): ("R", j) for j in J}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i, j in m.edges:
        union(("L", i), ("R", j))
    for r in common:
        union(("L", r), ("R", r))

    groups = {}
    for e in m.edges:
        groups.setdefault(find(("L", e[0])), []).append(e)

    clusters = []
    for edges in groups.values():
        open_left = sorted({i for i, _ in edges} - common)
        open_right = sorted({j for _, j in edges} - common)
        if open_left or open_right:
            assert len(open_left) == len(open_right) == 1
            a, b = open_left[0], open_right[0]
            lo, hi = min(a, b), max(a, b)
            separation = sum(1 for v in I + J if lo < v < hi)
            clusters.append(Cluster(tuple(edges), "open", (a, b), separation))
        else:
            clusters.append(Cluster(tuple(edges), "closed", None, 0))
    clusters.sort(key=lambda c: c.edges)
    return tuple(clusters)


def test_traced_clusters_equal_union_find_exhaustively():
    for n in range(0, 6):
        for k in range(0, n + 1):
            for m in enumerate_matchings(n, k):
                assert decompose_clusters(m) == _union_find_clusters(m)


@settings(max_examples=300, deadline=None)
@given(m=_matchings())
def test_traced_clusters_equal_union_find_random(m):
    assert decompose_clusters(m) == _union_find_clusters(m)


def test_flipped_orbit_members_carry_their_traced_clusters():
    # Members reached by flips are built unvalidated, with derived clusters:
    # each must equal a validated construction and a fresh trace of it, and
    # the union-find oracle checks the carried clusters a second time.
    for n in range(1, 6):
        for k in range(0, n + 1):
            for o in partition_into_orbits(n, k):
                for member in o.members:
                    fresh = Matching(n, member.edges)
                    assert member == fresh and type(member.edges) is tuple
                    carried = decompose_clusters(member)
                    assert carried == matchings._trace_clusters(fresh)
                    assert carried == _union_find_clusters(fresh)


@pytest.fixture
def cold_partitions(empty_store):
    """No partition kept: the next request for each (n, k) builds it, so a
    test can count what the build does."""


def test_partition_seeds_equal_validated_matchings(cold_partitions, monkeypatch):
    # Each orbit grows from an unvalidated seed built from _edge_tuples;
    # before its trace it must hold what Matching(n, edges) holds, and its
    # clusters must equal a fresh trace of that validated construction.
    seeds = []
    real = matchings.orbit

    def recording(m):
        seeds.append((m, dict(vars(m))))
        return real(m)

    monkeypatch.setattr(matchings, "orbit", recording)
    for n in range(1, 6):
        for k in range(0, n + 1):
            seeds.clear()
            orbits = partition_into_orbits(n, k)
            assert len(seeds) == len(orbits)
            for (seed, untraced), o in zip(seeds, orbits):
                fresh = Matching(n, seed.edges)
                assert type(seed) is Matching and untraced == vars(fresh)
                assert seed == fresh and hash(seed) == hash(fresh)
                assert decompose_clusters(seed) == matchings._trace_clusters(fresh)
                assert any(member is seed for member in o.members)


def test_flip_picks_the_cluster_by_identity(monkeypatch):
    # flip reverses one of m's own cluster objects, picked by identity, so
    # no two clusters need comparing; the images stay what they were.
    cases = [
        (m, i, j)
        for n in range(2, 5)
        for k in range(1, n + 1)
        for m in enumerate_matchings(n, k)
        for i, j in combinations(range(1, n + 1), 2)
    ]
    images = [flip(m, i, j).edges for m, i, j in cases]

    def no_eq(a, b):
        raise AssertionError("clusters compared")

    monkeypatch.setattr(Cluster, "__eq__", no_eq)
    assert [flip(Matching(m.n, m.edges), i, j).edges for m, i, j in cases] == images


def test_partition_traces_one_member_per_orbit(cold_partitions, monkeypatch):
    traced = _count_traces(monkeypatch)
    orbits = partition_into_orbits(5, 3)
    assert max(len(o.members) for o in orbits) == 4  # members from composed flips
    for o in orbits:
        for member in o.members:
            decompose_clusters(member)
    assert len(traced) == len(orbits)


def test_partition_builds_members_without_flips(cold_partitions, monkeypatch):
    flipped = []
    real = matchings.flip
    monkeypatch.setattr(
        matchings, "flip", lambda m, i, j: flipped.append(m) or real(m, i, j)
    )
    orbits = partition_into_orbits(5, 3)
    assert sum(len(o.members) for o in orbits) == matching_count(5, 3)
    assert flipped == []


def test_flip_images_carry_their_traced_clusters():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for m in enumerate_matchings(n, k):
                for i, j in combinations(range(1, n + 1), 2):
                    image = flip(m, i, j)
                    fresh = Matching(n, image.edges)
                    assert decompose_clusters(image) == matchings._trace_clusters(fresh)


def _count_traces(monkeypatch) -> list[Matching]:
    traced = []
    real = matchings._trace_clusters

    def counting(m):
        traced.append(m)
        return real(m)

    monkeypatch.setattr(matchings, "_trace_clusters", counting)
    return traced


def test_clusters_traced_once_per_instance(monkeypatch):
    traced = _count_traces(monkeypatch)
    m = Matching(8, TAU8.edges)
    first = decompose_clusters(m)
    assert decompose_clusters(m) == first
    assert len(traced) == 1
    twin = Matching(8, TAU8.edges)
    assert twin == m and decompose_clusters(twin) == first
    assert len(traced) == 2


def test_sign_flip_law_suite_traces_each_instance_at_most_once(empty_store, monkeypatch):
    traced = _count_traces(monkeypatch)
    assert list(lemmas._failures(3, 42, 9, False)) == []
    # the list keeps every traced instance alive, so ids are not reused
    assert traced and len({id(m) for m in traced}) == len(traced)


def test_cluster_decomposition_worked_example():
    dec = decompose_clusters(TAU8)
    by_edges = {c.edges: c for c in dec}
    c1 = by_edges[((2, 8), (3, 4), (4, 2), (8, 7))]
    c2 = by_edges[((1, 6), (6, 1))]
    c3 = by_edges[((5, 5),)]
    assert (c1.kind, c1.endpoints, c1.separation) == ("open", (3, 7), 6)
    assert (c2.kind, c2.separation) == ("closed", 0)
    assert (c3.kind, c3.separation) == ("closed", 0)
    assert len(dec) == 3


def test_identity_matching_all_closed_singletons():
    m = Matching(4, ((1, 1), (3, 3)))
    dec = decompose_clusters(m)
    assert sorted(c.edges for c in dec) == [((1, 1),), ((3, 3),)]
    assert all(c.kind == "closed" for c in dec)


def test_single_offdiagonal_edge_is_open():
    dec = decompose_clusters(Matching(4, ((2, 4),)))
    (c,) = dec
    assert (c.kind, c.endpoints) == ("open", (2, 4))


def test_open_cluster_count_equals_p():
    for n in range(1, 6):
        for k in range(0, n + 1):
            for m in enumerate_matchings(n, k):
                dec = decompose_clusters(m)
                opens = [c for c in dec if c.kind == "open"]
                assert len(opens) == p_value(m.row_set(), m.col_set())


def test_endpoint_separation_worked_example():
    dec = decompose_clusters(TAU8)
    c1 = next(c for c in dec if c.kind == "open")
    assert c1.separation == 6
    closed = next(c for c in dec if c.kind == "closed")
    assert closed.separation == 0


def test_separation_oracle_worked_example():
    # TAU8's clusters by least edge: the cycle 1 -> 6 -> 1; the path
    # 3 -> 4 -> 2 -> 8 -> 7, from 3 in I - J to 7 in J - I, with the I
    # labels 4, 5, 6 and the J labels 4, 5, 6 between; the fixed point 5.
    assert separations(TAU8.edges) == [0, 6, 0]
    assert separations(TAU8.edges) == [c.separation for c in decompose_clusters(TAU8)]


def test_endpoint_separation_small_edge():
    (c,) = decompose_clusters(Matching(3, ((1, 2),)))
    assert c.separation == 0


def test_flip_worked_example():
    flipped = flip(TAU8, 2, 8)
    assert flipped.edges == tuple(
        sorted([(1, 6), (8, 2), (4, 3), (2, 4), (5, 5), (6, 1), (7, 8)])
    )


def test_flip_on_closed_cluster_is_noop():
    # (1, 6) lies in the closed cluster {(1,6), (6,1)}
    assert flip(TAU8, 1, 6) == TAU8


def test_flip_requires_ordered_generator():
    with pytest.raises(ValueError):
        flip(TAU8, 8, 2)


def test_flip_is_involution_exhaustive_n3():
    for k in range(0, 4):
        for m in enumerate_matchings(3, k):
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    assert flip(flip(m, i, j), i, j) == m


def test_flips_commute_exhaustive_n3():
    gens = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]
    for k in range(0, 4):
        for m in enumerate_matchings(3, k):
            for g1 in gens:
                for g2 in gens:
                    assert flip(flip(m, *g1), *g2) == flip(flip(m, *g2), *g1)


def test_orbit_worked_example_size_two():
    o = orbit(TAU8)
    assert len(o.members) == 2
    assert o.classification == "interlacing"
    # tau itself is the orbit's one interlacing member
    assert [t for t in o.members if is_interlacing(t.row_set(), t.col_set())] == [TAU8]


def test_orbit_classification_cross_check_fires(monkeypatch):
    # all separations of TAU8 are even, so a scan that finds no interlacing
    # member contradicts the parity criterion
    monkeypatch.setattr(matchings, "interlaces", lambda I, J: False)
    with pytest.raises(RuntimeError, match="orbit classification inconsistency"):
        orbit(TAU8)


def test_orbit_identity_matching_is_singleton():
    m = Matching(3, ((1, 1), (2, 2)))
    o = orbit(m)
    assert o.members == (m,)
    assert o.classification == "interlacing"


def test_orbit_single_edge_pair():
    o = orbit(Matching(3, ((1, 3),)))
    assert set(o.members) == {Matching(3, ((1, 3),)), Matching(3, ((3, 1),))}


def test_orbit_sizes_are_powers_of_two():
    for n in range(1, 5):
        for k in range(0, n + 1):
            for o in partition_into_orbits(n, k):
                rep = o.members[0]
                assert len(o.members) == 2 ** p_value(rep.row_set(), rep.col_set())


def test_matching_count():
    assert [matching_count(4, k) for k in range(5)] == [1, 16, 72, 96, 24]
    assert matching_count(12, 6) == 614_718_720
    with pytest.raises(ValueError, match="k must satisfy 0 <= k <= n, got k=-1, n=3"):
        matching_count(3, -1)


def test_partition_into_orbits_size_guard_checked_first(monkeypatch):
    def refuse(n, k):
        raise AssertionError("enumerated matchings past the size guard")

    monkeypatch.setattr(matchings, "enumerate_matchings", refuse)
    monkeypatch.setattr(matchings, "_edge_tuples", refuse)
    monkeypatch.setattr(minor_sums, "_STORE", _Unread())
    with pytest.raises(ValueError, match="exceeds the guard 12"):
        partition_into_orbits(13, 1)
    with pytest.raises(ValueError, match="over the cap MAX_WALK"):
        partition_into_orbits(12, 6)


class _Unread:
    """A store that fails any lookup or update."""

    def _touched(self, *args):
        raise AssertionError("store looked up")

    get = __contains__ = __getitem__ = __setitem__ = _touched


def _kept_keys() -> set:
    return {key for key, v in minor_sums._STORE.items() if v is not minor_sums._ASKED_ONCE}


def test_partition_kept_from_the_second_request(cold_partitions):
    first = partition_into_orbits(4, 2)
    assert type(first) is tuple and _kept_keys() == set()
    second = partition_into_orbits(4, 2)
    assert second == first and second is not first
    assert _kept_keys() == {("partition", 4, 2)}
    third = partition_into_orbits(4, 2)
    assert third is second
    # another size starts its own count
    assert partition_into_orbits(4, 3) is not partition_into_orbits(4, 3)
    assert _kept_keys() == {("partition", 4, 2), ("partition", 4, 3)}


def test_kept_partition_carries_signs_and_flip_images(cold_partitions, monkeypatch):
    partition_into_orbits(4, 2)
    kept = partition_into_orbits(4, 2)
    signs = [o.signs for o in kept]
    images = [list(o.flips()) for o in kept]
    for name in ("sign", "flip"):
        monkeypatch.setattr(matchings, name, lambda *args: pytest.fail("taken again"))
    again = partition_into_orbits(4, 2)
    assert [o.signs for o in again] == signs and [list(o.flips()) for o in again] == images
    # the flip images are not a field: an orbit equals one built without them
    assert kept[0] == Orbit(kept[0].members, kept[0].classification, kept[0].signs, kept[0].p)


def test_orbit_audit_takes_no_flip(cold_partitions, monkeypatch):
    # Only the lemma suite reads the flip images: not a cold request, the
    # request that keeps the partition, nor a request that finds it kept.
    monkeypatch.setattr(matchings, "flip", lambda *args: pytest.fail("took a flip"))
    x = random_symmetric(5, 7, 9)
    for _ in range(3):
        assert orbit_audit(x, 3)["passed"]
    assert _kept_keys() == {("partition", 5, 3), ("audit_text", 5, 3)}


def test_orbit_audit_separations_match_their_definition(cold_partitions, capsys):
    # From the second request on, the separations reach the report as kept
    # text: each must still be its definition, in the JSON that a cold, a
    # keeping and a kept request write.
    for _ in range(3):
        assert main(["orbit-audit", "--n", "5", "--k", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sum(len(o["members"]) for o in doc["orbits"]) == 600
        assert misreported_separations(doc) == []
    assert ("audit_text", 5, 3) in _kept_keys()


def test_kept_partition_carries_traced_clusters(cold_partitions, monkeypatch):
    partition_into_orbits(3, 2)
    kept = partition_into_orbits(3, 2)
    traced = _count_traces(monkeypatch)
    assert partition_into_orbits(3, 2) is kept
    assert all(decompose_clusters(member) for o in kept for member in o.members)
    assert traced == []


def test_kept_partition_refuses_a_bool_size(cold_partitions):
    partition_into_orbits(1, 1)
    partition_into_orbits(1, 1)
    with pytest.raises(ValueError, match="an index must be an integer, got True"):
        partition_into_orbits(True, 1)


@pytest.mark.parametrize("k", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "route",
    [
        level_sums,
        lambda x, k: partition_into_orbits(x.rows, k),
        lambda x, k: matching_count(x.rows, k),
        orbit_sum_identity,
        orbit_audit,
    ],
    ids=["level_sums", "partition_into_orbits", "matching_count", "orbit_sum_identity",
         "orbit_audit"],
)
def test_orbit_routes_refuse_a_k_that_is_not_an_integer(empty_store, route, k):
    # the store holds (3, 1) and (3, 2), which True and 2.0 would equal as keys
    for kk in (1, 2, 1, 2):
        partition_into_orbits(3, kk)
    with pytest.raises(ValueError, match=re.escape(f"an index must be an integer, got {k!r}")):
        route(random_symmetric(3, 1, 9), k)


def test_orbit_routes_take_the_int_of_a_numpy_k():
    x = random_symmetric(3, 1, 9)
    assert type(orbit_sum_identity(x, np.int64(2)).k) is int
    doc = orbit_audit(x, np.int64(2))
    assert type(doc["k"]) is int
    assert doc == orbit_audit(x, 2)


def _rational_symmetric(n: int, seed: int) -> ExactMatrix:
    """Seeded symmetric n x n matrix of p/q entries, |p| <= 9, 1 <= q <= 9,
    with at least one entry that is not an integer."""
    rng = random.Random(seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    rows[0][0] = Fraction(1, 2)
    return ExactMatrix.from_rows(rows)


GOLDEN_X = Path(__file__).parent / "golden" / "matrix_3x3_rational.json"
RATIONAL_X = [
    pytest.param(load_matrix(GOLDEN_X), id="golden"),
    pytest.param(_rational_symmetric(4, 61), id="n4-seed61"),
    pytest.param(_rational_symmetric(5, 62), id="n5-seed62"),
]


@pytest.mark.parametrize("x", RATIONAL_X)
def test_orbit_sum_identity_scaled_route_on_rational_x(x):
    # d > 1, so a wrong scale such as d**(k - 1) would change every weight
    d = lcm(*(v.denominator for v in x.entries))
    assert d > 1
    for k in range(x.rows + 1):
        rep = orbit_sum_identity(x, k)
        assert rep.all_checks_pass
        assert rep.scale == d**k
        for o, ws, total in zip(rep.orbits, rep.weights, rep.orbit_sums):
            assert all(type(w) is int for w in ws)
            assert [Fraction(w, rep.scale) for w in ws] == [weight(m, x) for m in o.members]
            assert total == sum(sg * w for sg, w in zip(o.signs, ws))
        if k == 0:
            assert rep.matching_sum == rep.interlacing_s == rep.all_minors == 1
        else:
            sums = level_sums(x, k)
            assert rep.matching_sum == sums.interlacing == sums.all
            assert (rep.interlacing_s, rep.all_minors) == (sums.interlacing, sums.all)


def test_classify_orbit_examples():
    assert orbit(TAU8).classification == "interlacing"
    assert orbit(Matching(3, ((1, 3),))).classification == "interlacing"
    assert orbit(Matching(2, ((1, 2), (2, 1)))).classification == "interlacing"
    assert orbit(Matching(4, ((3, 1), (2, 4)))).classification == "non-interlacing"


def test_classify_orbit_agrees_both_routes_exhaustively():
    # member scan against the even-separation criterion on the first member
    for k in range(0, 4):
        for m in enumerate_matchings(3, k):
            o = orbit(m)
            scan = any(is_interlacing(t.row_set(), t.col_set()) for t in o.members)
            even = all(c.separation % 2 == 0 for c in decompose_clusters(o.members[0]))
            assert scan == even
            assert o.classification == ("interlacing" if scan else "non-interlacing")


def _reversed_cluster(m: Matching, image: Matching) -> Cluster:
    """The one open cluster of m that the image holds reversed, found from the
    edges the image lost and gained."""
    lost = set(m.edges) - set(image.edges)
    gained = set(image.edges) - set(m.edges)
    (c,) = [c for c in decompose_clusters(m) if c.kind == "open" and set(c.edges) == lost]
    assert gained == {(b, a) for a, b in c.edges}
    return c


def test_sign_flip_law_worked_example():
    image = flip(TAU8, 2, 8)
    assert _reversed_cluster(TAU8, image).separation == 6
    assert sign(image) == sign(TAU8)


def test_sign_flip_law_separation_zero_preserves_sign():
    m = Matching(2, ((1, 2),))
    image = flip(m, 1, 2)
    assert _reversed_cluster(m, image).separation == 0
    assert sign(image) == sign(m) == 1


def test_sign_flip_law_two_edge_case():
    # one open cluster 3 -> 1 -> 2, reversed by both f_12 and f_13
    m = Matching(3, ((1, 2), (3, 1)))
    moving = [(i, j) for i, j in combinations(range(1, 4), 2) if flip(m, i, j) is not m]
    assert moving == [(1, 2), (1, 3)]
    for i, j in moving:
        image = flip(m, i, j)
        assert sign(image) == (-1) ** _reversed_cluster(m, image).separation * sign(m)


def test_sign_flip_law_vacuous_flag():
    assert flip(TAU8, 1, 6) is TAU8  # closed cluster: no flip happens


def test_sign_flip_law_per_generator_exhaustively():
    # every generator f_ij that moves a matching of K_{4,4} multiplies its
    # sign by (-1)^separation of the cluster it reverses
    moved = 0
    for k in range(0, 5):
        for m in enumerate_matchings(4, k):
            for i, j in combinations(range(1, 5), 2):
                image = flip(m, i, j)
                if image == m:
                    assert image is m
                    continue
                assert sign(image) == (-1) ** _reversed_cluster(m, image).separation * sign(m)
                moved += 1
    assert moved == 252


def test_orbit_sum_identity_n2_hand_value():
    # X = [[a, b], [b, d]] with (a, b, d) = (2, 3, 5): k=2 sum is ad - b^2 = 1
    x = ExactMatrix.from_rows([[2, 3], [3, 5]])
    rep = orbit_sum_identity(x, 2)
    assert rep.matching_sum == 1
    assert rep.all_checks_pass


@pytest.mark.parametrize("n,k,seed", [(3, 2, 51), (4, 2, 52)])
def test_orbit_sum_identity_random(n, k, seed):
    rep = orbit_sum_identity(random_symmetric(n, seed, 9), k)
    assert rep.all_checks_pass
    assert rep.matching_sum == rep.interlacing_s


def test_orbit_sum_identity_report_matches_direct_enumeration():
    x = random_symmetric(4, 54, 9)
    rep = orbit_sum_identity(x, 2)
    assert rep.failed_checks == ()
    direct = sum((sign(m) * weight(m, x) for m in enumerate_matchings(4, 2)), Fraction(0))
    assert rep.matching_sum == direct == sum(rep.orbit_sums)
    assert rep.interlacing_orbit_sum == direct
    assert rep.non_interlacing_orbit_sum == 0
    assert rep.interlacing_s == interlacing_sum(x, 2)
    assert rep.all_minors == sum_all_minors(x, 2)
    assert rep.orbits == tuple(partition_into_orbits(4, 2))
    for o, ws, total in zip(rep.orbits, rep.weights, rep.orbit_sums):
        assert tuple(Fraction(w, rep.scale) for w in ws) == tuple(weight(m, x) for m in o.members)
        assert total == sum(sign(m) * w for m, w in zip(o.members, ws))


def test_orbit_sum_identity_k0():
    rep = orbit_sum_identity(random_symmetric(3, 55, 9), 0)
    assert rep.matching_sum == rep.interlacing_s == rep.all_minors == 1
    assert rep.all_checks_pass


def test_orbit_sum_identity_detects_a_missing_orbit(monkeypatch):
    real = matchings.partition_into_orbits
    monkeypatch.setattr(matchings, "partition_into_orbits", lambda n, k: real(n, k)[1:])
    rep = orbit_sum_identity(random_symmetric(3, 56, 9), 2)
    assert rep.failed_checks == ("orbits_partition_matchings",)
    assert not rep.all_checks_pass


def test_orbit_sum_identity_detects_a_repeated_orbit(monkeypatch):
    # swap one orbit for a copy of another of the same size: the member
    # count still matches C(n,k)^2 k!, but the members are not distinct
    real = matchings.partition_into_orbits

    def repeated(n, k):
        orbits = real(n, k)
        twin = next(o for o in orbits[1:] if len(o.members) == len(orbits[0].members))
        return [orbits[0] if o is twin else o for o in orbits]

    monkeypatch.setattr(matchings, "partition_into_orbits", repeated)
    rep = orbit_sum_identity(random_symmetric(3, 56, 9), 2)
    assert "orbits_partition_matchings" in rep.failed_checks


def test_orbit_sum_identity_checks_orbit_sizes(empty_store, monkeypatch):
    monkeypatch.setattr(matchings, "p_of", lambda I, J: p_of(I, J) + 1)
    rep = orbit_sum_identity(random_symmetric(3, 57, 9), 2)
    assert rep.failed_checks == ("orbit_sizes_match_p",)


def test_orbit_sum_identity_builds_no_index_set(empty_store, monkeypatch):
    # The walk and the orbit checks run on plain label tuples: on the first
    # request (nothing kept), the second (kept after) and the third (kept).
    def refuse(self):
        raise AssertionError("built a validated IndexSet")

    monkeypatch.setattr(IndexSet, "__post_init__", refuse)
    x = random_symmetric(4, 3, 9)
    for k in [*range(5)] * 3:
        assert orbit_sum_identity(x, k).all_checks_pass


def test_orbit_sum_identity_checks_interlacing_orbits_have_one_sign(empty_store, monkeypatch):
    # One member of an interlacing orbit gets its sign negated: its weight,
    # size and the partition still hold, so only the one-sign check fails.
    members = (Matching(3, ((1, 1), (2, 3))), Matching(3, ((1, 1), (3, 2))))
    interlacing = Orbit(members, "interlacing", (1, 1), 1)
    assert interlacing in partition_into_orbits(3, 2)
    flipped = members[1]
    monkeypatch.setattr(matchings, "sign", lambda m: -sign(m) if m == flipped else sign(m))
    rep = orbit_sum_identity(random_symmetric(3, 59, 9), 2)
    assert rep.failed_checks == ("interlacing_orbits_uniform_sign",)
    assert rep.orbits[[o.members for o in rep.orbits].index(members)].signs == (1, -1)


def test_orbit_sum_identity_sums_unequal_weights_member_by_member(monkeypatch):
    # One member of a sign-balanced orbit gets weight + 1.  The shortcut
    # weight * sum(signs) would then give 0; the member sum is that
    # member's sign.
    x = random_symmetric(4, 58, 9)
    target = next(o for o in partition_into_orbits(4, 2) if o.classification == "non-interlacing")
    odd = target.members[0]
    monkeypatch.setattr(
        matchings, "scaled_weight", lambda m, rows: scaled_weight(m, rows) + (m.edges == odd.edges)
    )
    rep = orbit_sum_identity(x, 2)
    assert rep.scale == 1  # X has integer entries: the scaled weight is the weight
    assert "weight_constant_on_orbits" in rep.failed_checks
    at = rep.orbits.index(target)
    sgs, ws = rep.orbits[at].signs, rep.weights[at]
    assert ws == tuple(weight(m, x) + (m is odd) for m in target.members)
    assert rep.orbit_sums[at] == sum(sg * w for sg, w in zip(sgs, ws)) == sgs[0]


def test_orbit_sum_identity_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        orbit_sum_identity(ExactMatrix.from_rows([[1, 2], [3, 4]]), 1)
    with pytest.raises(DimensionError):
        orbit_sum_identity(ExactMatrix.from_rows([[1, 2]]), 1)


def test_weight_constant_on_orbits():
    x = random_symmetric(4, 53, 9)
    for k in range(1, 5):
        for o in partition_into_orbits(4, k):
            assert len({weight(m, x) for m in o.members}) == 1


def test_canonical_involution_properties():
    m = Matching(4, ((3, 1), (2, 4)))
    paired = canonical_involution(m)
    assert sign(paired) == -sign(m)
    assert canonical_involution(paired) == m


def test_canonical_involution_requires_odd_cluster():
    with pytest.raises(ValueError):
        canonical_involution(TAU8)  # interlacing orbit: every separation even


def test_canonical_involution_pairs_whole_orbit():
    for n in range(1, 5):
        for k in range(0, n + 1):
            for o in partition_into_orbits(n, k):
                if o.classification != "non-interlacing":
                    continue
                seen = set()
                for m in o.members:
                    partner = canonical_involution(m)
                    assert partner in o.members
                    assert partner != m
                    assert canonical_involution(partner) == m
                    seen.add(frozenset({m.edges, partner.edges}))
                assert len(seen) == len(o.members) // 2


def test_matching_json_round_trip():
    d = json.loads(json.dumps(TAU8.to_json_dict()))
    assert d == {
        "n": 8,
        "edges": [[1, 6], [2, 8], [3, 4], [4, 2], [5, 5], [6, 1], [8, 7]],
    }


def test_grand_identity_small():
    x = random_symmetric(4, 54, 9)
    for k in range(1, 5):
        total = sum(
            (sign(m) * weight(m, x) for m in enumerate_matchings(4, k)), Fraction(0)
        )
        assert total == interlacing_sum(x, k)
