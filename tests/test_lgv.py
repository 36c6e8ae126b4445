from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canadaday import lgv
from canadaday.exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    MinorLevel,
    k_subsets,
    t_matrix,
)
from canadaday.lgv import (
    LayeredNetwork,
    audit_table,
    build_network,
    count_disjoint_families,
    path_matrix,
)
from canadaday.minor_sums import is_interlacing, p_value, t_minor_formula
from oracles import identity, matmul, minor


def test_build_network_n1():
    net = build_network(1)
    assert net.depth == 1
    assert path_matrix(net).to_rows() == [[1]]


@pytest.mark.parametrize("n", [3, 4])
def test_build_network_path_matrix_examples(n):
    assert path_matrix(build_network(n)) == t_matrix(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_path_matrix_equals_t(n):
    assert path_matrix(build_network(n)) == t_matrix(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_build_network_refuses_a_path_matrix_other_than_t(monkeypatch, n):
    def t_off_by_one(size):
        rows = t_matrix(size).to_rows()
        rows[-1][-1] += 1
        return ExactMatrix.from_rows(rows)

    monkeypatch.setattr(lgv, "t_matrix", t_off_by_one)
    with pytest.raises(RuntimeError, match=f"wrong path matrix for n={n}"):
        build_network(n)


@pytest.mark.parametrize("n", range(2, 5))
def test_build_network_refuses_paths_that_do_not_realize_t(monkeypatch, n):
    # the construction check reads the same path lists the LGV counts use
    real = lgv._paths_from

    def short_by_one(net, source):
        paths = real(net, source)
        return paths[:-1] if len(paths) >= 2 else paths

    monkeypatch.setattr(lgv, "_paths_from", short_by_one)
    with pytest.raises(RuntimeError, match=f"wrong path matrix for n={n}"):
        build_network(n)


def test_identity_layers_give_identity_path_matrix():
    ident = frozenset((i, i) for i in range(1, 4))
    net = LayeredNetwork(3, (ident, ident))
    assert path_matrix(net) == identity(3)


def test_single_bidiagonal_layer_n2():
    net = LayeredNetwork(2, (frozenset({(1, 1), (2, 2), (2, 1)}),))
    assert path_matrix(net).to_rows() == [[1, 0], [1, 1]]


def test_layer_planarity_rejected():
    # 1->2 and 2->1 cross transversally
    with pytest.raises(ValueError):
        LayeredNetwork(2, (frozenset({(1, 2), (2, 1)}),))
    with pytest.raises(ValueError, match="out of range"):
        LayeredNetwork(2, (frozenset({(1, 3)}),))


def test_count_example_two_windows():
    net = build_network(4)
    # sources indexed by J = {2, 4}, sinks by I = {1, 3}
    assert count_disjoint_families(net, IndexSet(4, (2, 4)), IndexSet(4, (1, 3))) == 4


def test_count_no_upward_path():
    net = build_network(3)
    assert count_disjoint_families(net, IndexSet(3, (1,)), IndexSet(3, (2,))) == 0


def test_count_refuses_unequal_source_and_sink_sets():
    with pytest.raises(DimensionError):
        count_disjoint_families(build_network(3), IndexSet(3, (1, 2)), IndexSet(3, (1,)))


@pytest.mark.parametrize(
    "sources,sinks",
    [(IndexSet(5, (5,)), IndexSet(4, (1,))), (IndexSet(4, (1,)), IndexSet(9, (9,)))],
    ids=["source-past-n", "sink-past-n"],
)
def test_count_refuses_sets_of_another_size(sources, sinks):
    # a sink past n would count 0 families: a silent wrong answer
    with pytest.raises(DimensionError, match="subsets of 1..4"):
        count_disjoint_families(build_network(4), sources, sinks)


def test_count_full_sets_single_family():
    net = build_network(4)
    full = IndexSet(4, (1, 2, 3, 4))
    assert count_disjoint_families(net, full, full) == 1


@pytest.mark.parametrize("n", range(1, 5))
def test_three_way_agreement_exhaustive(n):
    net = build_network(n)
    big_t = t_matrix(n)
    for k in range(1, n + 1):
        for I in k_subsets(n, k):
            for J in k_subsets(n, k):
                count = count_disjoint_families(net, J, I)
                assert count == minor(big_t, J, I) == t_minor_formula(I, J)
                if is_interlacing(I, J):
                    assert count == 2 ** p_value(I, J)
                else:
                    assert count == 0


def test_audit_table():
    table = audit_table(3)
    assert len(table) == sum(len(list(k_subsets(3, k))) ** 2 for k in (1, 2, 3))
    assert all(row["agree"] for row in table)
    assert {"k", "I", "J", "formula_value", "det_value", "lgv_count", "agree"} == set(table[0])


@pytest.mark.parametrize("n", range(1, 5))
def test_audit_table_walks_paths_once_per_source_and_minors_once(monkeypatch, n):
    calls = Counter()
    for name in ("_paths_from", "minor_levels"):

        def counting(*args, _name=name, _real=getattr(lgv, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(lgv, name, counting)
    assert all(row["agree"] for row in audit_table(n))
    assert calls == {"_paths_from": n, "minor_levels": 1}


def test_audit_table_compares_exact_values(monkeypatch):
    # |T_{(2),(1)}| = 2; a determinant of 5/2 must not truncate into agreement
    real_levels = lgv.minor_levels

    def planted_levels(m):
        # every minor over twice the scale, and 5 over it for rows (2), cols (1)
        for level in real_levels(m):
            scaled = [[2 * v for v in row] for row in level.scaled]
            if level.k == 1:
                scaled[1][0] = 5
            yield MinorLevel(level.n, level.k, 2 * level.scale, tuple(map(tuple, scaled)))

    monkeypatch.setattr(lgv, "minor_levels", planted_levels)
    bad = [row for row in audit_table(2) if not row["agree"]]
    assert bad == [
        {"k": 1, "I": [1], "J": [2], "formula_value": 2, "det_value": 2, "lgv_count": 2,
         "agree": False}
    ]


@st.composite
def _planar_networks(draw):
    """n <= 4 rows and 0-4 layers, each a random edge subset kept in draw
    order except for the edges that cross one kept before them."""
    n = draw(st.integers(1, 4))
    edges = [(a, c) for a in range(1, n + 1) for c in range(1, n + 1)]
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        kept = []
        for a, c in draw(st.lists(st.sampled_from(edges), unique=True)):
            if all((a - a2) * (c - c2) >= 0 for a2, c2 in kept):
                kept.append((a, c))
        layers.append(frozenset(kept))
    return LayeredNetwork(n, tuple(layers))


def _layer_product(net):
    """The path matrix as the product of the layers' adjacency matrices."""
    n = net.n
    result = identity(n)
    for layer in net.layers:
        adjacency = [[int((a, c) in layer) for c in range(1, n + 1)] for a in range(1, n + 1)]
        result = matmul(result, ExactMatrix.from_rows(adjacency))
    return result


def _brute_force_families(net, sources, sinks):
    """One path per source in every combination; count those that end on
    exactly the sinks and are pairwise vertex-disjoint."""
    return sum(
        {p[-1] for p in family} == set(sinks)
        and all(
            set(enumerate(p)).isdisjoint(enumerate(q)) for p, q in combinations(family, 2)
        )
        for family in product(*(net._paths[s - 1] for s in sources))
    )


@settings(max_examples=200, deadline=None)
@given(_planar_networks())
def test_path_matrix_and_counts_match_brute_force_on_planar_networks(net):
    assert path_matrix(net) == _layer_product(net)
    for k in range(net.n + 1):
        for J in k_subsets(net.n, k):
            for I in k_subsets(net.n, k):
                assert count_disjoint_families(net, J, I) == _brute_force_families(net, J, I)
