import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canadaday.exact_linalg import (
    DimensionError,
    ExactMatrix,
    IndexSet,
    char_poly,
    determinant,
    exact_str,
    integer_char_poly,
    k_subsets,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    minor,
    minor_levels,
    random_matrix,
    random_symmetric,
    submatrix,
    t_matrix,
)
from oracles import identity, minor_via_matchings, str_without_digit_limit, transpose


def test_t_matrix_n3_matches_worked_example():
    assert t_matrix(3).to_rows() == [
        [1, 0, 0],
        [2, 1, 0],
        [2, 2, 1],
    ]


def test_matrix_hash_is_the_field_hash():
    m = random_symmetric(3, 4, 9)
    assert hash(m) == hash((3, 3, m.entries))
    twin = ExactMatrix(3, 3, m.entries)
    assert twin == m and hash(twin) == hash(m)
    assert twin != ExactMatrix(3, 3, m.entries[:-1] + (m.entries[-1] + 1,))


def test_t_matrix_n1():
    assert t_matrix(1).to_rows() == [[1]]


def test_t_matrix_n4():
    assert t_matrix(4).to_rows() == [
        [1, 0, 0, 0],
        [2, 1, 0, 0],
        [2, 2, 1, 0],
        [2, 2, 2, 1],
    ]


def test_t_matrix_rejects_nonpositive():
    with pytest.raises(ValueError):
        t_matrix(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_t_matrix_is_unimodular(n):
    assert determinant(t_matrix(n)) == 1


def test_determinant_identity():
    assert determinant(identity(5)) == 1


def test_determinant_2x2():
    assert determinant(ExactMatrix.from_rows([[2, 0], [2, 2]])) == 4


def test_determinant_rejects_nonsquare():
    with pytest.raises(DimensionError):
        determinant(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def _leibniz_determinant(m):
    full = IndexSet(m.rows, tuple(range(1, m.rows + 1)))
    return minor_via_matchings(m, full, full)


def test_determinant_zero_pivot_needs_swap():
    m = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert determinant(m) == -1
    assert determinant(m) == _leibniz_determinant(m)


def test_determinant_singular():
    assert determinant(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 0


def test_determinant_fractional_entries():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_agrees_with_leibniz_oracle(rows):
    m = ExactMatrix.from_rows(rows)
    assert determinant(m) == _leibniz_determinant(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_determinant_of_transpose(n):
    for seed in range(5):
        m = random_matrix(n, 1000 + seed, 9)
        assert determinant(m) == determinant(transpose(m))


def _rational_matrix(n, seed):
    """Asymmetric n x n matrix of p/q entries, at least one not an integer."""
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    rows[0][n - 1] = Fraction(1, 2)
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize("kind", ["integer symmetric", "integer asymmetric", "rational"])
@pytest.mark.parametrize("n", range(1, 7))
def test_minor_levels_match_bareiss_on_every_pair(kind, n):
    m = {
        "integer symmetric": lambda: random_symmetric(n, 1100 + n, 9),
        "integer asymmetric": lambda: random_matrix(n, 1200 + n, 9),
        "rational": lambda: _rational_matrix(n, 1300 + n),
    }[kind]()
    levels = list(minor_levels(m))
    assert [level.k for level in levels] == list(range(1, n + 1))
    for level in levels:
        subsets = list(k_subsets(n, level.k))
        assert len(level.scaled) == len(subsets)
        for r, I in enumerate(subsets):
            assert len(level.scaled[r]) == len(subsets)
            for c, J in enumerate(subsets):
                assert Fraction(level.scaled[r][c], level.scale) == minor(m, I, J)


def test_minor_levels_scale_is_power_of_common_denominator():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert [level.scale for level in minor_levels(m)] == [210, 210**2]
    assert [level.scale for level in minor_levels(t_matrix(3))] == [1, 1, 1]


def test_minor_levels_rejects_nonsquare():
    with pytest.raises(DimensionError):
        next(minor_levels(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])))


def _principal_sums_bareiss(m):
    n = m.rows
    return [
        sum((minor(m, I, I) for I in k_subsets(n, k)), Fraction(0)) for k in range(n + 1)
    ]


def _signed(coeffs):
    return [-c if k % 2 else c for k, c in enumerate(coeffs)]


@pytest.mark.parametrize("kind", ["integer symmetric", "integer asymmetric", "rational"])
@pytest.mark.parametrize("n", range(1, 9))
def test_char_poly_matches_principal_minor_sums(kind, n):
    m = {
        "integer symmetric": lambda: random_symmetric(n, 1400 + n, 9),
        "integer asymmetric": lambda: random_matrix(n, 1500 + n, 9),
        "rational": lambda: _rational_matrix(n, 1600 + n),
    }[kind]()
    signed = _signed(char_poly(m))
    assert signed == _principal_sums_bareiss(m)
    table = [
        Fraction(sum(row[r] for r, row in enumerate(level.scaled)), level.scale)
        for level in minor_levels(m)
    ]
    assert signed == [1] + table


def test_char_poly_small_cases():
    empty = ExactMatrix(0, 0, ())
    assert char_poly(empty) == [1] == _principal_sums_bareiss(empty)
    assert char_poly(ExactMatrix.from_rows([[Fraction(-3, 4)]])) == [1, Fraction(3, 4)]
    # lambda^2 - 5 lambda - 2 for [[1, 2], [3, 4]]
    assert char_poly(ExactMatrix.from_rows([[1, 2], [3, 4]])) == [1, -5, -2]
    assert integer_char_poly([[0, 1], [-1, 0]]) == [1, 0, 1]


def test_char_poly_rejects_nonsquare():
    with pytest.raises(DimensionError):
        char_poly(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=9),
                min_size=n, max_size=n,
            ),
            min_size=n, max_size=n,
        )
    )
)
def test_char_poly_property_on_rationals(rows):
    m = ExactMatrix.from_rows(rows)
    coeffs = char_poly(m)
    assert _signed(coeffs) == _principal_sums_bareiss(m)
    # det(lambda*I - m) by Bareiss at a few points, against the polynomial
    n = m.rows
    for lam in (Fraction(0), Fraction(1), Fraction(-7, 3)):
        shifted = ExactMatrix.from_rows(
            [[(lam if i == j else 0) - m.entry(i + 1, j + 1) for j in range(n)] for i in range(n)]
        )
        assert determinant(shifted) == sum(c * lam ** (n - k) for k, c in enumerate(coeffs))


def test_submatrix_of_t4():
    m = submatrix(t_matrix(4), IndexSet(4, (2, 4)), IndexSet(4, (1, 3)))
    assert m.to_rows() == [[2, 0], [2, 2]]


def test_submatrix_full_range_is_identity_slice():
    m = random_symmetric(4, 3, 9)
    full = IndexSet(4, (1, 2, 3, 4))
    assert submatrix(m, full, full) == m


def test_submatrix_prime_instantiated_example():
    # symmetric X with (a, b, c, d, e, f) = (2, 3, 5, 7, 11, 13)
    x = ExactMatrix.from_rows([[2, 3, 5], [3, 7, 11], [5, 11, 13]])
    s = submatrix(x, IndexSet(3, (1, 2)), IndexSet(3, (1, 2)))
    assert s.to_rows() == [[2, 3], [3, 7]]


def test_submatrix_out_of_range():
    with pytest.raises(IndexError):
        submatrix(t_matrix(3), IndexSet(4, (2, 4)), IndexSet(4, (1, 3)))
    with pytest.raises(IndexError, match="column"):
        submatrix(t_matrix(3), IndexSet(4, (1, 3)), IndexSet(4, (2, 4)))


def test_minor_of_t4():
    assert minor(t_matrix(4), IndexSet(4, (2, 4)), IndexSet(4, (1, 3))) == 4


def test_minor_singleton_is_entry():
    m = random_symmetric(4, 11, 9)
    for i in range(1, 5):
        for j in range(1, 5):
            assert minor(m, IndexSet(4, (i,)), IndexSet(4, (j,))) == m.entry(i, j)


def test_minor_full_is_determinant():
    m = random_symmetric(4, 12, 9)
    full = IndexSet(4, (1, 2, 3, 4))
    assert minor(m, full, full) == determinant(m)


def test_minor_cardinality_mismatch():
    with pytest.raises(DimensionError):
        minor(t_matrix(4), IndexSet(4, (1, 2)), IndexSet(4, (3,)))


def test_random_symmetric_is_symmetric_and_deterministic():
    for seed in range(10):
        m = random_symmetric(5, seed, 9)
        assert m == transpose(m)
        assert m == random_symmetric(5, seed, 9)


def test_is_symmetric_compares_mirrored_entries():
    assert ExactMatrix.from_rows([[Fraction(1, 2), 3], ["6/2", 0]]).is_symmetric()
    assert not ExactMatrix.from_rows([[1, 2], [Fraction(5, 2), 1]]).is_symmetric()
    assert not ExactMatrix.from_rows([[1, 2], [2, 1], [0, 0]]).is_symmetric()
    for seed in range(5):
        for m in (random_symmetric(4, seed, 9), random_matrix(4, seed, 9)):
            assert m.is_symmetric() == (m == transpose(m))


@pytest.mark.parametrize("gen", [random_symmetric, random_matrix])
@pytest.mark.parametrize("n,bound", [(0, 9), (2, -1)])
def test_random_generators_refuse_bad_arguments(gen, n, bound):
    with pytest.raises(ValueError):
        gen(n, 1, bound)


def test_random_symmetric_bound_zero():
    assert random_symmetric(1, 77, 0).to_rows() == [[0]]


def test_random_symmetric_respects_bound():
    m = random_symmetric(6, 5, 3)
    assert all(-3 <= v <= 3 for v in m.entries)


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(3, (2, 2))
    with pytest.raises(ValueError):
        IndexSet(3, (0, 1))
    with pytest.raises(ValueError):
        IndexSet(3, (1, 4))
    assert len(IndexSet(5, ())) == 0
    assert 2 in IndexSet(3, (1, 2)) and 3 not in IndexSet(3, (1, 2))


def test_k_subsets_lexicographic():
    subsets = [s.elems for s in k_subsets(4, 2)]
    assert subsets == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@st.composite
def _subsets(draw):
    """An ambient size n <= 12 and a strictly increasing tuple within 1..n."""
    n = draw(st.integers(0, 12))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, tuple(i for i, kept in enumerate(keep, start=1) if kept)


@settings(max_examples=200, deadline=None)
@given(_subsets())
def test_index_set_accepts_increasing_tuples(args):
    n, elems = args
    s = IndexSet(n, elems)
    assert (s.n, s.elems, len(s)) == (n, elems, len(elems))


@settings(max_examples=300, deadline=None)
@given(_subsets(), st.sampled_from(["duplicate", "decrease", "zero", "above n", "negative n"]), st.data())
def test_index_set_refuses_malformed_tuples(args, fault, data):
    n, elems = args
    elems = list(elems)
    if fault == "duplicate":
        assume(elems)
        r = data.draw(st.integers(0, len(elems) - 1))
        elems.insert(r, elems[r])
    elif fault == "decrease":
        assume(len(elems) >= 2)
        r = data.draw(st.integers(0, len(elems) - 2))
        elems[r], elems[r + 1] = elems[r + 1], elems[r]
    elif fault == "zero":
        elems.insert(0, 0)
    elif fault == "above n":
        elems.append(data.draw(st.integers(n + 1, n + 12)))
    else:
        n = data.draw(st.integers(-12, -1))
    with pytest.raises(ValueError):
        IndexSet(n, tuple(elems))


def test_k_subsets_follow_combinations_order():
    # minor_levels ranks each level's index sets by this order
    for n in range(13):
        for k in range(n + 1):
            subsets = list(k_subsets(n, k))
            assert subsets == sorted(subsets) and len(subsets) == comb(n, k)
            assert [s.elems for s in subsets] == list(combinations(range(1, n + 1), k))
            assert all(s.n == n for s in subsets)


def test_matrix_entry_is_one_based():
    m = t_matrix(3)
    assert m.entry(2, 1) == 2
    assert m.entry(1, 2) == 0
    with pytest.raises(IndexError):
        m.entry(0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExactMatrix(-1, 0, ()),
        lambda: ExactMatrix(2, 2, (1, 2, 3)),
        lambda: ExactMatrix.from_rows([[1, 2], [3]]),
    ],
    ids=["negative-rows", "entry-count", "ragged-rows"],
)
def test_matrix_shape_validation(build):
    with pytest.raises(DimensionError):
        build()


def test_matmul_dimension_check():
    with pytest.raises(DimensionError):
        t_matrix(3) @ t_matrix(4)


def test_json_round_trip_is_bit_exact():
    m = ExactMatrix.from_rows(
        [[Fraction(-3, 7), Fraction(4)], [Fraction(22, 6), Fraction(0)]]
    )
    d = matrix_to_json_dict(m)
    assert d["entries"] == [["-3/7", "4"], ["11/3", "0"]]
    # and through an actual JSON text cycle
    assert matrix_from_json_dict(json.loads(json.dumps(d))) == m


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.fractions(), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_json_round_trip_property(rows):
    m = ExactMatrix(len(rows), len(rows), tuple(v for row in rows for v in row))
    assert matrix_from_json_dict(json.loads(json.dumps(matrix_to_json_dict(m)))) == m


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"rows": 1, "cols": 1, "entries": 5},
        {"rows": 1, "cols": 1, "entries": [5]},
        {"rows": 1, "cols": 1, "entries": [["1/0"]]},
        {"rows": True, "cols": 1, "entries": [["1"]]},
        {"rows": 1, "cols": 1.0, "entries": [["1"]]},
    ],
    ids=["top-level-list", "entries-int", "row-int", "zero-denominator", "bool-rows", "float-cols"],
)
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        matrix_from_json_dict(doc)


@pytest.mark.parametrize("key", ["rows", "cols", "entries"])
def test_json_names_a_missing_key(key):
    doc = {"rows": 1, "cols": 1, "entries": [["1"]]}
    del doc[key]
    with pytest.raises(ValueError, match=f"missing {key}$"):
        matrix_from_json_dict(doc)


def test_json_rejects_bad_shape():
    with pytest.raises(DimensionError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "entries": [["1", "2"]]})


def test_json_accepts_ints_and_exact_strings():
    d = {"rows": 1, "cols": 3, "entries": [[2, "-3/4", "0.1"]]}
    assert matrix_from_json_dict(d).to_rows() == [[2, Fraction(-3, 4), Fraction(1, 10)]]


@pytest.mark.parametrize("bad", [0.1, 2.0, True, None, [1]])
def test_json_rejects_inexact_entries(bad):
    with pytest.raises(ValueError):
        matrix_from_json_dict({"rows": 1, "cols": 2, "entries": [["1", bad]]})


def test_exact_str_renders_past_the_int_digit_limit():
    big = 10**6000 + 12345  # 6001 digits, past the 4300-digit default
    for v in (big, -big, Fraction(big, 7), Fraction(-3, big), Fraction(big, big + 2)):
        assert exact_str(Fraction(v)) == str_without_digit_limit(Fraction(v))
    for v in (0, -1, 7, Fraction(-3, 4), 10**4299, Fraction(1, 10**4299)):
        assert exact_str(Fraction(v)) == str(Fraction(v))


def test_save_and_load_matrix(tmp_path):
    m = random_symmetric(4, 9, 9)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json_dict(m)))
    assert load_matrix(path) == m
