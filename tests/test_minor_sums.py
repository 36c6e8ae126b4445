import gc
import json
import re
import weakref
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from canadaday import minor_sums
from canadaday.cli import main
from canadaday.exact_linalg import (
    DimensionError,
    child_seed,
    ExactMatrix,
    IndexSet,
    MinorLevel,
    k_subsets,
    minor_levels,
    random_matrix,
    random_symmetric,
    t_matrix,
)
from canadaday.minor_sums import (
    SymmetryError,
    interlacing_sum,
    is_interlacing,
    p_value,
    sum_all_minors,
    sum_principal_minors,
    t_minor_formula,
    theorem_campaign,
    verify_canada_day,
)
from oracles import determinant, identity, matmul, minor

# symmetric X with (a..f) = (2, 3, 5, 7, 11, 13), the worked 3x3 example
PRIMES_X = ExactMatrix.from_rows([[2, 3, 5], [3, 7, 11], [5, 11, 13]])


def test_is_interlacing_examples():
    assert is_interlacing(IndexSet(4, (1, 3)), IndexSet(4, (2, 4)))
    assert not is_interlacing(IndexSet(4, (2,)), IndexSet(4, (1,)))
    assert is_interlacing(IndexSet(5, (2, 3, 5)), IndexSet(5, (2, 3, 5)))


def test_is_interlacing_rejects_mismatch():
    with pytest.raises(DimensionError):
        is_interlacing(IndexSet(4, (1, 2)), IndexSet(4, (1,)))
    with pytest.raises(DimensionError):
        is_interlacing(IndexSet(4, (1,)), IndexSet(5, (1,)))


def test_p_value_examples():
    # index sets of the 7-edge worked matching (J read off the edges)
    I = IndexSet(8, (1, 2, 3, 4, 5, 6, 8))
    J = IndexSet(8, (1, 2, 4, 5, 6, 7, 8))
    assert p_value(I, J) == 1
    assert p_value(IndexSet(4, (1, 3)), IndexSet(4, (1, 3))) == 0
    assert p_value(IndexSet(4, (1, 2)), IndexSet(4, (3, 4))) == 2


def test_t_minor_formula_examples():
    assert t_minor_formula(IndexSet(4, (1, 3)), IndexSet(4, (2, 4))) == 4
    assert t_minor_formula(IndexSet(4, (2,)), IndexSet(4, (1,))) == 0
    assert t_minor_formula(IndexSet(4, (1, 2, 3)), IndexSet(4, (1, 2, 3))) == 1


def test_t_minor_formula_never_sees_a_fractional_index_set():
    # taken as given, (1.5, 2.5) against (2, 3) would give 4
    with pytest.raises(ValueError, match="1.5"):
        t_minor_formula(IndexSet(3, (1.5, 2.5)), IndexSet(3, (2, 3)))


@pytest.mark.parametrize("n", range(1, 6))
def test_t_minor_formula_matches_determinant(n):
    big_t = t_matrix(n)
    for k in range(1, n + 1):
        for I in k_subsets(n, k):
            for J in k_subsets(n, k):
                assert minor(big_t, J, I) == t_minor_formula(I, J)


def test_interlacing_iff_reduced_sets_strictly_interlace():
    def strictly(ip, jp):
        merged = [v for pair in zip(ip, jp) for v in pair]
        return all(a < b for a, b in zip(merged, merged[1:]))

    for n in range(1, 6):
        for k in range(1, n + 1):
            for I in k_subsets(n, k):
                for J in k_subsets(n, k):
                    common = set(I.elems) & set(J.elems)
                    ip = [e for e in I.elems if e not in common]
                    jp = [e for e in J.elems if e not in common]
                    assert is_interlacing(I, J) == strictly(ip, jp)


def test_interlacing_ranks_match_a_range_construction():
    # For each I, j_t ranges over [i_t, i_(t+1)] (j_k over [i_k, n-1]); of
    # those choices, J must still strictly increase.
    def ranks(n, k):
        subsets = list(combinations(range(n), k))
        rank = {s: r for r, s in enumerate(subsets)}
        return tuple(
            (rank[I], rank[J], k - len(set(I).intersection(J)))
            for I in subsets
            for J in product(*(range(lo, hi + 1) for lo, hi in zip(I, I[1:] + (n - 1,))))
            if all(a < b for a, b in zip(J, J[1:]))
        )

    for n in range(1, 9):
        for k in range(1, n + 1):
            assert minor_sums._interlacing_ranks(n, k) == ranks(n, k), (n, k)


def test_classify_pair_fields():
    I, J = IndexSet(4, (1, 3)), IndexSet(4, (2, 4))
    assert (p_value(I, J), is_interlacing(I, J)) == (2, True)


def test_sum_principal_k1_is_trace():
    tx = matmul(t_matrix(3), PRIMES_X)
    assert sum_principal_minors(tx, 1) == 60  # (a+2b+2c) + (d+2e) + f


def test_sum_principal_kn_is_determinant():
    m = random_symmetric(4, 21, 9)
    assert sum_principal_minors(m, 4) == determinant(m)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sum_principal_identity_counts_subsets(k):
    from math import comb

    assert sum_principal_minors(identity(4), k) == comb(4, k)


def test_sum_all_k1_is_entry_sum():
    m = random_symmetric(4, 22, 9)
    assert sum_all_minors(m, 1) == sum(m.entries)


def test_sum_all_identity2_k1():
    assert sum_all_minors(identity(2), 1) == 2


def test_sum_all_kn_is_determinant():
    m = random_symmetric(4, 23, 9)
    assert sum_all_minors(m, 4) == determinant(m)


def test_k_out_of_range():
    m = random_symmetric(3, 1, 5)
    for bad_k in (0, 4):
        with pytest.raises(ValueError):
            sum_all_minors(m, bad_k)
    with pytest.raises(DimensionError):
        sum_all_minors(ExactMatrix.from_rows([[1, 2]]), 1)


def test_size_guard_and_override(monkeypatch):
    built = []

    def counting_levels(m):
        for level in minor_levels(m):
            built.append(level.k)
            yield level

    monkeypatch.setattr(minor_sums, "minor_levels", counting_levels)
    with pytest.raises(ValueError, match="exceeds the guard 12"):
        sum_principal_minors(identity(13), 1)
    assert built == []  # refused before any level is built
    assert sum_principal_minors(identity(12), 1) == 12
    assert built == [1]  # only the level asked for is built


def test_walk_cap_admits_max_walk_and_refuses_one_more():
    cap = minor_sums.MAX_WALK
    minor_sums.check_walk(cap, "items")
    with pytest.raises(ValueError) as refused:
        minor_sums.check_walk(cap + 1, "items")
    assert str(refused.value) == f"{cap + 1} items, over the cap MAX_WALK = {cap}"


def _bareiss_sums(m, k):
    """Principal of TX, all of X and S, one Bareiss minor per index pair."""
    n = m.rows
    tx = matmul(t_matrix(n), m)
    pairs = [(I, J) for I in k_subsets(n, k) for J in k_subsets(n, k)]
    return (
        sum((minor(tx, J, J) for J in k_subsets(n, k)), Fraction(0)),
        sum((minor(m, I, J) for I, J in pairs), Fraction(0)),
        sum(
            (2 ** p_value(I, J) * minor(m, I, J) for I, J in pairs if is_interlacing(I, J)),
            Fraction(0),
        ),
    )


@pytest.mark.parametrize(
    "ks", [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 5, 1, 4, 2]], ids=["up", "down", "mixed"]
)
def test_sums_match_bareiss_in_any_k_order(ks):
    # one rational symmetric X, its k asked for in any order
    rows = [[Fraction(i + j - 3, 1 + (i * j) % 4) for j in range(5)] for i in range(5)]
    m = ExactMatrix.from_rows(rows)
    assert m.is_symmetric() and any(v.denominator > 1 for v in m.entries)
    for k in ks:
        r = verify_canada_day(m, k)
        assert (r.principal_of_tx, r.all_of_x, r.interlacing_s) == _bareiss_sums(m, k)
        assert r.all_equal


def test_walking_k_builds_only_the_table_of_x(monkeypatch):
    # the campaign walks each matrix's minor table once for all its k and
    # takes the principal sums of TX from one char poly: no table of T@X
    built, polys = [], []
    real_levels, real_poly = minor_sums.minor_levels, minor_sums.integer_char_poly
    monkeypatch.setattr(minor_sums, "minor_levels", lambda m: built.append(m) or real_levels(m))
    monkeypatch.setattr(
        minor_sums, "integer_char_poly", lambda a: polys.append(a) or real_poly(a)
    )
    doc = theorem_campaign(4, trials=2)
    assert doc["passed"] and doc["cell_count"] == 2 * (1 + 2 + 3 + 4)
    assert built == [
        random_symmetric(n, child_seed(42, n, trial), 9) for n in range(1, 5) for trial in range(2)
    ]
    assert len(polys) == 8


def test_sums_keep_no_matrix_alive():
    # every sum is a stateless call: nothing keeps the matrix or its table
    m = random_symmetric(4, 41, 9)
    verify_canada_day(m, 2)
    sum_all_minors(m, 3)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


@pytest.fixture
def odd_levels_negated(monkeypatch):
    """`minor_levels` with every odd level negated: a sign fault in the one
    minor engine, which an identity read off that engine alone cannot see."""
    real = minor_sums.minor_levels

    def negated(m):
        for level in real(m):
            if level.k % 2:
                rows = tuple(tuple(-v for v in row) for row in level.scaled)
                level = MinorLevel(level.n, level.k, level.scale, rows)
            yield level

    monkeypatch.setattr(minor_sums, "minor_levels", negated)


def test_negated_odd_levels_fail_verify_canada_day(odd_levels_negated):
    m = random_symmetric(4, 41, 9)
    assert sum(m.entries) != 0  # the trace of TX, its principal sum at k = 1
    r = verify_canada_day(m, 1)
    assert r.principal_of_tx == sum(m.entries) == -r.all_of_x == -r.interlacing_s
    assert not r.all_equal


def test_negated_odd_levels_fail_verify_theorem(odd_levels_negated, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify-theorem", "--n", "4", "--trials", "1", "--format", "json", "--out", str(out)]
    assert main(argv) == 1
    doc = json.loads(out.read_text())
    assert not doc["passed"]
    # only the odd levels are wrong, so only odd k may fail
    assert doc["witnesses"] and all(w["k"] % 2 for w in doc["witnesses"])


def test_interlacing_sum_equals_all_minors_when_symmetric():
    for seed in range(5):
        m = random_symmetric(3, 300 + seed, 9)
        assert interlacing_sum(m, 2) == sum_all_minors(m, 2)


def test_interlacing_sum_kn_is_determinant():
    m = random_symmetric(4, 24, 9)
    assert interlacing_sum(m, 4) == determinant(m)


def test_interlacing_sum_identity_k1():
    assert interlacing_sum(identity(5), 1) == 5


def cauchy_binet_check(A, B, rows, cols):
    """Check |(AB)_rows,cols| == sum over I of |A_rows,I| * |B_I,cols|."""
    if not (A.is_square() and B.is_square() and A.rows == B.rows):
        raise DimensionError("A and B must be square of equal size")
    if len(rows) != len(cols):
        raise DimensionError("rows and cols must have equal cardinality")
    n, k = A.rows, len(rows)
    lhs = minor(matmul(A, B), rows, cols)
    rhs = sum((minor(A, rows, I) * minor(B, I, cols) for I in k_subsets(n, k)), Fraction(0))
    return lhs == rhs


def test_cauchy_binet_identity_matrices():
    full = IndexSet(3, (1, 2, 3))
    assert cauchy_binet_check(identity(3), identity(3), full, full)


def test_cauchy_binet_t_times_symmetric_all_pairs():
    a = t_matrix(3)
    b = random_symmetric(3, 31, 9)
    for rows in k_subsets(3, 2):
        for cols in k_subsets(3, 2):
            assert cauchy_binet_check(a, b, rows, cols)


def test_three_sums_agree_up_to_n6():
    for n in range(1, 7):
        for seed in range(3):
            m = random_symmetric(n, 700 + 10 * n + seed, 9)
            for k in range(1, n + 1):
                assert verify_canada_day(m, k).all_equal


def test_sum_principal_tx_k1_is_entry_sum():
    for seed in range(5):
        m = random_symmetric(4, 800 + seed, 9)
        assert sum_principal_minors(matmul(t_matrix(4), m), 1) == sum(m.entries)


def test_cauchy_binet_n5_random_pairs():
    a = random_matrix(5, 34, 9)
    b = random_matrix(5, 35, 9)
    for k in (2, 3):
        for rows in list(k_subsets(5, k))[:4]:
            for cols in list(k_subsets(5, k))[:4]:
                assert cauchy_binet_check(a, b, rows, cols)


def test_cauchy_binet_full_is_det_multiplicativity():
    a = random_matrix(4, 32, 9)
    b = random_matrix(4, 33, 9)
    full = IndexSet(4, (1, 2, 3, 4))
    assert cauchy_binet_check(a, b, full, full)


def test_cauchy_binet_dimension_mismatch():
    with pytest.raises(DimensionError):
        cauchy_binet_check(t_matrix(3), t_matrix(4), IndexSet(3, (1,)), IndexSet(3, (1,)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_canada_day_on_primes_example(k):
    r = verify_canada_day(PRIMES_X, k)
    assert r.all_equal
    assert r.principal_of_tx == r.all_of_x == r.interlacing_s


def test_verify_canada_day_n4_k2_random():
    r = verify_canada_day(random_symmetric(4, 41, 9), 2)
    assert r.all_equal


def test_verify_canada_day_trivial_n1():
    r = verify_canada_day(ExactMatrix.from_rows([[7]]), 1)
    assert r.principal_of_tx == r.all_of_x == r.interlacing_s == 7


def test_verify_canada_day_rejects_asymmetric():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(SymmetryError):
        verify_canada_day(m, 1)


def test_part_a_holds_without_symmetry():
    # principal minors of TX equal S for arbitrary X; the all-minors sum
    # generally does not
    found_b_failure = False
    for seed in range(10):
        m = random_matrix(3, 500 + seed, 9)
        tx = matmul(t_matrix(3), m)
        for k in (1, 2, 3):
            assert sum_principal_minors(tx, k) == interlacing_sum(m, k)
        r = verify_canada_day(m, 2, allow_asymmetric=True)
        assert r.part_a_equal
        if not r.all_equal:
            found_b_failure = True
    assert found_b_failure


def test_kn_specialization_det_tx_equals_det_x():
    for seed in range(5):
        m = random_matrix(5, 600 + seed, 9)
        assert determinant(matmul(t_matrix(5), m)) == determinant(m)


@pytest.mark.parametrize("k", [True, 2.0])
@pytest.mark.parametrize(
    "route",
    [lambda k: theorem_campaign(3, k=k, trials=1), lambda k: verify_canada_day(PRIMES_X, k)],
    ids=["theorem_campaign", "verify_canada_day"],
)
def test_theorem_routes_refuse_a_k_that_is_not_an_integer(route, k):
    # True would check the k = 1 cells and 2.0 fail inside islice
    with pytest.raises(ValueError, match=re.escape(f"an index must be an integer, got {k!r}")):
        route(k)


def test_theorem_routes_take_the_int_of_a_numpy_k():
    d = verify_canada_day(PRIMES_X, np.int64(2)).to_json_dict()
    assert type(d["k"]) is int
    assert json.dumps(d) == json.dumps(verify_canada_day(PRIMES_X, 2).to_json_dict())
    doc = theorem_campaign(3, k=np.int64(2), trials=1)
    assert type(doc["config"]["k"]) is int
    assert json.dumps(doc) == json.dumps(theorem_campaign(3, k=2, trials=1))


def test_report_json_schema():
    r = verify_canada_day(PRIMES_X, 2)
    d = r.to_json_dict()
    assert set(d) == {"n", "k", "principal_of_TX", "all_of_X", "interlacing_S", "all_equal"}
    assert d["principal_of_TX"] == "-46"
    assert d["all_equal"] is True
