import json
import math
import re
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decimal_rhs, exact_h, reference_rhs, reference_step, sum_all_minors_float

from canadaday import peakon
from canadaday.exact_linalg import ExactMatrix, char_poly
from canadaday.peakon import (
    MAX_PEAKONS,
    PeakonState,
    char_poly_coefficients,
    constants_of_motion,
    load_state,
    simulate,
    waveform,
)

E1 = math.exp(-1.0)


def test_rhs_single_peakon():
    dx, dm = _formula_rhs(np.array([2.0]), np.array([1.5]))
    assert dx[0] == pytest.approx(1.5**2, abs=0)
    assert dm[0] == 0.0


def test_rhs_zero_amplitudes():
    dx, dm = _formula_rhs(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    assert np.all(dx == 0) and np.all(dm == 0)


def test_rhs_two_peakons_hand_values():
    dx, dm = _formula_rhs(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert dx[0] == pytest.approx((1 + E1) ** 2, rel=1e-15)
    assert dm[0] == pytest.approx((1 + E1) * (-E1), rel=1e-15)
    # mirror peakon sees the opposite slope
    assert dm[1] == pytest.approx((1 + E1) * E1, rel=1e-15)


def test_rk4_single_peakon_closed_form():
    r = simulate(PeakonState(0.0, [-1.0], [2.0]), 1e-3, 1.0, sample_every=1000)
    s = r.sampled_states[-1]
    assert s.t == 1.0
    assert s.x[0] == pytest.approx(-1.0 + 4.0 * 1.0, abs=1e-10)
    assert s.m[0] == 2.0


def test_constants_single_peakon():
    h = constants_of_motion(PeakonState(0.0, [0.0], [3.0]))
    assert h.tolist() == [9.0]


def test_constants_zero_amplitudes():
    h = constants_of_motion(PeakonState(0.0, [0.0, 1.0], [0.0, 0.0]))
    assert h.tolist() == [0.0, 0.0]


def test_constants_two_peakons_hand_values():
    h = constants_of_motion(PeakonState(0.0, [0.0, 1.0], [1.0, 1.0]))
    assert h[0] == pytest.approx(2 + 2 * E1, rel=1e-15)
    assert h[1] == pytest.approx(1 - E1**2, rel=1e-14)


def test_constants_n20_run_passes_identity_gap():
    rng = np.random.default_rng(20)
    s = PeakonState(0.0, np.cumsum(rng.uniform(0.5, 1.5, 20)) - 20.0, rng.uniform(0.5, 2.0, 20))
    r = simulate(s, 1e-3, 0.05, sample_every=10)
    assert r.status == "ok" and len(r.samples) == 6
    assert max(row["identity_gap"] for row in r.samples) <= 1e-10
    assert max(r.max_rel_drift) <= 1e-7


def test_constants_refuse_unordered_positions():
    with pytest.raises(ValueError, match="non-decreasing"):
        constants_of_motion(PeakonState(0.0, [0.0, 2.0, 1.0], [1.0, 1.0, 1.0]))


def test_char_poly_single_peakon():
    c = char_poly_coefficients(PeakonState(0.0, [0.0], [3.0]))
    assert c.tolist() == [1.0, -9.0]


def test_char_poly_two_peakons_hand_values():
    # T P E P = [[4, 6/e], [8 + 6/e, 9 + 12/e]]
    c = char_poly_coefficients(PeakonState(0.0, [0.0, 1.0], [2.0, 3.0]))
    assert c[0] == 1.0
    assert c[1] == pytest.approx(-(13 + 12 * E1), rel=1e-15)
    assert c[2] == pytest.approx(36 * (1 - E1**2), rel=1e-14)


def test_char_poly_zero_amplitudes():
    c = char_poly_coefficients(PeakonState(0.0, [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]))
    assert c.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_char_poly_magnitudes_match_constants():
    s = PeakonState(0.0, [-2.0, 0.3, 1.7], [0.8, 1.1, 0.4])
    h = constants_of_motion(s)
    c = char_poly_coefficients(s)
    for k in range(1, 4):
        assert abs(c[k]) == pytest.approx(h[k - 1], rel=1e-10)
        assert c[k] == pytest.approx((-1) ** k * h[k - 1], rel=1e-10)


def test_waveform_peak_values():
    s = PeakonState(0.0, [0.0, 2.0], [1.0, 3.0])
    u = waveform(s, np.array([0.0, 2.0, 10.0]))
    assert u[0] == pytest.approx(1.0 + 3.0 * math.exp(-2.0), rel=1e-15)
    assert u[1] == pytest.approx(math.exp(-2.0) + 3.0, rel=1e-15)
    assert u[2] == pytest.approx(math.exp(-10.0) + 3.0 * math.exp(-8.0), rel=1e-15)


@pytest.mark.parametrize(
    "n,block_floats,points",
    [(6, 6 * 64, 1001), (40, peakon._WAVE_BLOCK_FLOATS, 60_001)],
    ids=["64-row blocks", "default blocks"],
)
def test_waveform_blocks_keep_the_one_shot_bits(monkeypatch, n, block_floats, points):
    rng = np.random.default_rng(n)
    s = PeakonState(0.0, sorted(rng.uniform(-9, 9, n)), list(rng.uniform(0.5, 2, n)))
    monkeypatch.setattr(peakon, "_WAVE_BLOCK_FLOATS", block_floats)
    grid = np.linspace(-10, 10, points)
    assert points > 2 * block_floats // n  # several blocks, the last one partial
    one_shot = np.exp(-np.abs(grid[:, None] - s.x[None, :])) @ s.m
    assert waveform(s, grid).tobytes() == one_shot.tobytes()


def test_simulate_single_peakon_zero_drift():
    r = simulate(PeakonState(0.0, [0.0], [1.3]), 1e-3, 10.0, sample_every=200)
    assert r.status == "ok"
    assert max(r.max_rel_drift) <= 1e-15


def test_simulate_two_peakons_conserves():
    r = simulate(PeakonState(0.0, [-1.0, 1.0], [1.0, 2.0]), 1e-3, 2.0, sample_every=50)
    assert r.status == "ok"
    assert max(r.max_rel_drift) <= 1e-8


def test_simulate_preserves_ordering_and_symmetry():
    r = simulate(PeakonState(0.0, [-5.0, 0.0, 3.0], [1.0, 2.0, 0.5]), 1e-2, 2.0, sample_every=20)
    assert r.status == "ok"
    for s in r.sampled_states:
        assert s.is_ordered()
        _, p, e = _matrices(s)
        assert np.array_equal(e, e.T)
        assert np.array_equal(np.diag(e), np.ones(3))
        pep = p @ e @ p
        # matmul rounding breaks bit-exactness, not symmetry
        assert np.allclose(pep, pep.T, rtol=1e-14, atol=0)


def test_simulate_drift_shrinks_sixteenfold():
    s = PeakonState(0.0, [-5.0, 0.0, 3.0], [1.0, 2.0, 0.5])
    coarse = max(simulate(s, 4e-2, 2.0, sample_every=1).max_rel_drift)
    fine = max(simulate(s, 2e-2, 2.0, sample_every=1).max_rel_drift)
    assert 8 <= coarse / fine <= 32


def test_simulate_sample_times_are_exact_multiples():
    dt = 1e-3
    r = simulate(PeakonState(0.5, [-1.0, 1.0], [1.0, 2.0]), dt, 1.0, sample_every=100)
    expected = [0.5 + step * dt for step in range(0, 1001, 100)]
    assert [row["t"] for row in r.samples] == expected
    assert [s.t for s in r.sampled_states] == expected


def test_simulate_flags_near_collision():
    r = simulate(PeakonState(0.0, [0.0, 5e-7], [1.0, 1.0]), 1e-3, 1.0)
    assert r.status == "collision"
    assert r.samples == [] and r.max_rel_drift == []


def test_simulate_flags_numerical_failure():
    r = simulate(PeakonState(0.0, [0.0, 1.0], [1e200, 1e200]), 1e-3, 1.0)
    assert r.status == "numerical failure"


def test_simulate_validates_inputs():
    good = PeakonState(0.0, [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        simulate(good, -1e-3, 1.0)
    with pytest.raises(ValueError):
        simulate(good, 1e-3, 0.0)
    with pytest.raises(ValueError):
        simulate(PeakonState(0.0, [1.0, 0.0], [1.0, 1.0]), 1e-3, 1.0)
    with pytest.raises(ValueError):
        simulate(PeakonState(0.0, [0.0, 1.0], [1.0, -1.0]), 1e-3, 1.0)
    with pytest.raises(ValueError):
        too_many = MAX_PEAKONS + 1
        simulate(PeakonState(0.0, np.arange(too_many), np.ones(too_many)), 1e-3, 1.0)


@pytest.mark.parametrize("every", [1.5, True])
def test_simulate_refuses_a_non_integer_sample_step(every):
    # step % 1.5 == 0 holds every third step: a silent wrong sample grid
    with pytest.raises(ValueError, match=re.escape(repr(every))):
        simulate(PeakonState(0.0, [0.0, 1.0], [1.0, 1.0]), 1e-2, 0.1, sample_every=every)


def test_report_json_schema():
    r = simulate(PeakonState(0.0, [0.0], [1.0]), 1e-2, 0.1)
    d = r.to_json_dict()
    assert set(d) == {"n", "dt", "samples", "max_rel_drift", "status", "tol", "passed"}
    assert set(d["samples"][0]) == {"t", "H", "c", "identity_gap"}
    assert d["status"] == "ok"


# Finite JSON numbers, ints and floats; ints stay inside float range.
_FINITE = st.one_of(
    st.integers(-(10**300), 10**300), st.floats(allow_nan=False, allow_infinity=False)
)
_POSITIVE = st.one_of(
    st.integers(1, 10**300), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
)


@st.composite
def _state_docs(draw):
    """A valid state document: distinct positions sorted by value, positive
    amplitudes, and maybe a start time."""
    x = sorted(draw(st.lists(_FINITE, min_size=1, max_size=6, unique_by=float)), key=float)
    doc = {"x": x, "m": draw(st.lists(_POSITIVE, min_size=len(x), max_size=len(x)))}
    if draw(st.booleans()):
        doc["t"] = draw(_FINITE)
    return doc


@settings(max_examples=200, deadline=None)
@given(_state_docs())
def test_load_state_round_trips_finite_numbers(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "state_round_trip.json"
    path.write_text(json.dumps(doc))
    s = load_state(str(path))
    assert s.x.tolist() == [float(v) for v in doc["x"]]
    assert s.m.tolist() == [float(v) for v in doc["m"]]
    assert s.t == float(doc.get("t", 0.0))


def test_load_state_takes_positions_whose_difference_overflows(tmp_path):
    # 1.7e308 - (-1.7e308) is past the float range; the order check must
    # compare the positions, with no overflow warning (an error in tier-1).
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"x": [-1.7e308, 1.7e308], "m": [1.0, 1.0]}))
    assert load_state(str(path)).x.tolist() == [-1.7e308, 1.7e308]
    path.write_text(json.dumps({"x": [1.7e308, -1.7e308], "m": [1.0, 1.0]}))
    with pytest.raises(ValueError, match="strictly increasing"):
        load_state(str(path))


_NOT_A_FINITE_NUMBER = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=10**309).flatmap(lambda v: st.sampled_from([v, -v])),
)


@settings(max_examples=200, deadline=None)
@given(_state_docs(), st.sampled_from(["x", "m", "t"]), st.integers(0, 5), _NOT_A_FINITE_NUMBER)
def test_load_state_refuses_non_numbers(tmp_path_factory, doc, key, index, bad):
    if key == "t":
        doc["t"] = bad
    else:
        doc[key][index % len(doc[key])] = bad
    path = tmp_path_factory.getbasetemp() / "state_refused.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_state(str(path))


def test_state_validation():
    with pytest.raises(ValueError):
        PeakonState(0.0, [0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        PeakonState(0.0, [], [])


# --- oracles: textbook formulas that the fast paths reproduce, bit for bit or
# to a measured bound


def _scalar_sum_all_minors(mat, k):
    """One np.ix_ gather and one scalar determinant per (rows, cols) pair,
    summed one at a time in enumeration order."""
    subsets = list(combinations(range(mat.shape[0]), k))
    total = 0.0
    for rows in subsets:
        for cols in subsets:
            sub = mat[np.ix_(rows, cols)]
            total += sub[0, 0] if k == 1 else float(np.linalg.det(sub))
    return total


def _matrices(s):
    """T, P and E of a state by their textbook formulas: 1 + sgn(i - j),
    diag(m) and exp(-|x_i - x_j|)."""
    idx = np.arange(s.n)
    t = 1.0 + np.sign(idx[:, None] - idx[None, :])
    return t, np.diag(s.m), np.exp(-np.abs(s.x[:, None] - s.x[None, :]))


def _pep(s):
    _, p, e = _matrices(s)
    return p @ e @ p


def _formula_rhs(x, m):
    diffs = x[:, None] - x[None, :]
    e = np.exp(-np.abs(diffs))
    u = e @ m
    slope = (np.sign(diffs) * e) @ m
    return u**2, m * u * slope


def _formula_rk4(s, dt):
    kx1, km1 = _formula_rhs(s.x, s.m)
    kx2, km2 = _formula_rhs(s.x + 0.5 * dt * kx1, s.m + 0.5 * dt * km1)
    kx3, km3 = _formula_rhs(s.x + 0.5 * dt * kx2, s.m + 0.5 * dt * km2)
    kx4, km4 = _formula_rhs(s.x + dt * kx3, s.m + dt * km3)
    return (
        s.t + dt,
        s.x + dt / 6.0 * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4),
        s.m + dt / 6.0 * (km1 + 2.0 * km2 + 2.0 * km3 + km4),
    )


def _random_ordered_states(n, count=3):
    rng = np.random.default_rng(1000 + n)
    for _ in range(count):
        x = np.cumsum(rng.uniform(0.2, 2.5, n)) - 1.2 * n
        yield PeakonState(0.0, x, rng.uniform(0.3, 2.0, n))


@pytest.mark.parametrize("n", range(1, 9))
def test_constants_equal_scalar_oracle_exactly(n):
    # the batched oracle of constants_of_motion against the plain loop
    for s in _random_ordered_states(n):
        pep = _pep(s)
        for k in range(1, n + 1):
            assert sum_all_minors_float(pep, k) == _scalar_sum_all_minors(pep, k)


def _oracle_states(n):
    """The seeded states, each also with every other amplitude zero and with
    its first two positions made equal."""
    for s in _random_ordered_states(n):
        yield s, False
        yield PeakonState(0.0, s.x, np.where(np.arange(n) % 2 == 0, 0.0, s.m)), False
        if n > 1:
            yield PeakonState(0.0, np.concatenate(([s.x[0]], s.x[:-1])), s.m), True


@pytest.mark.parametrize("n", range(1, 9))
def test_constants_match_batched_det_oracle(n):
    for s, coincident in _oracle_states(n):
        got = constants_of_motion(s)
        want = [sum_all_minors_float(_pep(s), k) for k in range(1, n + 1)]
        if coincident:
            # two equal rows make P E P singular: the chain sum gives H_n = 0
            # exactly, where the determinants leave roundoff, each minor
            # below H_1^n in absolute value.
            assert got[-1] == 0.0 and abs(want[-1]) <= 1e-13 * want[0] ** n
            got, want = got[:-1], want[:-1]
        for g, w in zip(got.tolist(), want, strict=True):
            assert abs(g - w) <= 1e-13 * abs(w)


def _formula_states(s, dt, count):
    """The first count states of a loop of _formula_rk4 from s."""
    states = [(s.t, s.x, s.m)]
    while len(states) < count:
        states.append(_formula_rk4(PeakonState(*states[-1]), dt))
    return states


# The O(n) right-hand side rounds differently from the array formulas, and
# the flow carries the difference on: over the 301 states of each run in
# test_simulate_states_equal_formula_rk4_loop the largest relative difference
# of a position or an amplitude measured 2.4e-11 (numpy 2.4.6, OpenBLAS).
_FORMULA_REL = 1e-10


def _assert_sampled_states_follow_formula(r, s, dt):
    # simulate stamps t0 + step*dt, the formula loop sums the steps
    for step, (got, (_, x, m)) in enumerate(
        zip(r.sampled_states, _formula_states(s, dt, len(r.sampled_states)), strict=True)
    ):
        assert got.t == s.t + step * dt
        for g, w in ((got.x, x), (got.m, m)):
            assert np.all(np.abs(g - w) <= _FORMULA_REL * np.abs(w)), step


@pytest.mark.parametrize("n", range(1, 9))
def test_simulate_states_equal_formula_rk4_loop(n):
    # equal up to _FORMULA_REL, relative: the stepper rounds its own way
    for s in _random_ordered_states(n):
        r = simulate(s, 1e-2, 3.0, sample_every=1)
        assert r.status == "ok" and len(r.sampled_states) == 301
        _assert_sampled_states_follow_formula(r, s, 1e-2)


def test_simulate_stops_where_formula_loop_collides():
    s = PeakonState(0.0, [0.0, 0.6], [2.0, 0.3])
    r = simulate(s, 1e-3, 1.0, sample_every=1, collision_epsilon=0.5)
    assert r.status == "collision" and len(r.sampled_states) == 40
    _assert_sampled_states_follow_formula(r, s, 1e-3)
    gaps = [x[1] - x[0] for _, x, _ in _formula_states(s, 1e-3, 41)]
    assert min(gaps[:40]) >= 0.5 > gaps[40]


def test_simulate_stops_where_formula_loop_overflows():
    s = PeakonState(0.0, [0.0, 1.0], [1.0, 1e70])
    r = simulate(s, 1e-3, 1.0, sample_every=1)
    assert r.status == "numerical failure" and len(r.sampled_states) == 1
    _assert_sampled_states_follow_formula(r, s, 1e-3)
    t, x, m = _formula_states(s, 1e-3, 2)[1]
    assert np.isfinite(x).all() and np.isfinite(m).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(constants_of_motion(PeakonState(t, x, m))).all()
    # 1e200 overflows H at the initial state: nothing is sampled
    r = simulate(PeakonState(0.0, [0.0, 1.0], [1e200, 1e200]), 1e-3, 1.0, sample_every=1)
    assert r.status == "numerical failure" and r.sampled_states == []


@pytest.mark.parametrize("n", range(1, 13))
def test_char_poly_coefficients_match_exact_char_poly(n):
    # the float route against Berkowitz in exact arithmetic on the very
    # floats of T P E P, each of which ExactMatrix holds as an exact Fraction
    for s in _random_ordered_states(n):
        t, p, e = _matrices(s)
        exact = char_poly(ExactMatrix.from_rows((t @ p @ e @ p).tolist()))
        got = char_poly_coefficients(s)
        for c, e in zip(got.tolist(), exact, strict=True):
            assert abs(Fraction(c) - e) <= Fraction(1e-7) * abs(e)


@pytest.mark.parametrize("n", range(1, 13))
def test_char_poly_coefficients_equal_textbook_product_exactly(n):
    # P only scales columns, so forming T P E P without the products by P
    # keeps every bit
    for s in _random_ordered_states(n):
        t, p, e = _matrices(s)
        want = np.poly(np.linalg.eigvals(t @ p @ e @ p)).real
        assert char_poly_coefficients(s).tobytes() == want.tobytes()


def _spread_state(n, spread):
    """A seeded ordered state with amplitudes spread over `spread` (>= 1)."""
    rng = np.random.default_rng(2000 + n)
    x = np.cumsum(rng.uniform(0.2, 2.5, n)) - 1.2 * n
    return PeakonState(0.0, x, 10.0 ** rng.uniform(0.0, math.log10(spread), n))


@pytest.mark.parametrize("spread", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("n", [3, 10, 20])
def test_constants_match_exact_referee(n, spread):
    s = _spread_state(n, spread)
    for h, want in zip(constants_of_motion(s).tolist(), exact_h(s), strict=True):
        assert abs(Fraction(h) - want) <= Fraction(1e-14) * want


# The reference stepper's right-hand side, whose bits the program's step
# keeps, against the 50-digit referee, each error measured against the sum
# of the absolute values of the terms: u_k^2 for x'_k, m_k u_k (L_k + R_k)
# for m'_k.  The largest measured 2.7 eps on these states (the array
# formulas: 3.7 eps).
_RHS_EPS = 4


@pytest.mark.parametrize("spread", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("n", [1, 3, 10, 20, 100])
def test_rhs_matches_decimal_referee(n, spread):
    s = _spread_state(n, spread)
    got = reference_rhs(s.x.tolist(), s.m.tolist())
    bound = Fraction(_RHS_EPS) * Fraction(np.finfo(float).eps)
    for k, (dx, dm, dm_scale) in enumerate(decimal_rhs(s)):
        assert abs(Fraction(got[k]) - Fraction(dx)) <= bound * Fraction(dx), k
        assert abs(Fraction(got[n + k]) - Fraction(dm)) <= bound * Fraction(dm_scale), k


@pytest.mark.parametrize(
    "x",
    [[1.0, 0.0], [0.0, 0.0], [0.0, 2.0, 1.0], [0.0, math.nan, 2.0], [0.0, 1.0, math.nan],
     [-math.inf, 0.0], [0.0, math.inf], [math.inf, math.inf]],
)
def test_rhs_refuses_positions_not_finite_and_increasing(monkeypatch, x):
    # the step's first stage is refused before its first exp, y unchanged
    args = _record_exp(monkeypatch)
    y = x + [1.0] * len(x)
    want = "numerical failure" if not all(map(math.isfinite, x)) else "collision"
    assert peakon._step(y, len(x), 1e-3) == want
    assert args == [] and _bits(y) == _bits(x + [1.0] * len(x))


def _record_exp(monkeypatch):
    """The argument of every exp that peakon takes from here on."""
    args = []
    monkeypatch.setattr(peakon, "exp", lambda v: args.append(v) or math.exp(v))
    return args


# Stage 2 of the first step puts the positions at 2.545 and 2.192.
CROSSING = PeakonState(0.0, [0.0, 0.1], [10.0, 0.1])


def test_simulate_ends_at_a_crossed_stage_as_collision(monkeypatch):
    args = _record_exp(monkeypatch)
    r = simulate(CROSSING, 0.05, 1.0)
    assert r.status == "collision" and len(r.samples) == 1
    assert args and max(args) < 0
    y = CROSSING.x.tolist() + CROSSING.m.tolist()
    assert peakon._step(y, 2, 0.05) == "collision" and y == [0.0, 0.1, 10.0, 0.1]


def test_step_ends_at_a_non_finite_stage_as_numerical_failure(monkeypatch):
    # x'_2 = (1e160)^2 overflows, so stage 2 puts x_2 at +inf; x_1 stays
    # finite (u_1 = 1, as e^-800 underflows), so the two stay in order.
    s = PeakonState(0.0, [0.0, 800.0], [1.0, 1e160])
    args = _record_exp(monkeypatch)
    y = s.x.tolist() + s.m.tolist()
    assert peakon._fault(y, 2, 0.0) is None
    assert peakon._step(y, 2, 1e-3) == "numerical failure" and y == [0.0, 800.0, 1.0, 1e160]
    assert args and max(args) < 0


def _bits(values):
    """The IEEE bytes of a list of floats: equal only bit for bit, so -0.0
    differs from 0.0 and a NaN equals a NaN of the same payload."""
    return array("d", values).tobytes()


def _seeded_packed_states(n, count=10):
    """Packed states x + m with ordered positions, gaps from 0.05 to 3 and
    amplitudes spread over two decades, one per seed."""
    for seed in range(count):
        rng = np.random.default_rng(7000 + 10 * n + seed)
        x = np.cumsum(rng.uniform(0.05, 3.0, n)) - 1.5 * n
        yield x.tolist() + (10.0 ** rng.uniform(-1.0, 1.0, n)).tolist()


def _same_steps(y, n, dt, steps):
    """Step y with the program and the reference stepper side by side, each
    on its own copy, and require the same return value and the same bits
    after every step; the last return value."""
    got, want = list(y), list(y)
    for _ in range(steps):
        verdict = peakon._step(got, n, dt)
        assert verdict == reference_step(want, n, dt)
        assert _bits(got) == _bits(want)
        if verdict is not None:
            return verdict
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 50])
def test_step_keeps_the_reference_steppers_bits(n):
    ends = [_same_steps(y, n, dt, 30) for y in _seeded_packed_states(n) for dt in (1e-3, 3e-2)]
    # every state runs all 30 steps at dt = 1e-3; at 3e-2 some of n >= 6 end
    # at a crossed stage, where the two are compared too
    assert ends[::2] == [None] * 10


def test_step_keeps_the_reference_steppers_bits_at_the_cap():
    n = MAX_PEAKONS
    y = np.arange(n, dtype=float).tolist() + np.linspace(0.5, 2.0, n).tolist()
    assert _same_steps(y, n, 1e-3, 3) is None


@pytest.mark.parametrize(
    "y, dt, verdict",
    [([0.0, 0.1, 10.0, 0.1], 0.05, "collision"),
     ([0.0, 800.0, 1.0, 1e160], 1e-3, "numerical failure")],
    ids=["crossed-stage", "non-finite-stage"],
)
def test_step_keeps_the_reference_steppers_bits_at_a_refused_stage(y, dt, verdict):
    # the states of the two tests above, each refused at its second stage
    assert _same_steps(y, 2, dt, 1) == verdict


def test_stepper_memory_far_below_one_square_array():
    # the array stepper held three n x n float arrays, 24 MB at the cap; the
    # lists of this one measured 0.34 MB at their peak
    n = MAX_PEAKONS
    s = PeakonState(0.0, np.arange(n, dtype=float), np.linspace(0.5, 2.0, n))
    tracemalloc.start()
    try:
        y = s.x.tolist() + s.m.tolist()
        assert [peakon._step(y, n, 1e-3) for _ in range(3)] == [None] * 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 < 8 * n * n


@pytest.mark.xfail(
    strict=True, reason="c_k from the eigenvalues of T P E P loses accuracy at amplitude spreads"
)
def test_char_poly_magnitudes_match_exact_referee_at_amplitude_spread():
    s = PeakonState(0.0, [0.0, 1.0, 2.0], [1.0, 1.0, 1e-9])
    c = char_poly_coefficients(s)
    for k, want in enumerate(exact_h(s), start=1):
        assert abs(abs(Fraction(c[k])) - want) <= Fraction(peakon.DEFAULT_TOL) * want
