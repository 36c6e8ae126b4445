"""The fault table: each fault is a monkeypatch of one function, with the
commands that must catch it.  A caught fault exits 1 and names what failed;
a fault that a run-time verdict cannot see yet is a strict xfail naming the
ROADMAP item meant to catch it, so it flips when that item lands.  A fault
that leaves every verdict true and only a reported value wrong is caught
by a test oracle of that value.  Every fault is installed through the
`fault` fixture, which counts its calls: a row whose fault the program never
called errs, so no row passes, or xfails, on an inert patch."""

import dataclasses
import json
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from canadaday import exact_linalg, lgv, matchings, minor_sums, peakon
from canadaday.cli import main
from canadaday.lemmas import lemma_report
from canadaday.exact_linalg import MinorLevel, k_subsets, random_symmetric
from canadaday.minor_sums import is_interlacing
from oracles import (
    minor,
    misreported_separations,
    permutation_sign,
    reference_rhs,
    reference_step,
)

STATE = Path(__file__).parent / "golden" / "state_6peakons.json"


@pytest.fixture(autouse=True)
def fault(monkeypatch):
    """`fault(name, replacement, *modules)` sets `name` in each module to
    the replacement, counting its calls.  After every test here, at least
    one fault must have been installed and each must have been called.  The
    check raises `pytest.fail`, which is no AssertionError, so that the
    strict xfails, each with `raises=AssertionError`, cannot absorb it."""
    calls = []

    def install(name, replacement, *modules):
        calls.append([name, 0])
        count = calls[-1]

        def counted(*args, **kwargs):
            count[1] += 1
            return replacement(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    yield install
    if not calls or not all(n for _, n in calls):
        pytest.fail(f"a fault the program never called: {calls}", pytrace=False)


def _swap_off_interlacing(levels):
    """The levels with two unequal nonzero minors swapped at non-interlacing
    (rows, cols) positions of each level 2 <= k < n that has them: the
    principal, total and interlacing sums of every level stay the same."""
    for level in levels:
        if 2 <= level.k < level.n:
            subsets = list(k_subsets(level.n, level.k))
            s = [list(row) for row in level.scaled]
            cells = [
                (r, c)
                for r, I in enumerate(subsets)
                for c, J in enumerate(subsets)
                if s[r][c] and not is_interlacing(I, J)
            ]
            other = [(r, c) for r, c in cells if s[r][c] != s[cells[0][0]][cells[0][1]]]
            if other:
                (r1, c1), (r2, c2) = cells[0], other[0]
                s[r1][c1], s[r2][c2] = s[r2][c2], s[r1][c1]
                level = MinorLevel(level.n, level.k, level.scale, tuple(map(tuple, s)))
        yield level


def _swap_minors(fault):
    real = exact_linalg.minor_levels
    fault("minor_levels", lambda m: _swap_off_interlacing(real(m)), minor_sums, lgv)


@pytest.fixture
def swapped_minors(empty_store, fault):
    """Row 1, from an empty store, so that every T table is built under it."""
    _swap_minors(fault)


def _run(capsys, argv):
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_bareiss_sees_the_swapped_minors(swapped_minors):
    x = random_symmetric(4, 7, 9)
    wrong = []
    for level in minor_sums.minor_levels(x):
        subsets = list(k_subsets(4, level.k))
        for r, I in enumerate(subsets):
            for c, J in enumerate(subsets):
                if Fraction(level.scaled[r][c], level.scale) != minor(x, I, J):
                    wrong.append(level.k)
    assert wrong == [2, 2, 3, 3]


def test_verify_lemmas_fails_the_t_minor_table(swapped_minors, capsys):
    code, doc = _run(capsys, ["verify-lemmas", "--n", "4"])
    assert code == 1
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["t_minor_three_way"]


def test_lgv_audit_shows_the_swapped_rows(swapped_minors, capsys):
    # the report names no check: its verdict is the table's agree column,
    # false on the two swapped cells of levels 2 and 3 (at k = 4 every
    # non-interlacing nonzero minor of T is 2, so nothing is swapped there)
    code, doc = _run(capsys, ["lgv-audit", "--n", "5"])
    assert code == 1
    assert [row["k"] for row in doc["table"] if not row["agree"]] == [2, 2, 3, 3]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the swap keeps every level's three sums; ROADMAP item 2's fibre check would see it",
)
def test_verify_theorem_fails_on_swapped_minors(swapped_minors, capsys):
    code, _ = _run(capsys, ["verify-theorem", "--n", "6", "--trials", "5"])
    assert code == 1


# Row 2: one non-interlacing orbit of each M_{n,k} with its signs negated.
# Such an orbit stays sign-balanced, its members keep their signs relative
# to each other, and its sum stays 0, so no orbit check and no sum moves.


@pytest.fixture
def negated_orbit(empty_store, fault):
    """Row 2, from an empty store, so that every orbit takes its signs
    under it; the patched matchings, as (n, edges)."""
    return _negate_orbits(fault)


def _negate_orbits(fault):
    """Patch `matchings.sign` to negate every member of the first
    non-interlacing orbit of each M_{n,k}, n <= 5; the patched matchings,
    as (n, edges)."""
    real = matchings.sign
    negated = set()
    for n in range(1, 6):
        for k in range(1, n + 1):
            orbits = matchings.partition_into_orbits(n, k)
            first = next((o for o in orbits if o.classification == "non-interlacing"), None)
            if first is not None:
                negated.update((n, m.edges) for m in first.members)
    fault("sign", lambda m: -real(m) if (m.n, m.edges) in negated else real(m), matchings)
    return negated


def test_negated_orbit_signs_disagree_with_permutation_parity(negated_orbit):
    members = [matchings.Matching(n, edges) for n, edges in negated_orbit]
    # for n <= 5, non-interlacing orbits exist at (4, 2), (5, 2) and (5, 3) only
    assert sorted({(m.n, m.k) for m in members}) == [(4, 2), (5, 2), (5, 3)]
    assert all(matchings.sign(m) == -permutation_sign(m) for m in members)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a negated orbit stays balanced; ROADMAP item 2's pair-by-pair check would see it",
)
@pytest.mark.parametrize(
    "argv", [["verify-lemmas", "--n", "4"], ["orbit-audit", "--n", "5", "--k", "3"]],
    ids=["verify-lemmas", "orbit-audit"],
)
def test_commands_fail_on_a_negated_orbit(negated_orbit, capsys, argv):
    code, _ = _run(capsys, argv)
    assert code == 1


@pytest.fixture
def filled_then_emptied(empty_store):
    """The store filled up to n = 4 by two lemma reports, then emptied."""
    assert lemma_report(4)["passed"] and lemma_report(4)["passed"]
    assert minor_sums._STORE[("t_minors", 4)] is not minor_sums._ASKED_ONCE
    assert all(o.signs for o in minor_sums._STORE[("partition", 4, 2)])
    minor_sums._forget()


def test_swapped_minors_after_the_store_was_filled_and_emptied(
    filled_then_emptied, fault, capsys
):
    _swap_minors(fault)
    code, doc = _run(capsys, ["verify-lemmas", "--n", "4"])
    assert code == 1
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["t_minor_three_way"]
    code, doc = _run(capsys, ["lgv-audit", "--n", "5"])
    assert code == 1
    assert [row["k"] for row in doc["table"] if not row["agree"]] == [2, 2, 3, 3]
    # survives, as the strict xfail above records
    assert _run(capsys, ["verify-theorem", "--n", "6", "--trials", "5"])[0] == 0


def test_negated_orbit_after_the_store_was_filled_and_emptied(
    filled_then_emptied, fault, capsys
):
    negated = _negate_orbits(fault)
    # survives, as the strict xfails above record
    assert _run(capsys, ["verify-lemmas", "--n", "4"])[0] == 0
    code, doc = _run(capsys, ["orbit-audit", "--n", "5", "--k", "3"])
    assert code == 0
    # the report carries the negated signs: the fault reached the command
    seen = [
        (sg, permutation_sign(matchings.Matching(5, tuple(map(tuple, m["edges"])))))
        for o in doc["orbits"]
        for m, sg in zip(o["members"], o["signs"])
        if (5, tuple(map(tuple, m["edges"]))) in negated
    ]
    assert len(seen) == 4 and all(sg == -parity for sg, parity in seen)


# Rows 3-5: the right-hand side of `peakon._step` changed, on the 6-peakon
# golden state at `--dt 1e-3 --t-end 1`.  The program's step fuses its
# right-hand side into the stage passes, so the fault runs the reference
# stepper, whose bits it keeps, with a scaled right-hand side.

PEAKON = ["peakon", "--state", str(STATE), "--dt", "1e-3", "--t-end", "1"]


def _patch_step(fault, scale_x, scale_m):
    """Step as the reference stepper does, with the x' half of its
    right-hand side multiplied by scale_x and the m' half by scale_m."""

    def rhs(x, m):
        k = reference_rhs(x, m)
        if k is None:
            return None
        return [scale_x * v for v in k[: len(x)]] + [scale_m * v for v in k[len(x) :]]

    fault("_step", lambda y, n, dt: reference_step(y, n, dt, rhs), peakon)


def _end_positions(t_end, dt=1e-3):
    return peakon.simulate(peakon.load_state(str(STATE)), dt, t_end).sampled_states[-1].x


def test_a_doubled_flow_runs_at_double_speed(fault):
    true_end = _end_positions(1.0, dt=2e-3)
    _patch_step(fault, 2.0, 2.0)
    assert np.allclose(_end_positions(0.5), true_end, rtol=1e-12, atol=0)


def test_a_negated_flow_runs_backwards(fault):
    start = peakon.load_state(str(STATE)).x
    assert (_end_positions(1.0) > start).all()
    _patch_step(fault, -1.0, -1.0)
    assert (_end_positions(1.0) < start).all()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a reparametrised flow keeps every H_k and |c_k| = H_k; "
    "ROADMAP item 4's flow residual would see it",
)
@pytest.mark.parametrize("scale", [2.0, -1.0], ids=["doubled", "negated"])
def test_peakon_fails_on_a_reparametrised_flow(fault, capsys, scale):
    _patch_step(fault, scale, scale)
    code, _ = _run(capsys, PEAKON)
    assert code == 1


def test_peakon_fails_when_only_m_prime_is_negated(fault, capsys):
    _patch_step(fault, 1.0, -1.0)
    code, doc = _run(capsys, PEAKON)
    assert code == 1
    # every part of the verdict fails: two peakons meet, H_1 .. H_6 drift,
    # and |c_k| leaves H_k, each by more than tol
    assert doc["status"] == "collision"
    assert [d > doc["tol"] for d in doc["max_rel_drift"]] == [True] * 6
    assert max(row["identity_gap"] for row in doc["samples"]) > doc["tol"]


# Row 6: `minor_sums.minor_levels` stops one level short, so every level
# k = n is lost and each cell that is checked still holds; only the count
# of cells against the closed-form grid sees the gap.


def test_verify_theorem_fails_when_the_minor_table_stops_one_level_short(fault, capsys):
    real = exact_linalg.minor_levels
    fault("minor_levels", lambda m: islice(real(m), m.rows - 1), minor_sums)
    code, doc = _run(capsys, ["verify-theorem", "--n", "6", "--trials", "2"])
    assert code == 1
    assert doc["witnesses"] == []
    assert doc["cell_count"] == 2 * (0 + 1 + 2 + 3 + 4 + 5)  # of 2 * (1 + 2 + ... + 6)


# Row 7: the X-free plan of the minor table with one cofactor sign flipped
# at level 2, so that the minors on the first column set {1, 2} are
# permanents there and every level above is wrong.  verify-theorem takes the
# principal sums of T@X from Berkowitz, not from the table, so the fast
# engine is not its own oracle; Bareiss sees the fault too.


@pytest.fixture
def flipped_sign(empty_store, fault):
    """Row 7, from an empty store, so that nothing built under it is kept."""
    real = exact_linalg._plan

    def plan(n, k):
        runs, cols = real(n, k)
        if k == 2:
            first = cols[0]  # its weight at column 0 is -|X_{H, {2}}|
            cols = (lambda ext: (-first(ext)[0], *first(ext)[1:]), *cols[1:])
        return runs, cols

    fault("_plan", plan, exact_linalg)


def test_bareiss_sees_the_flipped_sign(flipped_sign):
    x = random_symmetric(4, 7, 9)
    wrong = []
    for level in minor_sums.minor_levels(x):
        subsets = list(k_subsets(4, level.k))
        for r, I in enumerate(subsets):
            for c, J in enumerate(subsets):
                if Fraction(level.scaled[r][c], level.scale) != minor(x, I, J):
                    wrong.append((level.k, r, c))
    assert [(r, c) for k, r, c in wrong if k == 2] == [(r, 0) for r in range(6)]
    assert sorted({k for k, _, _ in wrong}) == [2, 3, 4]


def test_verify_theorem_fails_on_a_flipped_sign(flipped_sign, capsys):
    code, doc = _run(capsys, ["verify-theorem", "--n", "6", "--trials", "2"])
    assert code == 1
    assert doc["cell_count"] == 2 * (1 + 2 + 3 + 4 + 5 + 6)
    # every witness is a level the fault reaches, and every n >= 2 has one
    assert {w["k"] for w in doc["witnesses"]} == {2, 3, 4, 5, 6}
    assert {w["n"] for w in doc["witnesses"]} == {2, 3, 4, 5, 6}


# Row 8: every open cluster's separation shifted by 2.  The sign law and the
# orbit classification read only its parity, so every verdict stays true,
# and only the orbit-audit report's separations are wrong; the oracle that
# traces each member's clusters from its edges sees them.


@pytest.fixture
def shifted_separations(empty_store, fault):
    """Row 8, from an empty store, so that every partition and every kept
    template is built under it."""
    real = matchings._trace_clusters

    def trace(m):
        return tuple(
            dataclasses.replace(c, separation=c.separation + 2) if c.kind == "open" else c
            for c in real(m)
        )

    fault("_trace_clusters", trace, matchings)


def test_the_separation_oracle_sees_shifted_separations(shifted_separations, capsys):
    for _ in range(3):  # a cold, a keeping and a kept request
        code, doc = _run(capsys, ["orbit-audit", "--n", "5", "--k", "3"])
        assert code == 0
        wrong = misreported_separations(doc)
        # every member with an open cluster: all 600 but the 60 with I = J
        assert len(wrong) == 540
        for _, reported, true in wrong:
            assert {r - t for r, t in zip(reported, true)} <= {0, 2}
    assert minor_sums._STORE[("audit_text", 5, 3)] is not minor_sums._ASKED_ONCE
