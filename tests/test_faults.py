"""The fault table: each fault is a monkeypatch of one function, with the
commands that must catch it.  A caught fault exits 1 and names what failed;
a fault that a run-time verdict cannot see yet is a strict xfail naming the
ROADMAP item meant to catch it, so it flips when that item lands."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from canadaday import exact_linalg, lgv, matchings, minor_sums, peakon
from canadaday.cli import main
from canadaday.lemmas import lemma_report
from canadaday.exact_linalg import MinorLevel, k_subsets, random_symmetric
from canadaday.minor_sums import is_interlacing
from oracles import minor, permutation_sign

STATE = Path(__file__).parent / "golden" / "state_6peakons.json"


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


def _swap_minors(monkeypatch):
    real = exact_linalg.minor_levels
    for module in (minor_sums, lgv):
        monkeypatch.setattr(module, "minor_levels", lambda m: _swap_off_interlacing(real(m)))


@pytest.fixture
def swapped_minors(empty_store, monkeypatch):
    """Row 1, from an empty store, so that every T table is built under it."""
    _swap_minors(monkeypatch)


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
def negated_orbit(empty_store, monkeypatch):
    """Row 2, from an empty store, so that every orbit takes its signs
    under it; the patched matchings, as (n, edges)."""
    return _negate_orbits(monkeypatch)


def _negate_orbits(monkeypatch):
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
    monkeypatch.setattr(
        matchings, "sign", lambda m: -real(m) if (m.n, m.edges) in negated else real(m)
    )
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
    filled_then_emptied, monkeypatch, capsys
):
    _swap_minors(monkeypatch)
    code, doc = _run(capsys, ["verify-lemmas", "--n", "4"])
    assert code == 1
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["t_minor_three_way"]
    code, doc = _run(capsys, ["lgv-audit", "--n", "5"])
    assert code == 1
    assert [row["k"] for row in doc["table"] if not row["agree"]] == [2, 2, 3, 3]
    # survives, as the strict xfail above records
    assert _run(capsys, ["verify-theorem", "--n", "6", "--trials", "5"])[0] == 0


def test_negated_orbit_after_the_store_was_filled_and_emptied(
    filled_then_emptied, monkeypatch, capsys
):
    negated = _negate_orbits(monkeypatch)
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


# Rows 3-5: `peakon._rhs` changed, on the 6-peakon golden state at
# `--dt 1e-3 --t-end 1`.

PEAKON = ["peakon", "--state", str(STATE), "--dt", "1e-3", "--t-end", "1"]


def _patch_rhs(monkeypatch, scale_x, scale_m):
    """Multiply the x' half of `_rhs` by scale_x and the m' half by scale_m."""
    real = peakon._rhs

    def rhs(x, m):
        k = real(x, m)
        if k is None:
            return None
        return [scale_x * v for v in k[: len(x)]] + [scale_m * v for v in k[len(x) :]]

    monkeypatch.setattr(peakon, "_rhs", rhs)


def _end_positions(t_end, dt=1e-3):
    return peakon.simulate(peakon.load_state(str(STATE)), dt, t_end).sampled_states[-1].x


def test_a_doubled_flow_runs_at_double_speed(monkeypatch):
    true_end = _end_positions(1.0, dt=2e-3)
    _patch_rhs(monkeypatch, 2.0, 2.0)
    assert np.allclose(_end_positions(0.5), true_end, rtol=1e-12, atol=0)


def test_a_negated_flow_runs_backwards(monkeypatch):
    start = peakon.load_state(str(STATE)).x
    assert (_end_positions(1.0) > start).all()
    _patch_rhs(monkeypatch, -1.0, -1.0)
    assert (_end_positions(1.0) < start).all()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a reparametrised flow keeps every H_k and |c_k| = H_k; "
    "ROADMAP item 4's flow residual would see it",
)
@pytest.mark.parametrize("scale", [2.0, -1.0], ids=["doubled", "negated"])
def test_peakon_fails_on_a_reparametrised_flow(monkeypatch, capsys, scale):
    _patch_rhs(monkeypatch, scale, scale)
    code, _ = _run(capsys, PEAKON)
    assert code == 1


def test_peakon_fails_when_only_m_prime_is_negated(monkeypatch, capsys):
    _patch_rhs(monkeypatch, 1.0, -1.0)
    code, doc = _run(capsys, PEAKON)
    assert code == 1
    # every part of the verdict fails: two peakons meet, H_1 .. H_6 drift,
    # and |c_k| leaves H_k, each by more than tol
    assert doc["status"] == "collision"
    assert [d > doc["tol"] for d in doc["max_rel_drift"]] == [True] * 6
    assert max(row["identity_gap"] for row in doc["samples"]) > doc["tol"]
