"""The fault table: each fault is a monkeypatch of one function, with the
commands that must catch it.  A caught fault exits 1 and names what failed;
a fault that a run-time verdict cannot see yet is a strict xfail naming the
ROADMAP item meant to catch it, so it flips when that item lands."""

import json
from fractions import Fraction

import pytest

from canadaday import exact_linalg, lgv, minor_sums
from canadaday.cli import main
from canadaday.exact_linalg import MinorLevel, k_subsets, random_symmetric
from canadaday.minor_sums import is_interlacing
from oracles import minor


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


@pytest.fixture
def swapped_minors(monkeypatch):
    real = exact_linalg.minor_levels
    for module in (minor_sums, lgv):
        monkeypatch.setattr(module, "minor_levels", lambda m: _swap_off_interlacing(real(m)))


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
