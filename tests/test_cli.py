import copy
import dataclasses
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter, OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canadaday import cli, exact_linalg, lemmas, lgv, matchings, minor_sums, peakon
from canadaday.cli import main
from canadaday.exact_linalg import (
    ExactMatrix,
    JsonTemplate,
    MinorLevel,
    TemplatedList,
    child_seed,
    json_text,
    k_subsets,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    random_matrix,
    random_symmetric,
)
from canadaday.lemmas import lemma_report
from canadaday.matchings import orbit_audit
from canadaday.minor_sums import theorem_campaign
from canadaday.peakon import MAX_PEAKONS, MAX_WAVE_POINTS, load_state
from oracles import determinant, str_without_digit_limit

# A `python -m canadaday` child imports the package the way this process does.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def test_theorem_campaign_passes():
    doc = theorem_campaign(n_max=3, trials=4, seed=42, bound=9)
    assert doc["passed"]
    assert doc["part_b_inequality_count"] == 0
    assert doc["cell_count"] == 4 * (1 + 2 + 3)


def test_theorem_campaign_asymmetric_mode():
    doc = theorem_campaign(n_max=3, trials=10, seed=42, bound=9, asymmetric=True)
    assert doc["passed"]  # part (a) holds for any X
    assert doc["part_b_inequality_count"] > 0
    n3k2 = [c for c in doc["cells"] if c["n"] == 3 and c["k"] == 2 and not c["all_equal"]]
    assert n3k2  # witness that part (b) needs symmetry


def test_theorem_campaign_non_symmetric_draw_is_a_failing_cell(monkeypatch, capsys):
    # a draw that is not symmetric is the campaign's fault, not bad input:
    # its cells fail, with the matrix as witness
    monkeypatch.setattr(minor_sums, "random_symmetric", minor_sums.random_matrix)
    doc = theorem_campaign(n_max=3, trials=4, seed=42, bound=9)
    assert not doc["passed"] and doc["witnesses"]
    assert not any(matrix_from_json_dict(w["matrix"]).is_symmetric() for w in doc["witnesses"])
    # det T = 1, so at k = n all three sums are det X for any X: no such cell fails
    assert all(w["k"] < w["n"] for w in doc["witnesses"])
    assert main(["verify-theorem", "--n", "3", "--trials", "4"]) == 1
    assert capsys.readouterr().out.endswith("FAIL\n")


def test_lemma_suite_passes():
    doc = lemma_report(n_max=3)
    assert doc["passed"]
    assert [c["name"] for c in doc["checks"]] == [
        "t_minor_three_way",
        "matching_count",
        "weight_flip_invariance",
        "sign_flip_law",
        "orbit_structure",
        "grand_matching_sum",
    ]
    assert all(c == {"name": c["name"], "passed": True, "witness": None} for c in doc["checks"])
    assert lemmas.__all__ == ["lemma_report"]


def test_lemma_suite_corrupt_sign_hook():
    doc = lemma_report(n_max=2, corrupt_sign=True)
    assert not doc["passed"]
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["sign_flip_law"]
    assert failed[0]["witness"]["matching"]["edges"]


def test_lemma_suite_t_minor_witness_is_failing_audit_row(empty_store, monkeypatch):
    real_levels = lgv.minor_levels

    def shifted_levels(m):
        # every minor plus 1/2: (2 * scaled + scale) / (2 * scale)
        for level in real_levels(m):
            scaled = tuple(tuple(2 * v + level.scale for v in row) for row in level.scaled)
            yield MinorLevel(level.n, level.k, 2 * level.scale, scaled)

    monkeypatch.setattr(lgv, "minor_levels", shifted_levels)
    doc = lemma_report(n_max=2)
    (check,) = [c for c in doc["checks"] if not c["passed"]]
    assert check["name"] == "t_minor_three_way"
    assert check["witness"] == {
        "n": 1, "k": 1, "I": [1], "J": [1],
        "formula_value": 1, "det_value": 1, "lgv_count": 1, "agree": False,
    }


def test_lemma_suite_orbit_witnesses(monkeypatch):
    real = matchings.partition_into_orbits
    monkeypatch.setattr(matchings, "partition_into_orbits", lambda n, k: real(n, k)[1:])
    doc = lemma_report(n_max=2)
    failed = {c["name"]: c["witness"] for c in doc["checks"] if not c["passed"]}
    assert failed == {
        "orbit_structure": {"n": 1, "k": 0, "failed": ["orbits_partition_matchings"]},
        "grand_matching_sum": {
            "n": 1, "k": 0, "matching_sum": "0", "interlacing_S": "1", "all_minors": "1",
        },
    }


def _failed_witnesses(doc):
    return {c["name"]: c["witness"] for c in doc["checks"] if not c["passed"]}


def test_lemma_suite_matching_count_witness(empty_store, monkeypatch):
    real = lemmas.enumerate_matchings

    def dropping(n, k):
        it = real(n, k)
        if (n, k) == (2, 1):
            next(it)  # lose the first of the four matchings of M_{2,1}
        return it

    monkeypatch.setattr(lemmas, "enumerate_matchings", dropping)
    assert _failed_witnesses(lemma_report(n_max=3)) == {
        "matching_count": {"n": 2, "k": 1, "count": 3, "expected": 4},
    }


def _kept_keys() -> set:
    return {key for key, v in minor_sums._STORE.items() if v is not minor_sums._ASKED_ONCE}


# What two lemma reports up to n = 4 keep: each orbit partition (with its
# orbits' signs and flip images), each enumeration count and each T table.
KEPT_BY_TWO_REPORTS = {
    *(("partition", n, k) for n in range(1, 5) for k in range(n + 1)),
    *(("enumerated", n, k) for n in range(1, 5) for k in range(n + 1)),
    *(("t_minors", n) for n in range(1, 5)),
}


def _fill_store():
    minor_sums._forget()
    assert lemma_report(n_max=4)["passed"] and lemma_report(n_max=4)["passed"]
    assert _kept_keys() == KEPT_BY_TWO_REPORTS


@pytest.fixture(params=["cold", "kept"])
def partition_store(request, empty_store):
    """The store of size-only results before a weight fault is patched in:
    empty, or filled up to n = 4 by two earlier lemma reports.  The store
    keeps nothing that depends on X, so a weight fault must give the same
    witness either way."""
    if request.param == "kept":
        _fill_store()


@pytest.fixture(params=["cold", "kept"])
def emptied_store(request, empty_store):
    """An empty store before a sign, flip, enumeration or T-table fault is
    patched in, which the store would otherwise hand back unpatched: empty
    from the start, or filled up to n = 4 by two lemma reports and then
    emptied.  Either way every kept result is built afresh, under the
    fault."""
    if request.param == "kept":
        _fill_store()
        minor_sums._forget()


def test_lemma_suite_weight_invariance_witness(partition_store, monkeypatch):
    real = matchings.scaled_weight
    # adds the column of the first edge, which a flip moves; X has integer
    # entries, so d = 1 and the scaled weight is the weight itself
    monkeypatch.setattr(
        matchings, "scaled_weight", lambda m, rows: real(m, rows) + (m.edges[0][1] if m.k else 0)
    )
    assert _failed_witnesses(lemma_report(n_max=3)) == {
        "weight_flip_invariance": {
            "n": 2, "matching": {"n": 2, "edges": [[1, 2]]}, "i": 1, "j": 2,
        },
        "orbit_structure": {"n": 2, "k": 1, "failed": ["weight_constant_on_orbits"]},
        "grand_matching_sum": {
            "n": 1, "k": 1, "matching_sum": "-5", "interlacing_S": "-6", "all_minors": "-6",
        },
    }


def test_lemma_suite_sign_flip_law_witness(emptied_store, monkeypatch):
    # a sign that ignores crossings breaks the law first at an odd separation
    monkeypatch.setattr(matchings, "sign", lambda m: 1)
    assert _failed_witnesses(lemma_report(n_max=4)) == {
        "sign_flip_law": {
            "n": 4, "matching": {"n": 4, "edges": [[1, 3], [2, 4]]}, "i": 1, "j": 3,
            "separation": 1,
        },
        "orbit_structure": {"n": 4, "k": 2, "failed": ["non_interlacing_orbits_balanced"]},
        "grand_matching_sum": {
            "n": 2, "k": 2, "matching_sum": "12", "interlacing_S": "4", "all_minors": "4",
        },
    }


def test_lemma_suite_weight_fault_and_corrupt_sign_keep_own_witnesses(monkeypatch):
    real = matchings.scaled_weight
    monkeypatch.setattr(
        matchings,
        "scaled_weight",
        lambda m, rows: real(m, rows) + (m.edges[0][1] if m.k == 2 else 0),
    )
    assert _failed_witnesses(lemma_report(n_max=3, corrupt_sign=True)) == {
        "weight_flip_invariance": {
            "n": 3, "matching": {"n": 3, "edges": [[1, 2], [3, 1]]}, "i": 1, "j": 2,
        },
        "sign_flip_law": {
            "n": 2, "matching": {"n": 2, "edges": [[1, 2]]}, "i": 1, "j": 2, "separation": 0,
        },
        "orbit_structure": {"n": 3, "k": 2, "failed": ["weight_constant_on_orbits"]},
        "grand_matching_sum": {
            "n": 2, "k": 2, "matching_sum": "3", "interlacing_S": "4", "all_minors": "4",
        },
    }


def test_lemma_suite_missing_flip_image_fails_flip_checks(monkeypatch):
    real = matchings.partition_into_orbits

    def dropping(n, k):
        orbits = list(real(n, k))  # a copy: the real partition may be kept and shared
        if (n, k) == (2, 1):
            o = orbits[1]
            assert [m.edges for m in o.members] == [((1, 2),), ((2, 1),)]
            # lose ((2, 1),), the image of ((1, 2),) under f_12
            orbits[1] = dataclasses.replace(o, members=o.members[:1], signs=o.signs[:1])
        return orbits

    monkeypatch.setattr(matchings, "partition_into_orbits", dropping)
    assert _failed_witnesses(lemma_report(n_max=2)) == {
        "weight_flip_invariance": {
            "n": 2, "matching": {"n": 2, "edges": [[1, 2]]}, "i": 1, "j": 2,
        },
        "sign_flip_law": {
            "n": 2, "matching": {"n": 2, "edges": [[1, 2]]}, "i": 1, "j": 2, "separation": 0,
        },
        "orbit_structure": {
            "n": 2, "k": 1, "failed": ["orbits_partition_matchings", "orbit_sizes_match_p"],
        },
        "grand_matching_sum": {
            "n": 2, "k": 1, "matching_sum": "7", "interlacing_S": "5", "all_minors": "5",
        },
    }


def test_lemma_suite_work_counts(empty_store, monkeypatch):
    # brute force, before anything is wrapped: every matching of n <= 4, and
    # the least generator f_ij of each of its open clusters
    all_matchings = [
        m for n in range(1, 5) for k in range(n + 1) for m in matchings.enumerate_matchings(n, k)
    ]
    assert len(all_matchings) == 252
    least_generators = [
        (m.n, m.edges, min((min(e), max(e)) for e in c.edges))
        for m in all_matchings
        for c in matchings.decompose_clusters(m)
        if c.kind == "open"
    ]
    assert len(least_generators) == 176

    calls = Counter()

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name, key(*args)] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(lemmas, "orbit_sum_identity", lambda x, k: (x.rows, k))
    counting(lemmas, "enumerate_matchings", lambda n, k: (n, k))
    counting(lemmas, "random_symmetric", lambda n, seed, bound: n)
    counting(matchings, "flip", lambda m, i, j: (m.n, m.edges, (i, j)))
    counting(matchings, "sign", lambda m: (m.n, m.edges))
    counting(matchings, "scaled_weight", lambda m, rows: (m.n, m.edges))
    assert lemma_report(n_max=4)["passed"]

    def made(name):
        return Counter({key: c for (called, key), c in calls.items() if called == name})

    cells = [(n, k) for n in range(1, 5) for k in range(n + 1)]
    assert made("orbit_sum_identity") == Counter(cells)
    assert made("enumerate_matchings") == Counter(cells)
    assert made("random_symmetric") == Counter(range(1, 5))
    # each matching's sign and weight taken once, in the orbit-sum report
    assert made("sign") == made("scaled_weight") == Counter((m.n, m.edges) for m in all_matchings)
    # one flip per (member, open cluster)
    assert made("flip") == Counter(least_generators)


def test_lemma_suite_walks_each_matching_set_once(empty_store, monkeypatch):
    # brute force, before `flip` is wrapped: the generators i < j that move
    # each k-edge matching, k >= 1
    acting = {
        (m.edges, n, i, j)
        for n in range(1, 4)
        for k in range(1, n + 1)
        for m in matchings.enumerate_matchings(n, k)
        for i, j in combinations(range(1, n + 1), 2)
        if matchings.flip(m, i, j) != m
    }
    assert len(acting) == 26

    walked, flipped, t_tables, x_tables = Counter(), Counter(), Counter(), Counter()

    def counting(module, name, counter, key):
        real = getattr(module, name)

        def wrapper(*args):
            counter[key(*args)] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(lemmas, "enumerate_matchings", walked, lambda n, k: (n, k))
    counting(matchings, "flip", flipped, lambda m, i, j: (m.edges, m.n, i, j))
    # lgv takes minor tables of T only, minor_sums those of X only
    counting(lgv, "minor_levels", t_tables, lambda m: m.rows)
    counting(minor_sums, "minor_levels", x_tables, lambda m: m.rows)

    def run():
        for counter in (walked, flipped, t_tables, x_tables):
            counter.clear()
        assert lemma_report(n_max=3)["passed"]
        return Counter(walked), Counter(flipped), Counter(t_tables), Counter(x_tables)

    first = run()
    assert walked == Counter({(n, k): 1 for n in range(1, 4) for k in range(n + 1)})
    # at most one flip per acting generator of each k-edge matching, and
    # every matching that some generator moves is flipped
    assert set(flipped.values()) == {1}
    assert set(flipped) <= acting
    assert {key[:2] for key in flipped} == {key[:2] for key in acting}
    assert t_tables == Counter({1: 1, 2: 1, 3: 1})
    # one table of X per k >= 1
    assert x_tables == Counter({1: 1, 2: 2, 3: 3})
    # the second run asks for each size again, builds it as the first did,
    # and keeps it; the third takes every size-only input from the store
    assert run() == first
    assert run() == (Counter(), Counter(), Counter(), first[3])


@settings(max_examples=100, deadline=None)
@given(
    n_max=st.integers(min_value=1, max_value=3),
    seed=st.integers(),
    bound=st.integers(min_value=0, max_value=20),
)
@example(n_max=3, seed=42, bound=0)  # the zero matrix
def test_lemma_suite_passes_for_any_seed_and_bound(n_max, seed, bound):
    assert lemma_report(n_max, seed, bound)["passed"]


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())


def _templated(rows: list, slots: tuple, indent: str, edit=None):
    """`rows` as a `TemplatedList` whose template, made at `indent`, is
    taken from a copy of `rows` in which `edit`, if given, is undone: the
    list holds `edit(rows)`.  Rows that a template refuses (a fixed value
    holding the sentinel's text) stay a plain list."""
    try:
        template = JsonTemplate(copy.deepcopy(rows), slots, indent)
    except ValueError:
        return rows
    return TemplatedList(rows if edit is None else edit(rows), template)


# Each edit of a row that a template must not write as it was: a slot
# value, a slot count, key order, a non-str slot, a fixed value and a type.
_EDITS = [
    lambda rows: [{**r, k: "new" if type(v) is str else v} for r in rows for k, v in [r.popitem()]],
    lambda rows: [{**r, k: [*v, "x"] if type(v) is list else [v]} for r in rows for k, v in [r.popitem()]],
    lambda rows: [dict(reversed(r.items())) for r in rows],
    lambda rows: [{**r, k: 0} for r in rows for k, v in [r.popitem()]],
    lambda rows: [{k: [v] if i == 0 else v for i, (k, v) in enumerate(r.items())} for r in rows],
    lambda rows: [dict(r) for r in rows] + [{}],
]


@st.composite
def _templated_lists(draw, values):
    """A list of dicts that share their keys, some of them slots, as a
    `TemplatedList` at a drawn indent, perhaps with one of `_EDITS`."""
    keys = draw(st.lists(st.text(), min_size=2, max_size=4, unique=True))
    slots = tuple(draw(st.permutations(keys))[: draw(st.integers(1, len(keys) - 1))])
    lengths = {key: draw(st.one_of(st.none(), st.integers(0, 3))) for key in slots}
    slot = {
        key: st.text() if size is None else st.lists(st.text(), min_size=size, max_size=size)
        for key, size in lengths.items()
    }
    rows = draw(
        st.lists(st.fixed_dictionaries({key: slot.get(key, values) for key in keys}), min_size=1)
    )
    edit = draw(st.one_of(st.none(), st.sampled_from(_EDITS)))
    return _templated(rows, slots, "  " * draw(st.integers(0, 3)), edit)


_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_JSON_KEYS, inner),
        _templated_lists(inner),
    ),
    max_leaves=25,
)


def _nested(value, depth: int):
    """`value` inside `depth` containers, a list and a dict in turn."""
    for level in range(depth):
        value = [1, value] if level % 2 else {"v": value, "w": "x"}
    return value


# Orbit-audit entries: the weights and the orbit sum are the slots.
_ORBITS = [
    {
        "classification": "non-interlacing",
        "members": [{"n": 3, "edges": ((1, 2), (2, 3))}, {"n": 3, "edges": ((1, 2), (3, 2))}],
        "signs": (1, -1),
        "separations": [[1, 0], []],
        "weights": ["3/4", "-2"],
        "orbit_sum": "0",
    },
    {
        "classification": "interlacing",
        "members": [{"n": 3, "edges": ((1, 1),)}],
        "signs": (1,),
        "separations": [[]],
        "weights": ["5"],
        "orbit_sum": "5",
    },
]
_SLOTS = ("weights", "orbit_sum")


def _orbits_at(depth: int) -> TemplatedList:
    """`_ORBITS` as a `TemplatedList` made for the indent of `depth`."""
    return _templated(copy.deepcopy(_ORBITS), _SLOTS, "  " * depth)


_DEPTHS = random.Random(30).sample(range(1, 9), 4)


class _Level(IntEnum):
    A = 1


class _Name(str):
    pass


# The renderer writes an item of exact type str or int inline, and sends
# every other scalar through its dispatch: json.dumps writes _Level.A as 1,
# where repr would give <_Level.A: 1>.
_MIXED = [True, False, None, 1, 1.5, "x", _Level.A, _Name("y")]


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example(_MIXED)
@example({f"v{i}": v for i, v in enumerate(_MIXED)})
@example({_Level.A: _MIXED, _Name("k"): {"e": _Level.A, "s": _Name("s")}, "": [_MIXED]})
@example({"é\u2603": ["\n\t\"\\\x00", -0.0, math.nan, math.inf, -math.inf, 10**30]})
@example({1: [], 2.5: {}, None: (), True: [[]], False: {"": ""}, -0.0: math.nan})
@example([])
@example({})
@example(OrderedDict(a=Fraction(1, 2).as_integer_ratio(), b=[OrderedDict()]))
@example(_orbits_at(0))
@example(_nested(_orbits_at(_DEPTHS[0]), _DEPTHS[0]))
@example(_nested([_orbits_at(2), _nested(_orbits_at(_DEPTHS[1]), _DEPTHS[1])], _DEPTHS[2]))
@example(_nested({"a": _nested(_orbits_at(_DEPTHS[3]), _DEPTHS[3]), "b": _orbits_at(1)}, 3))
@example([_orbits_at(0), _orbits_at(1), _templated([{"a": {}, "b": []}], ("b",), "  ")])
@example({"s": _templated([{1: _MIXED, "t": _nested("\n", 4), "u": "\n"}], ("u",), "  ")})
@example({"s": _templated([{1: [True, 1.5], "t": _nested("\n", 4), "u": "\n"}], ("u",), "  ")})
@example([_templated([{"a": '"\x00', "b": "\x00"}], ("b",), "  ")])
def test_json_text_matches_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_keys_json_dumps_refuses():
    with pytest.raises(TypeError):
        json.dumps({(1, 2): 0}, indent=2)
    with pytest.raises(TypeError):
        json_text({(1, 2): 0})


def test_a_templated_list_is_its_plain_list_and_writes_each_edit():
    orbits = _orbits_at(0)
    plain = list(orbits)
    assert orbits == plain == _ORBITS and type(plain) is list
    assert json.dumps(orbits) == json.dumps(plain)
    assert orbits.template.text(orbits, "") == json.dumps(plain, indent=2)
    assert orbits.template.text(orbits, "  ") is None  # made for another depth

    def edited(change) -> TemplatedList:
        edited = _orbits_at(0)
        change(edited[0])
        return edited

    for change in (
        lambda e: e.update(classification="interlacing"),  # an X-free value
        lambda e: e.update(signs=(True, -1)),  # == to (1, -1), written as true
        lambda e: e["members"][1].update(n=3.0),  # == to 3, written as 3.0
        lambda e: e["weights"].__setitem__(0, "7"),  # a weight value
        lambda e: e["weights"].append("7"),  # a weight count
        lambda e: e.update(signs=e.pop("signs")),  # key order
        lambda e: e["members"].__setitem__(0, dict(reversed(e["members"][0].items()))),
        lambda e: e["weights"].__setitem__(1, -2),  # a weight that is not a str
    ):
        orbits = edited(change)
        assert json_text(orbits) == json.dumps(orbits, indent=2)
    # Only a new slot value keeps the template's text; every other edit is
    # rendered as a plain list.
    orbits = edited(lambda e: e["weights"].__setitem__(0, "7"))
    assert orbits.template.text(orbits, "") is not None
    orbits = edited(lambda e: e.update(signs=(True, -1)))
    assert orbits.template.text(orbits, "") is None


def test_a_template_refuses_rows_it_cannot_write():
    for rows, slots in (
        ([], ("a",)),  # no row
        ([{"a": "x"}], ("a",)),  # no fixed key
        ([{"a": 1, "b": "x"}], ("c",)),  # a slot key no row has
        ([{"a": 1, "b": 2}], ("b",)),  # a slot value that is not a str
        ([{"a": 1, "b": "x"}, {"b": "y", "a": 1}], ("b",)),  # keys out of order
        ([{"a": '"\x00', "b": "x"}], ("b",)),  # a fixed value with the sentinel's text
    ):
        with pytest.raises(ValueError):
            JsonTemplate(rows, slots, "")


def test_lemma_suite_full_n4():
    doc = lemma_report(n_max=4)
    assert doc["passed"]


def test_orbit_audit_n3_k2_partitions_all_matchings():
    doc = orbit_audit(random_symmetric(3, 2, 9), 2)
    assert doc["passed"]
    assert doc["orbit_count"] == 12
    assert sum(len(o["members"]) for o in doc["orbits"]) == 18


def test_orbit_audit_n2_k2():
    doc = orbit_audit(random_symmetric(2, 1, 9), 2)
    assert doc["passed"]
    assert doc["orbit_count"] == 2
    members = [m for o in doc["orbits"] for m in o["members"]]
    assert len(members) == 2  # C(2,2)^2 * 2! matchings in total
    assert doc["totals"]["non_interlacing_orbit_sum"] == "0"


def test_orbit_audit_k0():
    doc = orbit_audit(random_symmetric(3, 1, 9), 0)
    assert doc["orbit_count"] == 1
    assert doc["orbits"][0]["members"] == [{"n": 3, "edges": ()}]
    assert doc["passed"]


def test_lgv_audit():
    doc = lgv.audit(4)
    assert doc["passed"]
    assert doc["pair_count"] == 69  # sum over k of C(4,k)^2


def test_main_lgv_audit_size_guard(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("built a network past the size guard")

    monkeypatch.setattr(lgv, "build_network", refuse)
    assert main(["lgv-audit", "--n", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the guard 12" in captured.err


@pytest.mark.parametrize(
    "argv,heavy",
    [
        (["verify-theorem", "--n", "13", "--trials", "1"],
         [f"minor_sums.{name}" for name in
          ("random_symmetric", "random_matrix", "minor_levels", "integer_char_poly")]),
        (["verify-lemmas", "--n", "13"],
         [f"lemmas.{name}" for name in
          ("random_symmetric", "orbit_sum_identity", "audit_table", "enumerate_matchings")]),
    ],
    ids=["verify-theorem", "verify-lemmas"],
)
def test_main_campaign_size_guard_checked_first(monkeypatch, capsys, argv, heavy):
    def refuse(*args, **kwargs):
        raise AssertionError("did work before checking the size guard")

    for name in heavy:
        monkeypatch.setattr(f"canadaday.{name}", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the guard 12" in captured.err


# What each exhaustive route does after its size gate: any call refuses.
_AFTER_THE_GATE = [
    "minor_sums.check_entry_bits", "minor_sums.random_symmetric", "minor_sums.random_matrix",
    "minor_sums.minor_levels", "lemmas.check_entry_bits", "lemmas.check_walk", "lemmas.kept",
    "lemmas.audit_table", "lemmas.orbit_sum_identity", "matchings.check_walk", "matchings.kept",
    "matchings._edge_tuples", "lgv.check_walk", "lgv.kept", "lgv.build_network",
]


def _refuse_work_after_the_gate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("did work before the size gate")

    for name in _AFTER_THE_GATE:
        monkeypatch.setattr(f"canadaday.{name}", refuse)


@pytest.mark.parametrize("command", ["verify-theorem", "verify-lemmas", "lgv-audit"])
@pytest.mark.parametrize(
    "n,message",
    [("0", "n must be >= 1, got 0"), ("-2", "n must be >= 1, got -2"),
     ("13", "n=13 exceeds the guard 12")],
)
def test_main_size_gate_refuses_before_any_work(monkeypatch, capsys, command, n, message):
    _refuse_work_after_the_gate(monkeypatch)
    assert main([command, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "route",
    [
        lambda n: theorem_campaign(n, trials=1),
        lemma_report,
        lambda n: matchings.partition_into_orbits(n, 1),
        lgv.audit_table,
    ],
    ids=["theorem_campaign", "lemma_report", "partition_into_orbits", "audit_table"],
)
@pytest.mark.parametrize(
    "n,message",
    [(True, "an index must be an integer, got True"),
     (1.5, "an index must be an integer, got 1.5"),
     (0, "n must be >= 1, got 0"),
     (13, "n=13 exceeds the guard 12")],
)
def test_size_gate_refuses_before_any_work(monkeypatch, route, n, message):
    _refuse_work_after_the_gate(monkeypatch)
    with pytest.raises(ValueError) as refused:
        route(n)
    assert str(refused.value) == message


def test_size_gate_returns_the_int_of_a_numpy_int():
    n = minor_sums.check_size_guard(np.int64(3))
    assert type(n) is int and n == 3
    doc = theorem_campaign(np.int64(2), trials=1)
    assert type(doc["config"]["n_max"]) is int
    assert doc == theorem_campaign(2, trials=1)


# The real work of both campaigns, past their integer arguments.
_CAMPAIGN_WORK = [
    "minor_sums.random_symmetric", "minor_sums.random_matrix", "minor_sums.minor_levels",
    "lemmas.check_walk", "lemmas.kept", "lemmas.audit_table", "lemmas.orbit_sum_identity",
]


@pytest.mark.parametrize("value", [True, 2.5, 2.0])
@pytest.mark.parametrize(
    "route",
    [
        lambda v: theorem_campaign(2, trials=v),
        lambda v: theorem_campaign(2, trials=1, seed=v),
        lambda v: theorem_campaign(2, trials=1, bound=v),
        lambda v: lemma_report(2, seed=v),
        lambda v: lemma_report(2, bound=v),
        # the suite called positionally, as `cli._lemmas` calls it
        lambda v: lemma_report(2, v, 9, False),
        lambda v: lemma_report(2, 42, v, False),
        lambda v: minor_sums.check_entry_bits(v, "the entry bound"),
    ],
    ids=[
        "campaign-trials", "campaign-seed", "campaign-bound", "report-seed", "report-bound",
        "suite-seed", "suite-bound", "check_entry_bits",
    ],
)
def test_integer_arguments_refuse_a_bool_or_float_before_any_work(monkeypatch, route, value):
    # Unchecked, True would run as 1, 2.5 would seed a run or fail inside
    # the bit cap, and 2.0 would fail inside range.
    def refuse(*args, **kwargs):
        raise AssertionError("did work before checking the integer arguments")

    for name in _CAMPAIGN_WORK:
        monkeypatch.setattr(f"canadaday.{name}", refuse)
    with pytest.raises(ValueError) as refused:
        route(value)
    assert str(refused.value) == f"an index must be an integer, got {value!r}"


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.True_])
@pytest.mark.parametrize(
    "route,name",
    [
        (lambda v: theorem_campaign(2, trials=1, asymmetric=v), "asymmetric"),
        (lambda v: lemma_report(2, corrupt_sign=v), "corrupt_sign"),
        (lambda v: lemma_report(2, 42, 9, v), "corrupt_sign"),  # positionally
        (lambda v: minor_sums.verify_canada_day(
            random_symmetric(2, 1, 9), 1, allow_asymmetric=v), "allow_asymmetric"),
    ],
    ids=["campaign-asymmetric", "report-corrupt_sign", "suite-corrupt_sign", "verify-asymmetric"],
)
def test_flags_refuse_anything_but_a_bool_before_any_work(monkeypatch, route, name, value):
    # Unchecked, "no" would run in asymmetric mode or corrupt a sign, and
    # go into the report's config as "no".
    def refuse(*args, **kwargs):
        raise AssertionError("did work before checking the flags")

    for work in [*_CAMPAIGN_WORK, "minor_sums.level_sums"]:
        monkeypatch.setattr(f"canadaday.{work}", refuse)
    with pytest.raises(ValueError) as refused:
        route(value)
    assert str(refused.value) == f"{name} must be True or False, got {value!r}"


def test_integer_arguments_take_the_int_of_a_numpy_int():
    assert type(minor_sums.check_entry_bits(np.int64(9), "the entry bound")) is int
    doc = theorem_campaign(2, trials=np.int64(1), seed=np.int64(42), bound=np.int64(9))
    assert [type(doc["config"][key]) for key in ("trials", "seed", "bound")] == [int] * 3
    assert doc == theorem_campaign(2, trials=1)
    rep = lemma_report(np.int64(2), seed=np.int64(42), bound=np.int64(9))
    assert [type(rep["config"][key]) for key in ("n_max", "seed", "bound")] == [int] * 3
    assert rep == lemma_report(2)


def test_lemma_report_checks_each_input_once(monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(lemmas, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(lemmas, name, wrapper)

    for name in ("check_size_guard", "check_entry_bits", "check_flag"):
        counting(name)
    for corrupt_sign in (False, True):
        calls.clear()
        lemma_report(2, 42, 9, corrupt_sign)
        assert calls == {"check_size_guard": 1, "check_entry_bits": 1, "check_flag": 1}


_M2 = matchings.Matching(2, ((1, 2),))
_M3 = matchings.Matching(3, ((1, 2),))


@pytest.mark.parametrize("value", [True, 2.0, np.int64(2)], ids=["True", "2.0", "numpy-2"])
@pytest.mark.parametrize(
    "route",
    [
        lambda v: list(peakon.wave_grid(-1.0, 1.0, v)),
        lambda v: matchings.flip(_M2, 1, v),
        lambda v: matchings.flip(_M3, v, 3),
        exact_linalg.t_matrix,
        lambda v: child_seed(v, 1),
        lambda v: child_seed(1, v),
        lambda v: random_symmetric(v, 1, 9),
        lambda v: random_symmetric(2, v, 9),
        lambda v: random_symmetric(2, 1, v),
        lambda v: random_matrix(v, 1, 9),
        lambda v: list(k_subsets(v, 1)),
        lambda v: list(k_subsets(3, v)),
        lambda v: matchings.matching_count(v, 1),
        lambda v: matchings.matching_count(3, v),
        lambda v: list(matchings.enumerate_matchings(v, 1)),
        lgv.build_network,
        lgv.audit,
    ],
    ids=[
        "wave_grid", "flip-j", "flip-i", "t_matrix", "child_seed-seed", "child_seed-part",
        "random_symmetric-n", "random_symmetric-seed",
        "random_symmetric-bound", "random_matrix", "k_subsets-n", "k_subsets-k",
        "matching_count-n", "matching_count-k", "enumerate_matchings", "build_network", "audit",
    ],
)
def test_library_integers_go_through_as_index(route, value):
    # Unchecked, True would run as 1 and 2.0 would fail inside range.
    if isinstance(value, np.integer):
        # the repr of a result that holds a numpy int shows it
        assert repr(route(value)) == repr(route(2))
        return
    with pytest.raises(ValueError) as refused:
        route(value)
    assert str(refused.value) == f"an index must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "argv,heavy,count,cap",
    [
        (["orbit-audit", "--n", "12", "--k", "6"],
         [f"matchings.{name}" for name in
          ("_edge_tuples", "enumerate_matchings", "orbit", "level_sums")],
         614_718_720, "MAX_WALK = 250000"),
        (["orbit-audit", "--n", "8", "--k", "5"],
         [f"matchings.{name}" for name in
          ("_edge_tuples", "enumerate_matchings", "orbit", "level_sums")],
         376_320, "MAX_WALK = 250000"),
        (["verify-lemmas", "--n", "12"],
         [f"lemmas.{name}" for name in
          ("random_symmetric", "orbit_sum_identity", "audit_table", "enumerate_matchings")],
         56_993_634_220, "MAX_WALK = 250000"),
        (["verify-lemmas", "--n", "8"],
         [f"lemmas.{name}" for name in
          ("random_symmetric", "orbit_sum_identity", "audit_table", "enumerate_matchings")],
         1_587_776, "MAX_WALK = 250000"),
        (["lgv-audit", "--n", "12"],
         [f"lgv.{name}" for name in
          ("build_network", "minor_levels", "_paths_from", "count_disjoint_families")],
         2_704_155, "MAX_WALK = 250000"),
        (["lgv-audit", "--n", "11"],
         [f"lgv.{name}" for name in
          ("build_network", "minor_levels", "_paths_from", "count_disjoint_families")],
         705_431, "MAX_WALK = 250000"),
    ],
    ids=["orbit-audit", "orbit-audit-n8-k5", "verify-lemmas", "verify-lemmas-n8", "lgv-audit",
         "lgv-audit-n11"],
)
def test_main_walk_cap_checked_first(monkeypatch, capsys, argv, heavy, count, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the walk cap")

    for name in heavy:
        monkeypatch.setattr(f"canadaday.{name}", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{count} " in captured.err and f"over the cap {cap}" in captured.err


def test_lemma_walk_cap_admits_no_inner_refusal():
    # Every n_max that MAX_WALK admits for a lemma walk admits each partition
    # and table the walk is made of, so no walk is refused half done.
    cap = minor_sums.MAX_WALK
    admitted = [
        n_max for n_max in range(1, 13)
        if sum(matchings.matching_count(n, k) for n in range(1, n_max + 1) for k in range(n + 1))
        <= cap
    ]
    assert admitted == list(range(1, 8))
    for n in admitted:
        assert math.comb(2 * n, n) - 1 <= cap
        assert all(matchings.matching_count(n, k) <= cap for k in range(n + 1))


def test_main_verify_theorem_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        ["verify-theorem", "--n", "2", "--trials", "3", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_main_corrupt_sign_exits_nonzero(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        ["verify-lemmas", "--n", "2", "--corrupt-sign", "--format", "json", "--out", str(out)]
    )
    assert rc == 1
    doc = json.loads(out.read_text())
    assert not doc["passed"]


def test_main_peakon_roundtrip(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": [-1.0, 1.0], "m": [1.0, 2.0]}))
    out = tmp_path / "report.json"
    wave = tmp_path / "wave.csv"
    rc = main(
        [
            "peakon",
            "--state", str(state),
            "--dt", "1e-2",
            "--t-end", "0.5",
            "--tol", "1e-6",
            "--format", "json",
            "--out", str(out),
            "--wave-out", str(wave),
            "--wave-points", "11",
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    assert doc["passed"] is True
    lines = wave.read_text().strip().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 11 * len(doc["samples"])


def test_main_peakon_three_peakon_run(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": [-5.0, 0.0, 3.0], "m": [1.0, 2.0, 0.5]}))
    rc = main(
        [
            "peakon",
            "--state", str(state),
            "--dt", "1e-3",
            "--t-end", "2",
            "--tol", "1e-7",
            "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert rc == 0


def test_main_peakon_drift_breach_exits_one(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": [-1.0, 1.0], "m": [1.0, 2.0]}))
    out = tmp_path / "report.json"
    rc = main(
        [
            "peakon",
            "--state", str(state),
            "--dt", "0.2",
            "--t-end", "2",
            "--tol", "1e-12",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert json.loads(out.read_text())["passed"] is False  # report retained


def test_main_peakon_identity_gap_breach_exits_one(tmp_path, monkeypatch):
    # coefficients off by 1e-6 relative leave the drift alone but open the
    # gap between |c_k| and H_k past --tol
    exact = peakon.char_poly_coefficients
    monkeypatch.setattr(peakon, "char_poly_coefficients", lambda s: exact(s) * (1 + 1e-6))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": [-1.0, 1.0], "m": [1.0, 2.0]}))
    out = tmp_path / "report.json"
    argv = ["peakon", "--state", str(state), "--t-end", "0.1", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok" and max(doc["max_rel_drift"]) <= doc["tol"]
    assert doc["passed"] is False
    assert all(1e-7 < row["identity_gap"] < 2e-6 for row in doc["samples"])


def test_main_peakon_unsorted_positions_is_input_error(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": [1.0, -1.0], "m": [1.0, 2.0]}))
    assert main(["peakon", "--state", str(state)]) == 2


GOOD_STATE = '{"x": [-1.0, 1.0], "m": [1.0, 2.0]}'
# nested past the recursion limit, where json.load raises RecursionError
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "state,argv",
    [
        ('{"x": [0.0, Infinity], "m": [1.0, 1.0]}', ["peakon"]),
        ('{"x": [0.0, 1.0], "m": [1.0, Infinity]}', ["peakon"]),
        ('{"t": NaN, "x": [0.0, 1.0], "m": [1.0, 1.0]}', ["peakon"]),
        ("[[0.0, 1.0], [1.0, 1.0]]", ["peakon"]),
        ('{"x": [0.0, 1.0], "m": [true, 1.0]}', ["peakon"]),
        ('{"x": [0.0, "1"], "m": [1.0, 1.0]}', ["peakon"]),
        ('{"x": 1.0, "m": [1.0]}', ["peakon"]),
        ('{"x": [0.0, 1.0], "m": [1.0, 1' + "0" * 400 + ']}', ["peakon"]),
        (GOOD_STATE, ["peakon", "--t-end", "inf"]),
        (GOOD_STATE, ["peakon", "--dt", "1e-320"]),
        (GOOD_STATE, ["peakon", "--dt", "1e-300"]),
        (GOOD_STATE, ["peakon", "--dt", "inf"]),
        (GOOD_STATE, ["peakon", "--dt", "nan"]),
        (GOOD_STATE, ["peakon", "--tol", "nan"]),
        (GOOD_STATE, ["peakon", "--collision-epsilon", "nan"]),
        (GOOD_STATE, ["peakon", "--sample-every", "0"]),
        (GOOD_STATE, ["peakon", "--wave-points", "0", "--wave-out", "WAVE"]),
        (GOOD_STATE, ["peakon", "--wave-min", "nan", "--wave-out", "WAVE"]),
        (GOOD_STATE, ["wave", "--points", "0"]),
        (GOOD_STATE, ["peakon", "--wave-points", str(MAX_WAVE_POINTS + 1), "--wave-out", "WAVE"]),
        (GOOD_STATE, ["wave", "--points", str(MAX_WAVE_POINTS + 1)]),
        (json.dumps({"x": list(range(MAX_PEAKONS + 1)), "m": [1] * (MAX_PEAKONS + 1)}), ["peakon"]),
        (DEEP_JSON, ["peakon"]),
        (DEEP_JSON, ["wave"]),
    ],
    ids=[
        "x-infinity", "m-infinity", "t-nan", "top-level-list", "bool-entry", "string-entry",
        "x-not-a-list", "int-overflow", "t-end-inf", "dt-underflow", "dt-step-cap", "dt-inf",
        "dt-nan", "tol-nan", "collision-epsilon-nan", "sample-every-0", "wave-points-0", "wave-min-nan", "wave-0-points",
        "wave-points-cap", "wave-cap-points", "peakon-count-cap", "peakon-deep-json",
        "wave-deep-json",
    ],
)
def test_main_peakon_bad_input_is_input_error(tmp_path, capsys, state, argv):
    # bad input exits 2 with a one-line error, before anything is written
    path = tmp_path / "state.json"
    path.write_text(state)
    out, wave = tmp_path / "out", tmp_path / "wave.csv"
    argv = [str(wave) if a == "WAVE" else a for a in argv]
    assert main(argv + ["--state", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists() and not wave.exists()


def test_main_wave_grid_cap_refused_before_allocation(tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(peakon.np, "linspace", no_grid)
    path = tmp_path / "state.json"
    path.write_text(GOOD_STATE)
    argv = ["wave", "--state", str(path), "--points", str(MAX_WAVE_POINTS + 1)]
    assert main(argv + ["--out", str(tmp_path / "wave.csv")]) == 2


def test_load_state_accepts_int_entries(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"t": 1, "x": [-1, 2], "m": [3, 1]}')
    s = load_state(str(path))
    assert (s.t, s.x.tolist(), s.m.tolist()) == (1.0, [-1.0, 2.0], [3.0, 1.0])


# (argv without the output path, output flag, module and name of the library
# entry point that does the command's work)
_OUTPUT_CASES = [
    (["verify-theorem", "--n", "3"], "--out", minor_sums, "theorem_campaign"),
    (["verify-lemmas", "--n", "3", "--format", "json"], "--out", lemmas, "lemma_report"),
    (["orbit-audit", "--n", "3", "--k", "2"], "--out", matchings, "orbit_audit"),
    (["lgv-audit", "--n", "3"], "--out", lgv, "audit"),
    (["peakon", "--state", "STATE"], "--out", peakon, "load_state"),
    (["peakon", "--state", "STATE"], "--wave-out", peakon, "load_state"),
    (["wave", "--state", "STATE"], "--out", peakon, "load_state"),
]


@pytest.mark.parametrize(
    "argv,flag,module,name", _OUTPUT_CASES, ids=[f"{c[0][0]}{c[1]}" for c in _OUTPUT_CASES]
)
def test_main_missing_output_directory_is_refused_before_any_work(
    tmp_path, monkeypatch, capsys, argv, flag, module, name
):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before the output path was checked")

    monkeypatch.setattr(module, name, refuse)
    # A CLI that binds the entry point at import calls it under its own name.
    monkeypatch.setattr(cli, name, refuse, raising=False)
    state = tmp_path / "state.json"
    state.write_text(GOOD_STATE)
    target = tmp_path / "no-such-dir" / "report"
    argv = [str(state) if a == "STATE" else a for a in argv]
    assert main(argv + [flag, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {target}: no directory {target.parent}\n"


def test_main_output_path_naming_a_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("lemma_report ran before the output path was checked")

    monkeypatch.setattr(lemmas, "lemma_report", refuse)
    monkeypatch.setattr(cli, "lemma_report", refuse, raising=False)
    assert main(["verify-lemmas", "--n", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --out {tmp_path}: is a directory\n"


def test_main_peakon_without_tol_reports_the_library_default(tmp_path):
    path, out = tmp_path / "state.json", tmp_path / "report.json"
    path.write_text(GOOD_STATE)
    argv = ["peakon", "--state", str(path), "--t-end", "0.01", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["tol"] == peakon.DEFAULT_TOL


def test_main_peakon_without_collision_epsilon_stops_where_the_library_default_does(tmp_path):
    # The gap shrinks from 2e-6; runs at the default, at 5e-7 and at 0 stop at
    # three different steps, so the step names the epsilon that was applied.
    s = peakon.PeakonState(0.0, [0.0, 2e-6], [2.0, 0.3])
    stops = {}
    for eps in (peakon.DEFAULT_COLLISION_EPSILON, 5e-7, 0.0):
        r = peakon.simulate(s, 1e-3, 1.0, sample_every=1, collision_epsilon=eps)
        stops[eps] = (r.status, len(r.samples))
    assert len(set(stops.values())) == 3
    path, out = tmp_path / "state.json", tmp_path / "report.json"
    path.write_text(json.dumps({"x": s.x.tolist(), "m": s.m.tolist()}))
    argv = ["peakon", "--state", str(path), "--t-end", "1", "--sample-every", "1",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 1  # a collision fails the run
    doc = json.loads(out.read_text())
    assert (doc["status"], len(doc["samples"])) == stops[peakon.DEFAULT_COLLISION_EPSILON]


HELP = Path(__file__).parent / "help"


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    """Each --help at 80 columns matches tests/help/, which holds the help
    text of the CLI as it was before its imports became per command."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    expected = (HELP / f"{command or 'canadaday'}.txt").read_text()
    assert capsys.readouterr().out == expected


def test_help_is_formatted_at_the_width_it_is_printed_at(monkeypatch, capsys):
    """The parser is built once; a --help printed later still follows the
    terminal width of its own moment, not that of the build."""
    cli._build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    cli._build_parser()
    with pytest.raises(SystemExit):
        main(["peakon", "--help"])
    narrow = capsys.readouterr().out
    monkeypatch.setenv("COLUMNS", "80")
    for command in [None, *cli._COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command is None else [command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (HELP / f"{command or 'canadaday'}.txt").read_text()
    assert narrow != (HELP / "peakon.txt").read_text()
    assert cli._build_parser.cache_info().currsize == 1


def test_main_builds_the_parser_once_and_leaks_no_value(capsys):
    cli._build_parser.cache_clear()
    argv = ["verify-theorem", "--n", "2", "--trials", "1", "--format", "json"]
    assert main([*argv, "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["k"] == 2
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["k"] is None
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "argv,library,flags",
    [
        (["verify-theorem"], theorem_campaign, {"trials": "trials", "seed": "seed", "bound": "bound"}),
        (["verify-lemmas"], lemma_report, {"n": "n_max", "seed": "seed", "bound": "bound"}),
        (["peakon", "--state", "s.json"], peakon.simulate, {"sample_every": "sample_every"}),
    ],
    ids=["verify-theorem", "verify-lemmas", "peakon"],
)
def test_cli_defaults_are_the_library_defaults(argv, library, flags):
    # Each default is written twice, as a flag's and as a parameter's.
    args = vars(cli._build_parser().parse_args(argv))
    params = inspect.signature(library).parameters
    assert {dest: args[dest] for dest in flags} == {
        dest: params[name].default for dest, name in flags.items()
    }


@pytest.mark.parametrize(
    "bad",
    [["orbit-audit", "--n", "3", "--bogus"], ["orbit-audit", "--n", "x", "--k", "2"],
     ["orbit-audit", "--n", "3"], ["no-such-command"]],
    ids=["unknown-flag", "bad-value", "missing-flag", "unknown-command"],
)
def test_main_after_a_refused_call_writes_what_a_fresh_parser_writes(bad, capsys):
    good = ["orbit-audit", "--n", "3", "--k", "2", "--format", "json"]
    cli._build_parser.cache_clear()
    assert main(good) == 0
    fresh = capsys.readouterr().out
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(good) == 0
    assert capsys.readouterr().out == fresh
    assert cli._build_parser.cache_info().misses == 1


def test_main_missing_state_file_is_input_error(tmp_path):
    assert main(["peakon", "--state", str(tmp_path / "nope.json")]) == 2


def test_main_wave_csv(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": [0.0], "m": [2.0]}))
    out = tmp_path / "wave.csv"
    rc = main(
        ["wave", "--state", str(state), "--x-min", "-1", "--x-max", "1", "--points", "5", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 6
    mid = lines[3].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == 2.0


@pytest.mark.parametrize(
    "argv,build",
    [
        (["verify-theorem", "--n", "3", "--trials", "2"],
         lambda tmp: theorem_campaign(3, trials=2)),
        (["verify-lemmas", "--n", "3"], lambda tmp: lemma_report(3)),
        (["orbit-audit", "--n", "3", "--k", "2", "--matrix", "MATRIX"],
         lambda tmp: orbit_audit(load_matrix(tmp / "x.json"), 2)),
        (["lgv-audit", "--n", "3"], lambda tmp: lgv.audit(3)),
        (["peakon", "--state", "STATE", "--dt", "1e-2", "--t-end", "0.5"],
         lambda tmp: peakon.simulate(load_state(tmp / "state.json"), 1e-2, 0.5).to_json_dict()),
    ],
    ids=["theorem_campaign", "lemma_report", "orbit_audit", "lgv.audit", "simulate"],
)
def test_library_and_cli_write_one_report(tmp_path, argv, build):
    (tmp_path / "x.json").write_text(json.dumps(matrix_to_json_dict(random_symmetric(3, 5, 9))))
    (tmp_path / "state.json").write_text(json.dumps({"x": [-1.0, 1.0], "m": [1.0, 2.0]}))
    paths = {"MATRIX": str(tmp_path / "x.json"), "STATE": str(tmp_path / "state.json")}
    out = tmp_path / "r.json"
    argv = [paths.get(arg, arg) for arg in argv]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_text() == json_text(build(tmp_path)) + "\n"


def test_main_orbit_audit_with_matrix_file(tmp_path):
    mat = tmp_path / "x.json"
    mat.write_text(json.dumps(matrix_to_json_dict(random_symmetric(3, 5, 9))))
    out = tmp_path / "audit.json"
    rc = main(
        ["orbit-audit", "--n", "3", "--k", "2", "--matrix", str(mat), "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["orbit_count"] == 12
    assert doc["totals"]["matching_sum"] == doc["totals"]["interlacing_S"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--n", "0"],
        ["verify-theorem", "--trials", "0"],
        ["verify-theorem", "--n", "3", "--k", "7"],
        ["verify-lemmas", "--n", "0"],
        ["verify-lemmas", "--n", "1", "--corrupt-sign"],  # no flipped pair to corrupt
    ],
)
def test_main_vacuous_run_is_input_error(argv, capsys):
    # a run that checks nothing must not report PASS
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def _matrix_doc(entries):
    return json.dumps({"rows": len(entries), "cols": len(entries), "entries": entries})


@pytest.mark.parametrize(
    "n,k,doc,message",
    [
        pytest.param(2, 1, _matrix_doc([["1", "2"], ["3", "4"]]), "symmetric",
                     id="2-entries0-symmetric"),  # asymmetric X
        pytest.param(2, 1, _matrix_doc([["1", "2", "3"], ["2", "4", "5"], ["3", "5", "6"]]), "3x3",
                     id="2-entries1-3x3"),  # --n 2, 3x3 X
        pytest.param(2, 1, _matrix_doc([[0.1, "2"], ["2", "3"]]), "0.1",
                     id="2-entries2-0.1"),  # float entry
        pytest.param(1, 1, "[1, 2]", "JSON object", id="top-level-list"),
        pytest.param(1, 1, '{"rows": 1, "cols": 1, "entries": 5}', "list of entry rows",
                     id="entries-not-a-list"),
        pytest.param(1, 1, '{"rows": 1, "cols": 1, "entries": [5]}', "grid", id="row-not-a-list"),
        pytest.param(1, 1, '{"rows": 1, "cols": 1, "entries": [["1/0"]]}', "zero denominator",
                     id="zero-denominator"),
        pytest.param(1, 1, '{"rows": true, "cols": 1, "entries": [["1"]]}', "integer rows",
                     id="bool-rows"),
        pytest.param(0, 0, '{"rows": 0, "cols": 0, "entries": []}', "n must be >= 1",
                     id="empty-0x0"),  # as `--n 0` without --matrix
        pytest.param(2, 1, DEEP_JSON, "nested too deeply", id="deep-json"),
    ],
)
def test_main_orbit_audit_bad_matrix_is_input_error(tmp_path, capsys, n, k, doc, message):
    mat = tmp_path / "x.json"
    mat.write_text(doc)
    assert main(["orbit-audit", "--n", str(n), "--k", str(k), "--matrix", str(mat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["rows", "cols", "entries"])
def test_main_orbit_audit_matrix_missing_key_is_input_error(tmp_path, capsys, key):
    doc = {"rows": 2, "cols": 2, "entries": [["1", "2"], ["2", "1"]]}
    del doc[key]
    mat = tmp_path / "x.json"
    mat.write_text(json.dumps(doc))
    assert main(["orbit-audit", "--n", "2", "--k", "1", "--matrix", str(mat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"missing {key}\n" in captured.err


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["peakon"], b'{"x": [0.0, 1.0], "m": [1.0]}', "equal length"),
        (["peakon"], b'{"x": [0.0, 1.0]}', "m must be a list of numbers"),
        (["peakon"], b'{"x": {"a": 1.0}, "m": [1.0]}', "x must be a list of numbers"),
        (["peakon"], b'{"t": "0", "x": [0.0, 1.0], "m": [1.0, 1.0]}', "t must be a JSON number"),
        (["orbit-audit", "--n", "2", "--k", "1"], b'{"rows": 2, "cols": 2, "entries": [["1", "2"], ["2"]]}',
         "entry grid does not match"),
        (["orbit-audit", "--n", "1", "--k", "1"], b'{"rows": 1, "cols": 1, "entries": [["\xff"]]}',
         "can't decode"),
    ],
    ids=["m-shorter-than-x", "m-missing", "x-an-object", "t-a-string", "ragged-rows", "bad-utf-8"],
)
def test_main_malformed_input_file_is_input_error(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "input.json"
    path.write_bytes(doc)
    flag = "--state" if argv[0] == "peakon" else "--matrix"
    assert main([*argv, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["peakon", "--dt", "1e-2", "--t-end", "0.1", "--state"],
         {"note": "café", "x": [0.0, 1.0], "m": [1.0, 2.0]}),
        (["orbit-audit", "--n", "2", "--k", "1", "--matrix"],
         {"note": "café", "rows": 2, "cols": 2, "entries": [["1", "2"], ["2", "1/3"]]}),
    ],
    ids=["state", "matrix"],
)
def test_input_files_are_read_as_utf_8_in_any_locale(tmp_path, argv, doc):
    # JSON is UTF-8 (RFC 8259), whatever encoding the locale would choose.
    path = tmp_path / "input.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = {**CHILD_ENV, "LC_ALL": "C", "PYTHONUTF8": "0"}
    cmd = [sys.executable, "-m", "canadaday", *argv, str(path)]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_main_lets_a_program_key_error_out(monkeypatch):
    # No input path raises KeyError, so one is a fault of the program, not
    # bad input: it must not exit 2 as if it were.
    def faulty(x, k):
        raise KeyError("weight")

    monkeypatch.setattr(matchings, "orbit_audit", faulty)
    with pytest.raises(KeyError, match="weight"):
        main(["orbit-audit", "--n", "3", "--k", "2"])


@pytest.mark.parametrize("entry", ["1e100000000", "1e-100000000", "2.5e999999999"])
def test_orbit_audit_refuses_a_matrix_entry_exponent(tmp_path, entry):
    # Fraction expands an exponent in full, so these hung instead of exiting 2;
    # in a child, so that a hang is a timeout rather than a stuck suite.
    mat = tmp_path / "x.json"
    mat.write_text(_matrix_doc([[entry]]))
    cmd = [sys.executable, "-m", "canadaday", "orbit-audit", "--n", "1", "--k", "1",
           "--matrix", str(mat)]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=20, env=CHILD_ENV)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: ") and "exponent" in run.stderr
    assert run.stderr.count("\n") == 1


BIG = "7" + "3" * 2999  # a 3000-digit entry: its square is past the 4300-digit str limit
BIG_BOUND = "9" * 2500


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv,x",
    [
        pytest.param(
            ["orbit-audit", "--n", "2", "--k", "2", "--matrix", "MATRIX"],
            ExactMatrix.from_rows([[BIG, 1], [1, BIG]]),
            id="orbit-audit-matrix",
        ),
        pytest.param(
            ["orbit-audit", "--n", "2", "--k", "2", "--bound", BIG_BOUND],
            random_symmetric(2, child_seed(42, 2, 0), int(BIG_BOUND)),
            id="orbit-audit-bound",
        ),
        pytest.param(
            ["verify-theorem", "--n", "2", "--trials", "1", "--bound", BIG_BOUND],
            random_symmetric(2, child_seed(42, 2, 0), int(BIG_BOUND)),
            id="verify-theorem-bound",
        ),
    ],
)
def test_main_renders_exact_values_past_the_int_digit_limit(monkeypatch, tmp_path, argv, x, fmt):
    # the 2x2 minor of x has more digits than str() renders by default; such
    # entries are past MAX_ENTRY_BITS, so the cap is raised to reach the
    # renderer (the cap itself is tested below)
    monkeypatch.setattr(minor_sums, "MAX_ENTRY_BITS", 10_000)
    mat, out = tmp_path / "x.json", tmp_path / "out"
    if "MATRIX" in argv:
        mat.write_text(json.dumps(matrix_to_json_dict(x)))
        argv = [str(mat) if a == "MATRIX" else a for a in argv]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    det = str_without_digit_limit(determinant(x))
    assert len(det) > 4300
    if fmt == "text":
        text = out.read_text()
        assert text.endswith("PASS\n")
        if argv[0] == "orbit-audit":
            assert f"  all_minors_of_X: {det}\n" in text
        return
    doc = json.loads(out.read_text())
    if argv[0] == "orbit-audit":
        assert doc["totals"]["all_minors_of_X"] == doc["totals"]["interlacing_S"] == det
    else:
        (cell,) = [c for c in doc["cells"] if c["k"] == 2]
        assert cell["principal_of_TX"] == cell["all_of_X"] == cell["interlacing_S"] == det


OVER_CAP = str(2**64)  # 65 bits
AT_CAP = str(2**64 - 1)


@pytest.mark.parametrize(
    "argv,entry",
    [
        (["verify-theorem", "--n", "8", "--k", "4", "--trials", "1", "--bound", OVER_CAP], None),
        (["verify-theorem", "--n", "8", "--bound", "-" + OVER_CAP], None),
        (["verify-lemmas", "--n", "4", "--bound", OVER_CAP], None),
        (["orbit-audit", "--n", "5", "--k", "3", "--bound", OVER_CAP], None),
        (["orbit-audit", "--n", "2", "--k", "2"], OVER_CAP),
        (["orbit-audit", "--n", "2", "--k", "2"], "-" + OVER_CAP),
        (["orbit-audit", "--n", "2", "--k", "2"], "1/" + OVER_CAP),
    ],
    ids=["verify-theorem", "verify-theorem-negative", "verify-lemmas", "orbit-audit-bound",
         "orbit-audit-numerator", "orbit-audit-negative", "orbit-audit-denominator"],
)
def test_main_refuses_entries_past_the_bit_cap_before_any_work(
    monkeypatch, capsys, tmp_path, argv, entry
):
    def refuse(*args, **kwargs):
        raise AssertionError("did work before checking the entry bits")

    for name in ("minor_sums.random_symmetric", "minor_sums.random_matrix",
                 "minor_sums.minor_levels", "lemmas.random_symmetric", "lemmas.audit_table",
                 "cli.random_symmetric", "matchings.orbit_sum_identity"):
        monkeypatch.setattr(f"canadaday.{name}", refuse)
    if entry is not None:
        mat = tmp_path / "x.json"
        mat.write_text(_matrix_doc([[entry, "1"], ["1", "2"]]))
        argv = argv + ["--matrix", str(mat)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has 65 bits, over the cap MAX_ENTRY_BITS = 64" in captured.err


def test_a_4300_digit_bound_exits_2_at_once():
    # this run took 22.9 s before the cap; in a child, so that a slow run is
    # a timeout rather than a stuck suite
    cmd = [sys.executable, "-m", "canadaday", "verify-theorem", "--n", "8", "--k", "4",
           "--trials", "1", "--bound", "9" * 4300]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=10, env=CHILD_ENV)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "error: the entry bound has 14285 bits, over the cap MAX_ENTRY_BITS = 64\n"


@pytest.mark.parametrize(
    "argv",
    [["verify-theorem", "--n", "2", "--trials", "2", "--bound", AT_CAP],
     ["verify-lemmas", "--n", "2", "--bound", AT_CAP],
     ["orbit-audit", "--n", "2", "--k", "2", "--bound", AT_CAP]],
    ids=["verify-theorem", "verify-lemmas", "orbit-audit"],
)
def test_main_takes_entries_at_the_bit_cap(argv):
    assert main(argv + ["--out", os.devnull]) == 0


def test_orbit_audit_takes_matrix_entries_at_the_bit_cap(tmp_path):
    mat = tmp_path / "x.json"
    mat.write_text(_matrix_doc([["-" + AT_CAP, "1/" + AT_CAP], ["1/" + AT_CAP, "2"]]))
    argv = ["orbit-audit", "--n", "2", "--k", "2", "--matrix", str(mat), "--out", os.devnull]
    assert main(argv) == 0


def test_json_output_is_deterministic(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(
            ["verify-theorem", "--n", "3", "--trials", "5", "--seed", "7",
             "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_console_invocation_deterministic():
    cmd = [
        sys.executable, "-m", "canadaday",
        "orbit-audit", "--n", "2", "--k", "1", "--seed", "9", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
    second = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"{")


# --- argv fuzz: every exit code is 0, 1 or 2, and nothing escapes main ----

# Sizes stop at the guard or below n = 5, trials at 2 and --t-end at 0.01
# (always given: its default runs 2000 steps), so no drawn run does real
# work past the guards.
_SIZE = st.sampled_from(["-1", "0", "1", "2", "3", "4", "13", "x"])


def _opt(flag, values):
    """Nothing, or the flag with one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _req(flag, values):
    return values.map(lambda v: [flag, v])


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _argv(files):
    common = [
        _opt("--format", st.sampled_from(["text", "json", "xml"])),
        _opt("--out", st.sampled_from([files["out"], files["no_dir"]])),
    ]
    seed = _opt("--seed", st.sampled_from(["0", "7", "-3", "x"]))
    bound = _opt("--bound", st.sampled_from(["-1", "0", "9"]))
    k = _opt("--k", st.sampled_from(["-1", "0", "1", "2", "5"]))
    n = _opt("--n", _SIZE)
    state = _req("--state", st.sampled_from([files[s] for s in ("good", "unsorted", "list", "missing")]))
    number = st.sampled_from(["1e-3", "0.01", "0", "-1", "nan", "inf", "1e-300", "x"])
    points = st.sampled_from(["0", "1", "5", str(MAX_WAVE_POINTS + 1), "x"])
    commands = {
        "verify-theorem": [n, k, seed, bound, _switch("--asymmetric"),
                           _opt("--trials", st.sampled_from(["-1", "0", "1", "2"]))],
        "verify-lemmas": [n, seed, bound, _switch("--corrupt-sign")],
        "orbit-audit": [_req("--n", _SIZE), _req("--k", st.sampled_from(["-1", "0", "1", "3"])), seed, bound,
                        _opt("--matrix", st.sampled_from([files["matrix"], files["list"], files["missing"]]))],
        "lgv-audit": [n],
        "peakon": [state,
                   _opt("--dt", st.sampled_from(["1e-3", "0", "-1", "nan", "inf", "1e-300"])),
                   _req("--t-end", st.sampled_from(["0.001", "0.01", "0", "-1", "nan", "inf"])),
                   _opt("--sample-every", st.sampled_from(["0", "1", "10"])),
                   _opt("--tol", st.sampled_from(["1e-7", "0", "-1", "nan"])),
                   _opt("--collision-epsilon", st.sampled_from(["1e-6", "-1", "nan"])),
                   _opt("--wave-out", st.sampled_from([files["csv"], files["no_dir"]])),
                   _opt("--wave-min", number), _opt("--wave-points", points)],
        "wave": [state, _opt("--x-min", number), _opt("--x-max", number), _opt("--points", points),
                 _req("--out", st.sampled_from([files["csv"], files["no_dir"]]))],
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda c: st.tuples(*commands[c], *(common if c != "wave" else [])).map(
            lambda parts: [c] + [a for part in parts for a in part]
        )
    )


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    docs = {
        "good": GOOD_STATE,
        "unsorted": '{"x": [1.0, -1.0], "m": [1.0, 2.0]}',
        "list": "[1, 2]",
        "matrix": json.dumps(matrix_to_json_dict(random_symmetric(3, 5, 9))),
    }
    for name, text in docs.items():
        (d / f"{name}.json").write_text(text)
    files = {name: str(d / f"{name}.json") for name in docs}
    files.update(
        missing=str(d / "missing.json"),
        out=str(d / "report"),
        csv=str(d / "wave.csv"),
        no_dir=str(d / "no-such-dir" / "file"),
    )
    return files


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_main_fuzzed_argv_exits_0_1_or_2_without_traceback(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


# --- peakon fuzz over valid flags only: every drawn run steps and samples

@settings(max_examples=60, deadline=None)
@given(
    dt=st.sampled_from(["1e-3", "1e-2"]),
    t_end=st.sampled_from(["0.001", "0.005", "0.01"]),
    sample_every=st.sampled_from(["1", "10"]),
    tol=st.sampled_from(["1e-7", "1e-12", "0"]),
    wave_points=st.one_of(st.none(), st.integers(1, 50)),
)
def test_main_fuzzed_valid_peakon_run_exits_by_its_verdict(
    fuzz_files, dt, t_end, sample_every, tol, wave_points
):
    out, csv = Path(fuzz_files["out"]), Path(fuzz_files["csv"])
    out.unlink(missing_ok=True)
    csv.unlink(missing_ok=True)
    argv = ["peakon", "--state", fuzz_files["good"], "--dt", dt, "--t-end", t_end,
            "--sample-every", sample_every, "--tol", tol, "--format", "json", "--out", str(out)]
    if wave_points is not None:
        argv += ["--wave-out", str(csv), "--wave-points", str(wave_points)]
    code = main(argv)
    doc = json.loads(out.read_text())
    assert code in (0, 1) and (code == 0) == doc["passed"], (argv, code)
    assert doc["status"] == "ok" and doc["samples"]
    if wave_points is not None:
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 1 + len(doc["samples"]) * wave_points
    else:
        assert not csv.exists()
