"""The store of size-only results, `minor_sums.kept`: its keep rule, and that
what it keeps equals a fresh build and holds nothing that depends on X."""

import json
from dataclasses import fields
from fractions import Fraction

import pytest

from canadaday import lgv, matchings, minor_sums
from canadaday.cli import main
from canadaday.exact_linalg import ExactMatrix, json_text, matrix_to_json_dict
from canadaday.lemmas import lemma_report
from canadaday.lgv import audit_table
from canadaday.matchings import (
    Matching,
    enumerate_matchings,
    flip,
    matching_count,
    orbit_audit,
    partition_into_orbits,
    sign,
)
from canadaday.minor_sums import kept


def _kept(key):
    value = minor_sums._STORE[key]
    assert value is not minor_sums._ASKED_ONCE, key
    return value


def test_kept_from_the_second_request(empty_store):
    builds = []

    def build():
        builds.append(object())
        return builds[-1]

    first = kept("a", build)
    assert minor_sums._STORE == {"a": minor_sums._ASKED_ONCE}
    second = kept("a", build)
    assert second is not first and minor_sums._STORE == {"a": second}
    assert kept("a", build) is second and len(builds) == 2
    # another key starts its own count
    assert kept("b", build) is not kept("b", build)
    assert len(builds) == 4
    minor_sums._forget()
    assert minor_sums._STORE == {}
    assert kept("a", build) is not second


def test_kept_equals_fresh_up_to_n5(empty_store):
    for n in range(1, 6):
        for k in range(n + 1):
            partition_into_orbits(n, k)
            orbits = partition_into_orbits(n, k)
            assert _kept(("partition", n, k)) is orbits
            for o in orbits:
                assert o.signs == tuple(sign(Matching(n, m.edges)) for m in o.members)
                index = {m.edges: r for r, m in enumerate(o.members)}
                fresh = []
                for r, m in enumerate(o.members):
                    validated = Matching(n, m.edges)
                    for c in matchings._trace_clusters(validated):
                        if c.kind == "open":
                            i, j = min((min(e), max(e)) for e in c.edges)
                            fresh.append((r, c, index[flip(validated, i, j).edges]))
                assert list(o.flips()) == fresh
        lemma_report(n_max=n)
        lemma_report(n_max=n)
        for k in range(n + 1):
            count = _kept(("enumerated", n, k))
            assert count == sum(1 for _ in enumerate_matchings(n, k)) == matching_count(n, k)
        table = audit_table(n)
        assert _kept(("t_minors", n)) and audit_table(n) == table
        minor_sums._forget()
        assert audit_table(n) == table


def test_store_keeps_nothing_taken_from_x(empty_store):
    x = ExactMatrix.from_rows([[Fraction(1, 2), 3, -1], [3, 0, 7], [-1, 7, Fraction(-5, 3)]])
    for _ in range(3):
        assert lemma_report(n_max=3)["passed"] and orbit_audit(x, 2)["passed"]
    for key, value in minor_sums._STORE.items():
        assert key[0] in {"partition", "enumerated", "t_minors", "audit_heads"}
        if key[0] == "partition":
            for o in value:
                assert [f.name for f in fields(o)] == [
                    "members", "classification", "signs", "p", "_flip_images",
                ]
                assert not hasattr(o, "__dict__")
                assert all(set(vars(m)) == {"n", "edges", "_clusters"} for m in o.members)
        elif key[0] == "t_minors":
            assert type(value) is tuple and all(type(row) is tuple for row in value)
        elif key[0] == "audit_heads":
            assert type(value) is tuple and all(type(head) is str for head in value)
            assert not any("weights" in head or "orbit_sum" in head for head in value)
    assert ("audit_heads", 3, 2) in minor_sums._STORE


def test_an_edited_lgv_audit_report_leaves_the_next_unchanged(empty_store, capsys):
    cold = lgv.audit(3)
    lgv.audit(3)
    doc = lgv.audit(3)  # built from the kept values
    assert doc == cold
    doc["table"][0]["I"].append(9)
    doc["table"][0]["agree"] = False
    doc["table"].clear()
    assert lgv.audit(3) == cold
    assert main(["lgv-audit", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == cold


def test_an_edited_orbit_audit_report_leaves_the_next_unchanged(empty_store, capsys, tmp_path):
    x = ExactMatrix.from_rows([[Fraction(1, 2), 3, -1], [3, 0, 7], [-1, 7, Fraction(-5, 3)]])
    cold = orbit_audit(x, 2)
    for _ in range(2):  # the request that keeps the heads, then one spliced with them
        doc = orbit_audit(x, 2)
        assert doc == cold
        entry = doc["orbits"][0]
        entry["members"][0]["edges"] = ((9, 9),)
        entry["members"].append({"n": 0})
        entry["signs"] = (0,)
        entry["separations"][0].append(9)
        entry["classification"] = "edited"
        doc["orbits"].clear()
    assert orbit_audit(x, 2) == cold
    matrix = tmp_path / "x.json"
    matrix.write_text(json.dumps(matrix_to_json_dict(x)))
    argv = ["orbit-audit", "--n", "3", "--k", "2", "--matrix", str(matrix), "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(cold, indent=2) + "\n"


_INTEGER_X = ExactMatrix.from_rows(
    [[2, -1, 0, 3, 1], [-1, 5, 4, 0, -2], [0, 4, -3, 1, 6], [3, 0, 1, 0, -1], [1, -2, 6, -1, 4]]
)
_RATIONAL_X = ExactMatrix.from_rows(
    [[Fraction(v, 1 + (i + j) % 4) for j, v in enumerate(row)]
     for i, row in enumerate(_INTEGER_X.to_rows())]
)


@pytest.mark.parametrize("x", [_INTEGER_X, _RATIONAL_X], ids=["integer", "rational"])
@pytest.mark.parametrize("n,k", [(3, 0), (3, 2), (4, 2), (5, 3)])
def test_spliced_orbit_audit_renders_as_json_dumps(empty_store, x, n, k):
    x = ExactMatrix.from_rows([row[:n] for row in x.to_rows()[:n]])
    reports = [orbit_audit(x, k) for _ in range(3)]  # cold, keeping, kept
    assert reports[0]["passed"] and _kept(("audit_heads", n, k))
    for doc in reports:
        assert doc == reports[0]
        assert json_text(doc) == json.dumps(doc, indent=2)


def test_a_kept_t_table_refuses_a_bool_size(empty_store):
    audit_table(1)
    audit_table(1)
    with pytest.raises(ValueError, match="an index must be an integer, got True"):
        audit_table(True)
