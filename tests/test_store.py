"""The store of size-only results, `minor_sums.kept`: its keep rule, and that
what it keeps equals a fresh build and holds nothing that depends on X."""

import json
import marshal
from copy import deepcopy
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest

from canadaday import lgv, matchings, minor_sums
from canadaday.cli import main
from canadaday.exact_linalg import (
    ExactMatrix,
    JsonTemplate,
    TemplatedList,
    json_text,
    matrix_to_json_dict,
)
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
from canadaday.minor_sums import kept, kept_on_repeat


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


def test_kept_on_repeat_builds_nothing_on_the_first_request(empty_store):
    builds = []

    def build():
        builds.append(object())
        return builds[-1]

    assert kept_on_repeat("a", build) is None and builds == []
    assert minor_sums._STORE == {"a": minor_sums._ASKED_ONCE}
    second = kept_on_repeat("a", build)
    assert second is builds[0] and minor_sums._STORE == {"a": second}
    assert kept_on_repeat("a", build) is second and len(builds) == 1


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
        assert lemma_report(n_max=3)["passed"]
        doc = orbit_audit(x, 2)
        assert doc["passed"]
    for key, value in minor_sums._STORE.items():
        assert key[0] in {"partition", "enumerated", "t_minors", "audit_text"}
        if key[0] == "partition":
            for o in value:
                assert [f.name for f in fields(o)] == [
                    "members", "classification", "signs", "p", "_flip_images",
                ]
                assert not hasattr(o, "__dict__")
                assert all(set(vars(m)) == {"n", "edges", "_clusters"} for m in o.members)
        elif key[0] == "t_minors":
            assert type(value) is tuple and all(type(row) is tuple for row in value)
        elif key[0] == "audit_text":
            assert type(value) is JsonTemplate and type(value.pieces) is tuple
            assert all(type(piece) is str for piece in value.pieces)
            # no weight or orbit-sum text: the pieces are the report's
            # orbits text with each of them cut out
            slots = [text for o in doc["orbits"] for text in (*o["weights"], o["orbit_sum"])]
            assert len(value.pieces) == len(slots) + 1
            assert "".join(
                piece + encode_basestring_ascii(text)
                for piece, text in zip(value.pieces, [*slots, ""])
            )[:-2] == json_text(list(doc["orbits"]), "  ")
            assert not any(encode_basestring_ascii(t) in p for t in slots for p in value.pieces)
            # the fixed values are the X-free ones, and the shape each count
            assert marshal.loads(value.fixed) == [
                (o["classification"], o["members"], o["signs"], o["separations"])
                for o in doc["orbits"]
            ]
            assert value.shape == tuple(
                count for o in doc["orbits"] for count in (len(o["members"]), -1)
            )
    assert ("audit_text", 3, 2) in minor_sums._STORE


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
    for _ in range(2):  # the request that keeps the template, then one written from it
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


def _edits(doc: dict) -> list[dict]:
    """Copies of an orbit-audit report, each with one edit of its orbits: a
    weight, an orbit sum, a weight count, an X-free value, key order, a
    value `==` to the old one but written otherwise, and an orbit fewer."""
    def edited(change) -> dict:
        out = {**doc, "orbits": TemplatedList(deepcopy(list(doc["orbits"])), doc["orbits"].template)}
        change(out["orbits"])
        return out

    return [
        edited(change)
        for change in (
            lambda o: o[0]["weights"].__setitem__(0, "-9/7"),
            lambda o: o[-1].update(orbit_sum="123"),
            lambda o: o[0]["weights"].pop(),
            lambda o: o[0].update(classification="edited"),
            lambda o: o[0].update(classification=o[0].pop("classification")),
            lambda o: o[0]["members"][0].update(n=float(o[0]["members"][0]["n"])),
            lambda o: o.pop(),
        )
    ]


@pytest.mark.parametrize("x", [_INTEGER_X, _RATIONAL_X], ids=["integer", "rational"])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(n + 1)])
def test_spliced_orbit_audit_renders_as_json_dumps(empty_store, x, n, k):
    # A cold, a keeping and a kept request write json.dumps's bytes; so does
    # a kept report after an edit, which its template must not write over.
    x = ExactMatrix.from_rows([row[:n] for row in x.to_rows()[:n]])
    reports = [orbit_audit(x, k) for _ in range(3)]  # cold, keeping, kept
    assert reports[0]["passed"] and _kept(("audit_text", n, k))
    assert type(reports[0]["orbits"]) is list
    assert [type(doc["orbits"]) for doc in reports[1:]] == [TemplatedList] * 2
    for doc in reports:
        assert doc == reports[0]
        assert json_text(doc) == json.dumps(doc, indent=2)
    cold = json_text(reports[0])
    for doc in _edits(reports[2]):
        assert json_text(doc) == json.dumps(doc, indent=2) != cold


def test_a_kept_orbit_audit_writes_a_cold_runs_bytes(empty_store, capsys):
    argv = ["orbit-audit", "--n", "5", "--k", "3", "--seed", "4", "--format", "json"]
    outputs = []
    for _ in range(3):  # cold, keeping, kept
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert _kept(("audit_text", 5, 3))
    assert outputs[1] == outputs[2] == outputs[0]


def test_a_kept_t_table_refuses_a_bool_size(empty_store):
    audit_table(1)
    audit_table(1)
    with pytest.raises(ValueError, match="an index must be an integer, got True"):
        audit_table(True)
