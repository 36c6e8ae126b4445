"""Command-line front end: verification campaigns over random matrices,
exhaustive lemma suites, orbit and path-counting audits, and the peakon
simulation driver.

Every command is deterministic given its flags: the same config and seed
produce byte-identical JSON.  Exit code 0 means every reported check passed;
failures serialize a minimal witness for offline replay.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .exact_linalg import (
    DimensionError,
    ExactMatrix,
    load_matrix,
    matrix_to_json_dict,
    random_matrix,
    random_symmetric,
)
from .lgv import audit_table
from .matchings import (
    Matching,
    decompose_clusters,
    enumerate_matchings,
    orbit_sum_identity,
    sign_flip_law_check,
    weight,
)
from .minor_sums import check_size_guard, verify_canada_day
from .peakon import DEFAULT_COLLISION_EPSILON, PeakonState, simulate, waveform

__all__ = [
    "main",
    "run_lemma_suite",
    "run_lgv_audit",
    "run_orbit_audit",
    "run_peakon",
    "run_theorem_campaign",
]


def _child_seed(seed: int, *parts: int) -> int:
    out = seed
    for p in parts:
        out = out * 1_000_003 + p + 1
    return out


# ---------------------------------------------------------------------------
# verify-theorem


def run_theorem_campaign(
    n_max: int,
    k: int | None = None,
    trials: int = 20,
    seed: int = 42,
    bound: int = 9,
    asymmetric: bool = False,
) -> dict:
    """Run verify_canada_day over the (n, trial, k) grid with seeded random
    matrices.  In asymmetric mode only the principal-of-TX vs S equality is
    required to hold; the all-minors sum is reported so witnesses of its
    failure are visible."""
    check_size_guard(n_max)
    cells = []
    witnesses = []
    passed = True
    for n in range(1, n_max + 1):
        ks = [k] if k is not None else list(range(1, n + 1))
        for trial in range(trials):
            gen = random_matrix if asymmetric else random_symmetric
            mat = gen(n, _child_seed(seed, n, trial), bound)
            for kk in ks:
                if not 1 <= kk <= n:
                    continue
                rep = verify_canada_day(mat, kk, allow_asymmetric=asymmetric)
                ok = rep.part_a_equal if asymmetric else rep.all_equal
                cell = {"trial": trial, **rep.to_json_dict(), "part_a_equal": rep.part_a_equal}
                cells.append(cell)
                if not ok:
                    passed = False
                    witnesses.append(
                        {"n": n, "k": kk, "trial": trial, "matrix": matrix_to_json_dict(mat)}
                    )
    if not cells:
        raise ValueError("no (n, k) cell to check: need n >= 1, trials >= 1 and 1 <= k <= n")
    return {
        "command": "verify-theorem",
        "config": {
            "n_max": n_max,
            "k": k,
            "trials": trials,
            "seed": seed,
            "bound": bound,
            "asymmetric": asymmetric,
        },
        "passed": passed,
        "cell_count": len(cells),
        "part_b_inequality_count": sum(1 for c in cells if not c["all_equal"]),
        "cells": cells,
        "witnesses": witnesses,
    }


def _render_theorem(doc: dict) -> list[str]:
    cfg = doc["config"]
    mode = "asymmetric (part (a) only)" if cfg["asymmetric"] else "symmetric"
    return [
        f"verify-theorem: n=1..{cfg['n_max']} k={cfg['k'] or 'all'} "
        f"trials={cfg['trials']} seed={cfg['seed']} bound={cfg['bound']} mode={mode}",
        f"  cells checked: {doc['cell_count']}",
        f"  all-minors inequality witnesses: {doc['part_b_inequality_count']}",
        f"  failures: {len(doc['witnesses'])}",
    ]


# ---------------------------------------------------------------------------
# verify-lemmas


def _check_t_minor_three_way(n_max: int):
    for n in range(1, n_max + 1):
        for row in audit_table(n):
            if not row["agree"]:
                return False, {"n": n, **row}
    return True, None


def _acting_generators(m: Matching) -> list[tuple[int, int]]:
    """The generators f_ij (i < j) that flip something in m, in generator
    order: those whose edge i -> j or j -> i lies in an open cluster.  Every
    other generator leaves m unchanged, so its sign-law check holds
    trivially."""
    return sorted(
        (min(e), max(e)) for c in decompose_clusters(m).open_clusters for e in c.edges
    )


def _check_matchings(n_max: int, seed: int, bound: int, corrupt: bool):
    """The matching_count, weight_flip_invariance and sign_flip_law results
    from one walk over each M_{n,k}: each acting generator f_ij is checked
    once per matching, in `sign_flip_law_check`, and the weight check reads
    its image.  Each check keeps its own first witness."""
    count_ok = weight_ok = sign_ok = (True, None)
    corrupt_pending = corrupt
    for n in range(1, n_max + 1):
        x = random_symmetric(n, _child_seed(seed, 1, n), bound)
        for k in range(0, n + 1):
            count = 0
            for m in enumerate_matchings(n, k):
                count += 1
                if k == 0:
                    continue
                w = weight(m, x)
                for i, j in _acting_generators(m):
                    chk = sign_flip_law_check(m, i, j)
                    if weight_ok[0] and chk.flipped and weight(chk.image, x) != w:
                        weight_ok = False, {"n": n, "matching": m.to_json_dict(), "i": i, "j": j}
                    holds = chk.holds
                    if chk.flipped and corrupt_pending:
                        # Self-test hook: falsify one result to prove the
                        # harness surfaces a witness.
                        holds = not holds
                        corrupt_pending = False
                    if sign_ok[0] and not holds:
                        sign_ok = False, {
                            "n": n,
                            "matching": m.to_json_dict(),
                            "i": i,
                            "j": j,
                            "separation": chk.separation,
                        }
            expected = math.comb(n, k) ** 2 * math.factorial(k)
            if count_ok[0] and count != expected:
                count_ok = False, {"n": n, "k": k, "count": count, "expected": expected}
    if corrupt_pending:
        raise ValueError(f"--corrupt-sign has no flipped pair to corrupt at n <= {n_max}")
    return count_ok, weight_ok, sign_ok


def _check_orbit_sums(n_max: int, seed: int, bound: int):
    """The orbit_structure and grand_matching_sum results, both read from one
    orbit-sum report per (n, k)."""
    structure = grand = (True, None)
    for n in range(1, n_max + 1):
        x = random_symmetric(n, _child_seed(seed, 2, n), bound)
        for k in range(0, n + 1):
            rep = orbit_sum_identity(x, k)
            if structure[0] and rep.failed_checks:
                structure = False, {"n": n, "k": k, "failed": list(rep.failed_checks)}
            partitioned = "orbits_partition_matchings" not in rep.failed_checks
            if grand[0] and not (partitioned and rep.sums_equal):
                grand = False, {
                    "n": n,
                    "k": k,
                    "matching_sum": str(rep.matching_sum),
                    "interlacing_S": str(rep.interlacing_s),
                    "all_minors": str(rep.all_minors),
                }
    return structure, grand


def run_lemma_suite(
    n_max: int = 4, seed: int = 42, bound: int = 9, corrupt_sign: bool = False
) -> dict:
    """Exhaustive lemma checks up to the given n: the T-minor three-way
    agreement, matching counts, flip invariance of weights, the cluster-flip
    sign law, orbit structure, and the grand alternating sum."""
    if n_max < 1:
        raise ValueError(f"nothing to check: need n >= 1, got {n_max}")
    check_size_guard(n_max)
    orbit_structure, grand_sum = _check_orbit_sums(n_max, seed, bound)
    matching_count, weight_invariance, sign_law = _check_matchings(
        n_max, seed, bound, corrupt_sign
    )
    results = [
        ("t_minor_three_way", _check_t_minor_three_way(n_max)),
        ("matching_count", matching_count),
        ("weight_flip_invariance", weight_invariance),
        ("sign_flip_law", sign_law),
        ("orbit_structure", orbit_structure),
        ("grand_matching_sum", grand_sum),
    ]
    checks = [
        {"name": name, "passed": passed, "witness": witness}
        for name, (passed, witness) in results
    ]
    return {
        "command": "verify-lemmas",
        "config": {"n_max": n_max, "seed": seed, "bound": bound, "corrupt_sign": corrupt_sign},
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _render_lemmas(doc: dict) -> list[str]:
    lines = [f"verify-lemmas: n<={doc['config']['n_max']}"]
    for c in doc["checks"]:
        lines.append(f"  {c['name']}: {'ok' if c['passed'] else 'FAILED ' + json.dumps(c['witness'])}")
    return lines


# ---------------------------------------------------------------------------
# orbit-audit


def run_orbit_audit(x: ExactMatrix, k: int) -> dict:
    """Render `orbit_sum_identity(x, k)`: every orbit of M_{n,k} with members,
    signs, separations, weights and signed sum, then the totals of the
    orbit-sum argument.  Passes when every orbit property holds and the grand
    sum equals both S and the sum of all k x k minors of X."""
    rep = orbit_sum_identity(x, k)
    return {
        "command": "orbit-audit",
        "n": rep.n,
        "k": k,
        "matrix": matrix_to_json_dict(x),
        "orbit_count": len(rep.orbits),
        "orbits": [
            {**o.to_json_dict(sgs, ws), "orbit_sum": str(total)}
            for o, sgs, ws, total in zip(rep.orbits, rep.signs, rep.weights, rep.orbit_sums)
        ],
        "totals": {
            "matching_sum": str(rep.matching_sum),
            "interlacing_orbit_sum": str(rep.interlacing_orbit_sum),
            "non_interlacing_orbit_sum": str(rep.non_interlacing_orbit_sum),
            "interlacing_S": str(rep.interlacing_s),
            "all_minors_of_X": str(rep.all_minors),
        },
        "passed": rep.all_checks_pass,
    }


def _render_orbit_audit(doc: dict) -> list[str]:
    lines = [f"orbit-audit: n={doc['n']} k={doc['k']} orbits={doc['orbit_count']}"]
    for key, value in doc["totals"].items():
        lines.append(f"  {key}: {value}")
    return lines


# ---------------------------------------------------------------------------
# lgv-audit


def run_lgv_audit(n: int) -> dict:
    table = audit_table(n)
    return {
        "command": "lgv-audit",
        "n": n,
        "pair_count": len(table),
        "passed": all(row["agree"] for row in table),
        "table": table,
    }


def _render_lgv_audit(doc: dict) -> list[str]:
    disagreements = [row for row in doc["table"] if not row["agree"]]
    return [
        f"lgv-audit: n={doc['n']} pairs={doc['pair_count']} disagreements={len(disagreements)}",
    ]


# ---------------------------------------------------------------------------
# peakon / wave


def _state_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} is out of float range") from None


def load_state(path: str) -> PeakonState:
    """Read {"x": [...], "m": [...], "t": optional} and validate it as an
    initial state (finite numbers, positions strictly increasing, amplitudes
    positive)."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object with x and m")
    arrays = []
    for key in ("x", "m"):
        if not isinstance(d.get(key), list):
            raise ValueError(f"{path}: {key} must be a list of numbers")
        arrays.append([_state_number(v, f"{path}: {key}[{i}]") for i, v in enumerate(d[key])])
    state = PeakonState(_state_number(d.get("t", 0.0), f"{path}: t"), *arrays)
    state.validate_initial()
    return state


# A wave CSV row per grid point and sampled state, so the grid is refused
# past this before any work; `waveform` itself runs in bounded row blocks.
MAX_WAVE_POINTS = 10**6


def _grid(lo: float, hi: float, points: int) -> np.ndarray:
    if not 1 <= points <= MAX_WAVE_POINTS:
        raise ValueError(f"the wave grid needs 1 to {MAX_WAVE_POINTS} points, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the wave grid bounds must be finite, got {lo} and {hi}")
    return np.linspace(lo, hi, points)


def _write_wave_csv(path: str, states, grid: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "u"])
        for s in states:
            u = waveform(s, grid)
            for xv, uv in zip(grid, u):
                writer.writerow([repr(float(s.t)), repr(float(xv)), repr(float(uv))])


def run_peakon(
    state: PeakonState,
    dt: float,
    t_end: float,
    sample_every: int,
    tol: float,
    collision_epsilon: float = DEFAULT_COLLISION_EPSILON,
) -> dict:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    report = simulate(
        state, dt, t_end, sample_every=sample_every, collision_epsilon=collision_epsilon
    )
    doc = report.to_json_dict()
    doc["tol"] = tol
    doc["passed"] = (
        report.status == "ok"
        and all(d <= tol for d in report.max_rel_drift)
        and all(row["identity_gap"] <= tol for row in report.samples)
    )
    doc["_states"] = report.sampled_states  # stripped before serialization
    return doc


def _render_peakon(doc: dict) -> list[str]:
    lines = [
        f"peakon: n={doc['n']} dt={doc['dt']} samples={len(doc['samples'])} status={doc['status']}",
    ]
    for k, d in enumerate(doc["max_rel_drift"], start=1):
        lines.append(f"  H_{k} max relative drift: {d:.3e}")
    if doc["samples"]:
        gap = max(row["identity_gap"] for row in doc["samples"])
        lines.append(f"  max relative gap |c_k| vs H_k: {gap:.3e}")
    return lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canadaday",
        description="Exact verification campaigns for the Canada Day theorem "
        "and Novikov peakon conservation runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vt = sub.add_parser("verify-theorem", help="three-way minor-sum identity on random matrices")
    vt.add_argument("--n", type=int, default=5, help="largest size; the grid runs n=1..N")
    vt.add_argument("--k", type=int, default=None, help="restrict to one k (default: all)")
    vt.add_argument("--trials", type=int, default=20)
    vt.add_argument("--seed", type=int, default=42)
    vt.add_argument("--bound", type=int, default=9, help="entries drawn from [-bound, bound]")
    vt.add_argument(
        "--asymmetric",
        action="store_true",
        help="debug: use non-symmetric matrices; only the principal-of-TX vs S "
        "equality must hold",
    )
    _add_output_flags(vt)

    vl = sub.add_parser("verify-lemmas", help="exhaustive path-count and orbit lemma suites")
    vl.add_argument("--n", type=int, default=4, help="exhaustive bound")
    vl.add_argument("--seed", type=int, default=42)
    vl.add_argument("--bound", type=int, default=9)
    vl.add_argument(
        "--corrupt-sign",
        action="store_true",
        help="debug: falsify one sign-law result to self-test failure reporting",
    )
    _add_output_flags(vl)

    oa = sub.add_parser("orbit-audit", help="dump all flip-group orbits with signs and weights")
    oa.add_argument("--n", type=int, required=True)
    oa.add_argument("--k", type=int, required=True)
    oa.add_argument("--matrix", default=None, help="JSON matrix file (default: seeded random symmetric)")
    oa.add_argument("--seed", type=int, default=42)
    oa.add_argument("--bound", type=int, default=9)
    _add_output_flags(oa)

    la = sub.add_parser("lgv-audit", help="formula / determinant / path-count table for T minors")
    la.add_argument("--n", type=int, required=True)
    _add_output_flags(la)

    pk = sub.add_parser("peakon", help="integrate the peakon system and check conservation")
    pk.add_argument("--state", required=True, help='JSON file {"x": [...], "m": [...]}')
    pk.add_argument("--dt", type=float, default=1e-3)
    pk.add_argument("--t-end", type=float, default=2.0)
    pk.add_argument("--sample-every", type=int, default=10)
    pk.add_argument(
        "--tol",
        type=float,
        default=1e-7,
        help="max allowed relative drift of any H_k, and relative gap between |c_k| and H_k",
    )
    pk.add_argument("--collision-epsilon", type=float, default=DEFAULT_COLLISION_EPSILON)
    pk.add_argument("--wave-out", default=None, help="CSV of u(x, t) at every sample")
    pk.add_argument("--wave-min", type=float, default=-10.0)
    pk.add_argument("--wave-max", type=float, default=10.0)
    pk.add_argument("--wave-points", type=int, default=201)
    _add_output_flags(pk)

    wv = sub.add_parser("wave", help="sample the wave profile of a state file to CSV")
    wv.add_argument("--state", required=True)
    wv.add_argument("--x-min", type=float, default=-10.0)
    wv.add_argument("--x-max", type=float, default=10.0)
    wv.add_argument("--points", type=int, default=201)
    wv.add_argument("--out", required=True, help="CSV output path")

    return parser


def _json_text(o, indent: str = "") -> str:
    """`json.dumps(o, indent=2)`, byte for byte, in one recursive pass.

    With `indent` set, `json.dumps` runs the pure-Python encoder.  This
    renderer dispatches on the exact type, joins each container's rendered
    items with `str.join` and encodes strings with the C
    `encode_basestring_ascii`.  Ints and finite floats are their repr, as in
    `json.dumps`, and bool and None their JSON words; other scalars go to
    `json.dumps` itself, whose compact form of one scalar is the same."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int or (t is float and -math.inf < o < math.inf):
        return repr(o)
    if t is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    if t is not dict and t is not list and t is not tuple:
        if isinstance(o, dict):
            t = dict
        elif not isinstance(o, (list, tuple)):
            return json.dumps(o)
    if not o:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    if t is dict:
        items = [_json_key(k) + ": " + _json_text(v, inner) for k, v in o.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    items = [_json_text(v, inner) for v in o]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_key(k) -> str:
    """A dict key as `json.dumps` writes it: str as is; int, float, bool and
    None by their JSON text, then quoted."""
    if not isinstance(k, str):
        if k is not None and not isinstance(k, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def _emit(doc: dict, fmt: str, out: str | None, renderer) -> None:
    """Write the report as JSON, or as the renderer's lines plus the verdict."""
    if fmt == "json":
        payload = _json_text(doc) + "\n"
    else:
        payload = "\n".join(renderer(doc) + ["PASS" if doc["passed"] else "FAIL"]) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "verify-theorem":
            doc = run_theorem_campaign(
                args.n, args.k, args.trials, args.seed, args.bound, args.asymmetric
            )
            renderer = _render_theorem

        elif args.command == "verify-lemmas":
            doc = run_lemma_suite(args.n, args.seed, args.bound, args.corrupt_sign)
            renderer = _render_lemmas

        elif args.command == "orbit-audit":
            if args.matrix is not None:
                x = load_matrix(args.matrix)
                if (x.rows, x.cols) != (args.n, args.n):
                    raise DimensionError(
                        f"--n {args.n} does not match the {x.rows}x{x.cols} matrix in {args.matrix}"
                    )
            else:
                x = random_symmetric(args.n, _child_seed(args.seed, args.n, 0), args.bound)
            doc = run_orbit_audit(x, args.k)
            renderer = _render_orbit_audit

        elif args.command == "lgv-audit":
            doc = run_lgv_audit(args.n)
            renderer = _render_lgv_audit

        elif args.command == "peakon":
            state = load_state(args.state)
            grid = _grid(args.wave_min, args.wave_max, args.wave_points) if args.wave_out else None
            doc = run_peakon(
                state,
                args.dt,
                args.t_end,
                args.sample_every,
                args.tol,
                args.collision_epsilon,
            )
            states = doc.pop("_states")
            if grid is not None:
                _write_wave_csv(args.wave_out, states, grid)
            renderer = _render_peakon

        elif args.command == "wave":
            state = load_state(args.state)
            grid = _grid(args.x_min, args.x_max, args.points)
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "u"])
                for xv, uv in zip(grid, waveform(state, grid)):
                    writer.writerow([repr(float(xv)), repr(float(uv))])
            return 0

        else:
            raise AssertionError(f"unhandled command {args.command}")

        _emit(doc, args.format, args.out, renderer)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if doc["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
