"""Command-line front end: parses the flags, dispatches each command to the
library module that owns its report and verdict, and renders the report as
text or JSON, or the wave profile as CSV.

Every command is deterministic given its flags: the same config and seed
produce byte-identical JSON.  Exit code 0 means every reported check passed;
failures serialize a minimal witness for offline replay; bad input exits 2.

Each handler imports its library module when it runs, so a process loads
only the modules of its command: `exact_linalg` always, and numpy only for
`peakon` and `wave`.  The parser is built on the first `main` call, not at
import, and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .exact_linalg import DimensionError, child_seed, load_matrix, random_symmetric

__all__ = ["main"]

# bench/tests/test_perfbench.py::test_campaign_matrix_matches_the_program_generator
# reads the campaign seed rule under this name.
_child_seed = child_seed


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


def _render_lemmas(doc: dict) -> list[str]:
    lines = [f"verify-lemmas: n<={doc['config']['n_max']}"]
    for c in doc["checks"]:
        lines.append(f"  {c['name']}: {'ok' if c['passed'] else 'FAILED ' + json.dumps(c['witness'])}")
    return lines


def _render_orbit_audit(doc: dict) -> list[str]:
    lines = [f"orbit-audit: n={doc['n']} k={doc['k']} orbits={doc['orbit_count']}"]
    for key, value in doc["totals"].items():
        lines.append(f"  {key}: {value}")
    return lines


def _render_lgv_audit(doc: dict) -> list[str]:
    disagreements = sum(not row["agree"] for row in doc["table"])
    return [f"lgv-audit: n={doc['n']} pairs={doc['pair_count']} disagreements={disagreements}"]


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


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first `main` call and reused
    by every later call in the process.  `parse_args` leaves the parser as it
    was, and a help or usage text is formatted when it is printed, at the
    terminal width of that moment."""
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
    # No default here for --tol and --collision-epsilon: `simulate`'s own apply.
    pk.add_argument(
        "--tol",
        type=float,
        help="max allowed relative drift of any H_k, and relative gap between |c_k| and H_k",
    )
    pk.add_argument("--collision-epsilon", type=float)
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
    `json.dumps` itself, whose compact form of one scalar is the same.  A
    container renders its items of exact type str or int (and its str keys)
    inline, without a call; the exact-type test leaves bool, and subclasses
    such as an IntEnum, to the dispatch above."""
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
    enc = encode_basestring_ascii
    if t is dict:
        items = [
            (enc(k) if type(k) is str else _json_key(k))
            + ": "
            + (enc(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner))
            for k, v in o.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    items = [
        enc(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner)
        for v in o
    ]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_key(k) -> str:
    """A dict key as `json.dumps` writes it: str as is; int, float, bool and
    None by their JSON text, then quoted."""
    if not isinstance(k, str):
        if k is not None and not isinstance(k, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Write rows of floats as CSV, each value as its repr."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def _theorem(a) -> dict:
    from .minor_sums import theorem_campaign

    return theorem_campaign(a.n, a.k, a.trials, a.seed, a.bound, a.asymmetric)


def _lemmas(a) -> dict:
    from .lemmas import lemma_report

    return lemma_report(a.n, a.seed, a.bound, a.corrupt_sign)


def _orbit_audit(a) -> dict:
    from .matchings import orbit_audit
    from .minor_sums import check_entry_bits

    check_entry_bits(a.bound, "the entry bound")
    if a.matrix is None:
        x = random_symmetric(a.n, child_seed(a.seed, a.n, 0), a.bound)
    else:
        x = load_matrix(a.matrix)
        if (x.rows, x.cols) != (a.n, a.n):
            raise DimensionError(
                f"--n {a.n} does not match the {x.rows}x{x.cols} matrix in {a.matrix}"
            )
    return orbit_audit(x, a.k)


def _lgv_audit(a) -> dict:
    from .lgv import audit

    return audit(a.n)


def _peakon(a) -> dict:
    from .peakon import load_state, simulate, wave_grid, waveform

    state = load_state(a.state)
    grid = wave_grid(a.wave_min, a.wave_max, a.wave_points) if a.wave_out else None
    limits = {"collision_epsilon": a.collision_epsilon, "tol": a.tol}
    report = simulate(
        state, a.dt, a.t_end, a.sample_every, **{k: v for k, v in limits.items() if v is not None}
    )
    if grid is not None:
        states = report.sampled_states
        rows = ((s.t, xv, uv) for s in states for xv, uv in zip(grid, waveform(s, grid)))
        _write_csv(a.wave_out, ("t", "x", "u"), rows)
    return report.to_json_dict()


def _wave(a) -> int:
    from .peakon import load_state, wave_grid, waveform

    state = load_state(a.state)
    grid = wave_grid(a.x_min, a.x_max, a.points)
    _write_csv(a.out, ("x", "u"), zip(grid, waveform(state, grid)))
    return 0


def _reported(build, renderer):
    """A handler that builds the command's report from the flags, writes it as
    JSON or as text lines plus the verdict, and returns 0 on PASS, 1 on FAIL."""

    def handler(a) -> int:
        doc = build(a)
        if a.format == "json":
            payload = _json_text(doc) + "\n"
        else:
            payload = "\n".join(renderer(doc) + ["PASS" if doc["passed"] else "FAIL"]) + "\n"
        if a.out:
            with open(a.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0 if doc["passed"] else 1

    return handler


_COMMANDS = {
    "verify-theorem": _reported(_theorem, _render_theorem),
    "verify-lemmas": _reported(_lemmas, _render_lemmas),
    "orbit-audit": _reported(_orbit_audit, _render_orbit_audit),
    "lgv-audit": _reported(_lgv_audit, _render_lgv_audit),
    "peakon": _reported(_peakon, _render_peakon),
    "wave": _wave,
}


def _require_out_paths(a) -> None:
    """Refuse, before any work, an output path that is a directory or whose
    directory is missing."""
    for flag in ("out", "wave_out"):
        path = getattr(a, flag, None) or ""
        directory = os.path.dirname(path)
        if os.path.isdir(path):
            raise IsADirectoryError(f"--{flag.replace('_', '-')} {path}: is a directory")
        if directory and not os.path.isdir(directory):
            raise FileNotFoundError(f"--{flag.replace('_', '-')} {path}: no directory {directory}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require_out_paths(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
