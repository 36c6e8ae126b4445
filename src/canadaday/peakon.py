"""Multipeakon dynamics for the Novikov equation and the conserved quantities
the minor-sum identity explains.

The wave profile is u(x) = sum_i m_i exp(-|x - x_i|).  Positions and
amplitudes evolve by

    x_k' = u(x_k)^2
    m_k' = m_k * u(x_k) * sum_j m_j sgn(x_k - x_j) exp(-|x_k - x_j|)

with sgn(0) = 0.  Along this flow the quantities H_k = sum of all k x k
minors of the symmetric matrix P E P stay constant, and they match (up to
sign) the coefficients of det(I - lambda T P E P): the minor-sum identity
running live in floating point.  This module integrates the system with
fixed-step RK4 and measures the drift and the gap between the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, isfinite
from operator import lt, sub

import numpy as np

from .exact_linalg import as_index, read_json

__all__ = [
    "MAX_PEAKONS",
    "MAX_STEPS",
    "MAX_WAVE_POINTS",
    "ConservationReport",
    "PeakonState",
    "char_poly_coefficients",
    "constants_of_motion",
    "load_state",
    "simulate",
    "wave_grid",
    "waveform",
]

# simulate refuses more RK4 steps than this; one step at n=6 took 15 us on
# a shared 2-vCPU Xeon VM, so the cap is under three minutes of stepping.
MAX_STEPS = 10**7

# simulate refuses more peakons than this: each sample's H_k and c_k hold
# several n x n float arrays, 33 MB at their peak at the cap (an RK4 step
# holds O(n) floats, 0.34 MB at its peak), and a state file of 10^5
# positions would ask for hundreds of GB.
MAX_PEAKONS = 1000

DEFAULT_COLLISION_EPSILON = 1e-6

# The largest H_k drift and |c_k| vs H_k gap, both relative, of a passing run.
DEFAULT_TOL = 1e-7

# A wave CSV row per grid point and sampled state, so the grid is refused
# past this before any work; `waveform` itself runs in bounded row blocks.
MAX_WAVE_POINTS = 10**6

# waveform evaluates at most this many exponentials at once (8 MB of
# floats), in row blocks of a multiple of 64 grid points.  With BLAS on one
# thread the blocked products keep the bits of the one-shot product; with
# more threads the one-shot product's own bits change with the thread count
# at large sizes.
_WAVE_BLOCK_FLOATS = 2**20


@dataclass(frozen=True, eq=False)
class PeakonState:
    """Positions and amplitudes at one time instant."""

    t: float
    x: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.m.shape or self.x.size < 1:
            raise ValueError("x and m must be 1-d arrays of equal length >= 1")

    @property
    def n(self) -> int:
        return self.x.size

    def is_ordered(self) -> bool:
        # compared, not subtracted: a difference of finite positions can overflow
        return bool(np.all(self.x[1:] > self.x[:-1]))

    def validate_initial(self) -> None:
        """Initial states must be finite, with strictly increasing positions
        (so the index order matches the spatial order that T encodes) and
        positive amplitudes."""
        if not (math.isfinite(self.t) and np.isfinite(self.x).all() and np.isfinite(self.m).all()):
            raise ValueError(
                f"state must be finite, got t={self.t}, x={self.x.tolist()}, m={self.m.tolist()}"
            )
        if not self.is_ordered():
            raise ValueError(f"positions must be strictly increasing, got {self.x.tolist()}")
        if not np.all(self.m > 0):
            raise ValueError(f"amplitudes must be positive, got {self.m.tolist()}")


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
    d = read_json(path)
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


def _fault(y: list, n: int, collision_epsilon: float) -> str | None:
    """None, or why the packed state y = x + m of n peakons cannot be
    stepped: "numerical failure" when an entry is not finite, else
    "collision" when two neighbouring positions are less than
    collision_epsilon apart, or out of order."""
    if not all(map(isfinite, y)):
        return "numerical failure"
    if n > 1:
        # x_{l+1} - x_l for l = 1..n-1: map stops at the end of y[1:n].
        closest = min(map(sub, y[1:n], y))
        if closest <= 0 or closest < collision_epsilon:
            return "collision"
    return None


def _step(y: list, n: int, dt: float) -> str | None:
    """One classical RK4 step of dt, in place, on the packed state y = x + m
    of n peakons, a list of Python floats; None, or why a stage could not be
    taken.

    Each stage takes the right-hand side in O(n) with no n x n array.  With
    q_l = exp(x_l - x_{l+1}), the parts of u(x_k) from the peakons strictly
    left and right of k are

        L_k = q_{k-1} (L_{k-1} + m_{k-1}),   R_k = q_k (R_{k+1} + m_{k+1}),

    with L_1 = R_n = 0, so u_k = m_k + L_k + R_k, x'_k = u_k^2 and
    m'_k = m_k u_k (L_k - R_k).  The recurrences have no subtraction, and
    each exp gets a negative argument.  A stage makes two passes: right to
    left for q and R, then left to right for L, u and both derivatives,
    which the same pass adds into the running sum k1 + 2 k2 + 2 k3 + k4 and
    turns into the next stage's state y + h k, or at the last stage into
    y + dt/6 times the sum.  Every float operation is the unfused stepper's,
    in its order, so the states keep its bits; it is the tests' reference.

    A stage whose positions are not finite and strictly increasing is not
    evaluated: y is left as it was, and the step returns "collision" for a
    finite gap <= 0, "numerical failure" for a non-finite position.  A
    non-finite amplitude in a stage carries into the stepped state, where
    `_fault` finds it.  The states match the textbook array formulas, which
    stay in the tests as the oracle, to rounding, not exactly.
    """
    x0, m0 = y[:n], y[n:]
    x, m = x0, m0  # the stage state; from stage 2 on, rewritten in place
    sx, sm, r = [0.0] * n, [0.0] * n, [0.0] * n  # the running sum and R
    zx, zm = [0.0] * n, [0.0] * n
    for stage, h in enumerate((0.5 * dt, 0.5 * dt, dt, dt / 6.0)):
        right = x[1:]
        # Strictly increasing neighbours leave no NaN, and an infinity only
        # at an end.
        if not (all(map(lt, x, right)) and isfinite(x[0]) and isfinite(x[-1])):
            return _fault(x + m, n, 0.0)
        q = list(map(exp, map(sub, x, right)))
        acc = 0.0
        for l in range(n - 2, -1, -1):
            acc = q[l] * (acc + m[l + 1])
            r[l] = acc
        q.append(0.0)  # goes with k = n, whose L_{n+1} is not needed
        left = 0.0
        for k in range(n):
            mk, rk = m[k], r[k]
            uk = mk + left + rk
            dx = uk * uk
            dm = mk * uk * (left - rk)
            if stage == 0:
                sx[k], sm[k] = dx, dm
            elif stage < 3:
                sx[k] += 2.0 * dx
                sm[k] += 2.0 * dm
            else:
                dx += sx[k]
                dm += sm[k]
            zx[k] = x0[k] + h * dx
            zm[k] = m0[k] + h * dm
            left = q[k] * (left + mk)
        x, m = zx, zm
    y[:] = x + m
    return None


def constants_of_motion(s: PeakonState) -> np.ndarray:
    """H_1 .. H_n, where H_k is the sum of all k x k minors of P E P.

    With x non-decreasing, the k x k minor of P E P on rows I and columns J
    vanishes unless I and J interlace, and then it factors over k ordered
    blocks a_1 <= b_1 < a_2 <= b_2 < ..., where {i_r, j_r} = {a_r, b_r}:
    block r weighs m_a m_b e^{-(x_b - x_a)}, twice that when a < b (the
    block's two orientations), and the gap after it 1 - e^{-2(x_a' - x_b)}
    up to the next block's a'.  A chain sum over blocks, one level per k,
    takes all n values in O(n^3).  Raises ValueError when x decreases
    anywhere, where the factorisation does not hold.
    """
    x, m = s.x, s.m
    if not np.all(x[1:] >= x[:-1]):
        raise ValueError(f"positions must be non-decreasing, got {x.tolist()}")
    dist = np.abs(x[None, :] - x[:, None])  # x_b - x_a above the diagonal
    block = np.triu(np.exp(-dist) * np.outer(m, m)) * (2.0 - np.eye(s.n))
    gap = np.triu(-np.expm1(-2.0 * dist), 1)
    chains = block.sum(axis=0)  # chains[b]: one block, ending at b
    h = [chains.sum()]
    for _ in range(1, s.n):
        chains = (chains @ gap) @ block
        h.append(chains.sum())
    return np.array(h)


def char_poly_coefficients(s: PeakonState) -> np.ndarray:
    """Coefficients c_0 .. c_n of det(I - lambda T P E P) = prod_i (1 - lambda
    mu_i), from the eigenvalues mu of T P E P; a computation path with no
    minor enumeration in it, so comparing |c_k| to H_k exercises the
    identity.  NaN throughout when T P E P is not finite."""
    e = np.exp(-np.abs(s.x[:, None] - s.x[None, :]))
    t = 2.0 * np.tri(s.n) - np.eye(s.n)  # 1 + sgn(i - j)
    # P = diag(m) only scales columns: each entry of a product by P is one
    # rounded product plus exact zeros, so this has the bits of T @ P @ E @ P.
    tpep = ((t * s.m) @ e) * s.m
    if not np.isfinite(tpep).all():
        return np.full(s.n + 1, math.nan)
    return np.poly(np.linalg.eigvals(tpep)).real


def wave_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """`points` evenly spaced grid points from lo to hi, refused past
    MAX_WAVE_POINTS or with non-finite bounds."""
    points = as_index(points)
    if not 1 <= points <= MAX_WAVE_POINTS:
        raise ValueError(f"the wave grid needs 1 to {MAX_WAVE_POINTS} points, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the wave grid bounds must be finite, got {lo} and {hi}")
    return np.linspace(lo, hi, points)


def waveform(s: PeakonState, grid: np.ndarray) -> np.ndarray:
    """u(x) = sum_i m_i exp(-|x - x_i|) evaluated on the given grid."""
    grid = np.asarray(grid, dtype=float)
    rows = max(64, _WAVE_BLOCK_FLOATS // max(s.n, 1) // 64 * 64)
    u = np.empty(len(grid))
    for lo in range(0, len(grid), rows):
        block = grid[lo : lo + rows]
        u[lo : lo + rows] = np.exp(-np.abs(block[:, None] - s.x[None, :])) @ s.m
    return u


@dataclass
class ConservationReport:
    """Sampled conserved quantities along one integration, plus drift."""

    n: int
    dt: float
    samples: list[dict]
    max_rel_drift: list[float]
    status: str  # "ok" | "collision" | "numerical failure"
    tol: float
    sampled_states: list[PeakonState] = field(default_factory=list, repr=False)

    @property
    def passed(self) -> bool:
        """The run ended "ok" with every drift and identity gap <= tol."""
        return (
            self.status == "ok"
            and all(d <= self.tol for d in self.max_rel_drift)
            and all(row["identity_gap"] <= self.tol for row in self.samples)
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dt": self.dt,
            "samples": self.samples,
            "max_rel_drift": self.max_rel_drift,
            "status": self.status,
            "tol": self.tol,
            "passed": self.passed,
        }


def simulate(
    s0: PeakonState,
    dt: float,
    t_end: float,
    sample_every: int = 10,
    collision_epsilon: float = DEFAULT_COLLISION_EPSILON,
    tol: float = DEFAULT_TOL,
) -> ConservationReport:
    """Integrate for t_end time units with fixed step dt, recording H_k, the
    polynomial coefficients and the identity gap (the largest relative
    difference between |c_k| and H_k) every sample_every steps (plus first
    and last).

    Aborts with a flagged partial report if positions get within
    collision_epsilon of each other (the smooth-ODE regime ends there) or if
    the state stops being finite.  Raises ValueError on a non-finite or
    non-positive dt or t_end, more than MAX_STEPS steps, more than
    MAX_PEAKONS peakons, a sample_every that is not an integer >= 1, a
    negative or non-finite collision_epsilon or tol, or an initial state
    that fails `validate_initial`.
    """
    # Written so that NaN fails every check.
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end} / {dt} exceeds {MAX_STEPS} steps")
    if s0.n > MAX_PEAKONS:
        raise ValueError(f"n={s0.n} peakons exceeds {MAX_PEAKONS}")
    sample_every = as_index(sample_every)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if not 0 <= collision_epsilon < math.inf:
        raise ValueError(f"collision_epsilon must be >= 0 and finite, got {collision_epsilon}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    s0.validate_initial()

    n = s0.n
    steps = max(1, int(round(t_end / dt)))
    samples: list[dict] = []
    states: list[PeakonState] = []
    status = "ok"
    y = s0.x.tolist() + s0.m.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            bad = _fault(y, n, collision_epsilon)
            if bad is not None:
                status = bad
                break
            if step % sample_every == 0 or step == steps:
                # t0 + step*dt, not the sum of the steps, which drifts.
                s = PeakonState(s0.t + step * dt, y[:n], y[n:])
                h = constants_of_motion(s)
                c = char_poly_coefficients(s)
                if not (np.isfinite(h).all() and np.isfinite(c).all()):
                    status = "numerical failure"
                    break
                gap = _identity_gap(h, c)
                samples.append({"t": s.t, "H": h.tolist(), "c": c.tolist(), "identity_gap": gap})
                states.append(s)
            if step < steps:
                bad = _step(y, n, dt)
                if bad is not None:
                    status = bad
                    break

    return ConservationReport(
        n=n,
        dt=dt,
        samples=samples,
        max_rel_drift=_max_relative_drift(samples),
        status=status,
        tol=tol,
        sampled_states=states,
    )


def _identity_gap(h: np.ndarray, c: np.ndarray) -> float:
    """max_k ||c_k| - H_k| / |H_k|, with denominator 1 where H_k = 0."""
    denom = np.where(h != 0, np.abs(h), 1.0)
    return float((np.abs(np.abs(c[1:]) - h) / denom).max())


def _max_relative_drift(samples: list[dict]) -> list[float]:
    """max over the samples of |H_k - H_k(0)| / |H_k(0)|, with denominator 1
    where H_k(0) = 0."""
    if not samples:
        return []
    h = np.array([row["H"] for row in samples])
    with np.errstate(over="ignore"):  # inf, silently, as float arithmetic gives
        return (np.abs(h - h[0]).max(axis=0) / np.where(h[0] != 0, np.abs(h[0]), 1.0)).tolist()
