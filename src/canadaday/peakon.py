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
fixed-step RK4 and measures the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "H_GUARD",
    "MAX_STEPS",
    "ConservationReport",
    "PeakonMatrices",
    "PeakonState",
    "build_matrices",
    "char_poly_coefficients",
    "constants_of_motion",
    "ode_rhs",
    "rk4_step",
    "simulate",
    "waveform",
]

# Each H_k gathers C(n,k)^2 k x k submatrices into one batched determinant
# call; at n=8 that is 12,869 minors per sample, and the minor count grows
# about 4x per step in n past it.
H_GUARD = 8

# simulate refuses more RK4 steps than this; one step at n=6 takes about
# 43 us, so the cap is about seven minutes of stepping there.
MAX_STEPS = 10**7

DEFAULT_COLLISION_EPSILON = 1e-6


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
        return bool(np.all(np.diff(self.x) > 0))

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


@dataclass(frozen=True, eq=False)
class PeakonMatrices:
    P: np.ndarray  # diag(m_1, ..., m_n)
    E: np.ndarray  # exp(-|x_i - x_j|)
    T: np.ndarray  # 1 + sgn(i - j)


def build_matrices(s: PeakonState) -> PeakonMatrices:
    diffs = s.x[:, None] - s.x[None, :]
    e = np.exp(-np.abs(diffs))
    idx = np.arange(s.n)
    t = 1.0 + np.sign(idx[:, None] - idx[None, :])
    return PeakonMatrices(P=np.diag(s.m), E=e, T=t)


def ode_rhs(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx, dm) of the peakon system at positions x and
    amplitudes m."""
    diffs = x[:, None] - x[None, :]
    e = np.exp(-np.abs(diffs))
    u = e @ m
    slope = (np.sign(diffs) * e) @ m
    return u**2, m * u * slope


def rk4_step(s: PeakonState, dt: float) -> PeakonState:
    """One classical 4th-order Runge-Kutta step; dt may be negative to step
    backwards."""
    x, m = s.x, s.m
    kx1, km1 = ode_rhs(x, m)
    kx2, km2 = ode_rhs(x + 0.5 * dt * kx1, m + 0.5 * dt * km1)
    kx3, km3 = ode_rhs(x + 0.5 * dt * kx2, m + 0.5 * dt * km2)
    kx4, km4 = ode_rhs(x + dt * kx3, m + dt * km3)
    return PeakonState(
        s.t + dt,
        x + dt / 6.0 * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4),
        m + dt / 6.0 * (km1 + 2.0 * km2 + 2.0 * km3 + km4),
    )


@lru_cache(maxsize=None)
def _subset_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices that gather every k x k submatrix of an n x n
    matrix, as an (C(n,k), C(n,k), k, k) stack in row-major (rows, cols)
    order.  Callers keep n <= H_GUARD, so the cache holds at most 28 pairs."""
    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    return subsets[:, None, :, None], subsets[None, :, None, :]


def _sum_all_minors_float(mat: np.ndarray, k: int) -> float:
    if k == 1:
        # A 1 x 1 determinant comes back as sign * exp(log|a|), not a.
        terms = mat.ravel().tolist()
    else:
        rows, cols = _subset_index(mat.shape[0], k)
        terms = np.linalg.det(mat[rows, cols]).ravel().tolist()
    # One addition at a time, in enumeration order: np.sum adds pairwise and
    # sum() compensates (Python >= 3.12), and either changes the last bits.
    total = 0.0
    for term in terms:
        total += term
    return total


def constants_of_motion(s: PeakonState) -> np.ndarray:
    """H_1 .. H_n, where H_k is the sum of all k x k minors of P E P; the
    C(n,k)^2 minors of each H_k are one batched determinant call."""
    if s.n > H_GUARD:
        raise ValueError(f"n={s.n} exceeds the guard {H_GUARD}")
    mats = build_matrices(s)
    pep = mats.P @ mats.E @ mats.P
    return np.array([_sum_all_minors_float(pep, k) for k in range(1, s.n + 1)])


def char_poly_coefficients(s: PeakonState) -> np.ndarray:
    """Coefficients c_0 .. c_n of det(I - lambda T P E P) by the
    Faddeev-LeVerrier trace recursion; a computation path with no minor
    enumeration in it, so comparing |c_k| to H_k exercises the identity."""
    mats = build_matrices(s)
    m = mats.T @ mats.P @ mats.E @ mats.P
    n = m.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    b = np.eye(n)
    for k in range(1, n + 1):
        mb = m @ b
        coeffs[k] = -np.trace(mb) / k
        b = mb + coeffs[k] * np.eye(n)
    return coeffs


def waveform(s: PeakonState, grid: np.ndarray) -> np.ndarray:
    """u(x) = sum_i m_i exp(-|x - x_i|) evaluated on the given grid."""
    grid = np.asarray(grid, dtype=float)
    return np.exp(-np.abs(grid[:, None] - s.x[None, :])) @ s.m


@dataclass
class ConservationReport:
    """Sampled conserved quantities along one integration, plus drift."""

    n: int
    dt: float
    samples: list[dict]
    max_rel_drift: list[float]
    status: str  # "ok" | "collision" | "numerical failure"
    sampled_states: list[PeakonState] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dt": self.dt,
            "samples": self.samples,
            "max_rel_drift": self.max_rel_drift,
            "status": self.status,
        }


def _health(s: PeakonState, collision_epsilon: float) -> str | None:
    if not (np.isfinite(s.x).all() and np.isfinite(s.m).all()):
        return "numerical failure"
    if s.n > 1:
        # The positions are finite here, so a gap <= 0 shows in the minimum.
        closest = (s.x[1:] - s.x[:-1]).min()
        if closest <= 0 or closest < collision_epsilon:
            return "collision"
    return None


def simulate(
    s0: PeakonState,
    dt: float,
    t_end: float,
    sample_every: int = 10,
    collision_epsilon: float = DEFAULT_COLLISION_EPSILON,
) -> ConservationReport:
    """Integrate for t_end time units with fixed step dt, recording H_k and
    the polynomial coefficients every sample_every steps (plus first and last).

    Aborts with a flagged partial report if positions get within
    collision_epsilon of each other (the smooth-ODE regime ends there) or if
    the state stops being finite.  Raises ValueError on a non-finite or
    non-positive dt or t_end, more than MAX_STEPS steps, a negative or
    non-finite collision_epsilon, or an initial state that fails
    `validate_initial`.
    """
    # Written so that NaN fails every check.
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end} / {dt} exceeds {MAX_STEPS} steps")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if not 0 <= collision_epsilon < math.inf:
        raise ValueError(f"collision_epsilon must be >= 0 and finite, got {collision_epsilon}")
    s0.validate_initial()

    steps = max(1, int(round(t_end / dt)))
    samples: list[dict] = []
    states: list[PeakonState] = []
    status = "ok"
    s = s0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            bad = _health(s, collision_epsilon)
            if bad is not None:
                status = bad
                break
            if step % sample_every == 0 or step == steps:
                h = constants_of_motion(s)
                c = char_poly_coefficients(s)
                if not (np.all(np.isfinite(h)) and np.all(np.isfinite(c))):
                    status = "numerical failure"
                    break
                # t0 + step*dt, not the sum of the steps, which drifts.
                s = PeakonState(s0.t + step * dt, s.x, s.m)
                samples.append({"t": s.t, "H": h.tolist(), "c": c.tolist()})
                states.append(s)
            if step < steps:
                s = rk4_step(s, dt)

    drift = _max_relative_drift(samples, s0.n)
    return ConservationReport(
        n=s0.n,
        dt=dt,
        samples=samples,
        max_rel_drift=drift,
        status=status,
        sampled_states=states,
    )


def _max_relative_drift(samples: list[dict], n: int) -> list[float]:
    if not samples:
        return []
    h0 = samples[0]["H"]
    out = []
    for k in range(n):
        denom = abs(h0[k]) if h0[k] != 0 else 1.0
        out.append(max(abs(row["H"][k] - h0[k]) for row in samples) / denom)
    return out
