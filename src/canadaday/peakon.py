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

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = [
    "H_GUARD",
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

# Each H_k costs C(n,k)^2 small determinants; past this n the sampling
# dominates the run.
H_GUARD = 8

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
        """Initial states must have strictly increasing positions (so the
        index order matches the spatial order that T encodes) and positive
        amplitudes."""
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


def ode_rhs(s: PeakonState) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx, dm) of the peakon system."""
    diffs = s.x[:, None] - s.x[None, :]
    e = np.exp(-np.abs(diffs))
    u = e @ s.m
    slope = (np.sign(diffs) * e) @ s.m
    return u**2, s.m * u * slope


def rk4_step(s: PeakonState, dt: float) -> PeakonState:
    """One classical 4th-order Runge-Kutta step; dt may be negative to step
    backwards."""

    def at(x, m):
        return ode_rhs(PeakonState(0.0, x, m))

    kx1, km1 = at(s.x, s.m)
    kx2, km2 = at(s.x + 0.5 * dt * kx1, s.m + 0.5 * dt * km1)
    kx3, km3 = at(s.x + 0.5 * dt * kx2, s.m + 0.5 * dt * km2)
    kx4, km4 = at(s.x + dt * kx3, s.m + dt * km3)
    return PeakonState(
        s.t + dt,
        s.x + dt / 6.0 * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4),
        s.m + dt / 6.0 * (km1 + 2.0 * km2 + 2.0 * km3 + km4),
    )


def _sum_all_minors_float(mat: np.ndarray, k: int) -> float:
    n = mat.shape[0]
    subsets = list(combinations(range(n), k))
    total = 0.0
    for rows in subsets:
        for cols in subsets:
            sub = mat[np.ix_(rows, cols)]
            total += sub[0, 0] if k == 1 else float(np.linalg.det(sub))
    return total


def constants_of_motion(s: PeakonState) -> np.ndarray:
    """H_1 .. H_n, where H_k is the sum of all k x k minors of P E P,
    enumerated brute-force just like the exact module does."""
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
    if not (np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.m))):
        return "numerical failure"
    gaps = np.diff(s.x)
    if s.n > 1 and (np.any(gaps <= 0) or np.min(gaps) < collision_epsilon):
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
    the state stops being finite.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
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
