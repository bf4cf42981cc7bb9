"""Replicator and selection-mutation dynamics on the strategy simplex."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, SpecError, check_recorded
from .output import write_csv

NEGATIVE_DRIFT_TOL = -1e-12


@dataclass(frozen=True)
class PopulationState:
    x: np.ndarray


@dataclass(frozen=True)
class DynamicsParams:
    alpha: float = 1.0  # learning-rate scale of the selection-mutation flow
    tau: float = 1.0    # exploitation weight on the selection term
    dt: float = 0.01
    steps: int = 1000

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.tau)):
            raise SpecError("alpha and tau must be finite")
        if not 0.0 < self.dt < np.inf:
            raise SpecError(f"dt {self.dt} must be finite and positive")
        if self.steps < 1:
            raise SpecError(f"steps {self.steps} must be at least 1")
        check_recorded(self.steps + 1, steps=self.steps)  # a trajectory row per step


def population_state(x) -> PopulationState:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise SpecError("population state must be a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise SpecError("population state has non-finite entries")
    if v.min() < NEGATIVE_DRIFT_TOL:
        raise SpecError(f"population state has negative mass {v.min():g}")
    with np.errstate(over="ignore"):  # finite entries may still sum to inf
        total = v.sum()
    if abs(total - 1.0) > 1e-9:
        raise SpecError(f"population state sums to {total:.17g}")
    v = np.where(v > 0.0, v, 0.0)
    v = v / v.sum()
    v.setflags(write=False)
    return PopulationState(v)


def _vec(x) -> np.ndarray:
    return x.x if isinstance(x, PopulationState) else np.asarray(x, dtype=float)


def _square_matrix(payoff_matrix, size: int | None = None) -> np.ndarray:
    a = np.asarray(payoff_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError(f"payoff matrix shape {a.shape} is not square")
    if size is not None and a.shape[0] != size:
        raise SpecError("payoff matrix does not match the state dimension")
    if not np.all(np.isfinite(a)):
        raise SpecError("payoff matrix has non-finite entries")
    return a


def replicator_derivative(payoff_matrix, x) -> np.ndarray:
    """x_i * ((Ax)_i - x'Ax): growth proportional to excess fitness."""
    v = _vec(x)
    a = _square_matrix(payoff_matrix, v.size)
    fitness = a @ v
    return v * (fitness - v @ fitness)


def integrate_replicator(payoff_matrix, x0, params: DynamicsParams, method: str = "rk4") -> np.ndarray:
    """Fixed-step integration; returns the trajectory including the start
    state, shape (steps + 1, dims). Each step clips stray negative mass to
    zero and renormalizes; a non-finite state, or mass below
    NEGATIVE_DRIFT_TOL before the clip (dt too large), aborts with the step."""
    if method not in ("rk4", "euler"):
        raise SpecError(f"unknown integration method {method!r}")
    v = _vec(population_state(_vec(x0)))
    a = _square_matrix(payoff_matrix, v.size)
    dt = params.dt
    traj = np.empty((params.steps + 1, v.size))
    traj[0] = v

    def deriv(y):
        fitness = a @ y
        return y * (fitness - y @ fitness)

    for step in range(1, params.steps + 1):
        if method == "rk4":
            k1 = deriv(v)
            k2 = deriv(v + 0.5 * dt * k1)
            k3 = deriv(v + 0.5 * dt * k2)
            k4 = deriv(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            v = v + dt * deriv(v)
        if not np.all(np.isfinite(v)):
            raise IntegrationError(step)
        if v.min() < NEGATIVE_DRIFT_TOL:
            raise IntegrationError(step, f"negative mass {v.min():g}")
        v = np.where(v > 0.0, v, 0.0)
        v = v / v.sum()
        traj[step] = v
    return traj


def discrete_replicator_step(payoff_matrix, x, shift: float = 0.0) -> PopulationState:
    """One generation of x_i' = x_i ((Ax)_i + shift) / (x'Ax + shift)."""
    v = _vec(x)
    a = _square_matrix(payoff_matrix, v.size)
    fitness = a @ v + shift
    if fitness.min() <= 0.0:
        raise SpecError(
            f"shifted fitness has nonpositive entry {fitness.min():g}; raise shift"
        )
    avg = v @ (a @ v) + shift
    return population_state(v * fitness / avg)


def boltzmann_policy(q, tau: float) -> np.ndarray:
    """Softmax over e^(tau * q) with max subtraction; tau = 0 is uniform,
    large tau concentrates on the argmax."""
    values = np.asarray(q, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise SpecError("q must be a nonempty vector")
    if not np.all(np.isfinite(values)) or not np.isfinite(tau):
        raise SpecError("q and tau must be finite")
    z = tau * values
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def selection_mutation_derivative(payoff_matrix, x, opponent_x, params: DynamicsParams) -> np.ndarray:
    """Two-population learning flow: a tau-weighted replicator selection
    term against the opponent population plus an entropy-driven mutation
    term, both scaled by alpha. Convention 0 ln 0 = 0."""
    v = _vec(x)
    w = _vec(opponent_x)
    a = np.asarray(payoff_matrix, dtype=float)
    if a.ndim != 2 or a.shape != (v.size, w.size):
        raise SpecError(f"payoff matrix shape {a.shape} does not match populations")
    if not np.all(np.isfinite(a)):
        raise SpecError("payoff matrix has non-finite entries")
    fitness = a @ w
    selection = v * (fitness - v @ fitness)
    xlnx = np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    mutation = v * xlnx.sum() - xlnx
    return params.alpha * (params.tau * selection + mutation)


def fixed_point_check(payoff_matrix, x, tol: float) -> bool:
    """True iff the replicator field vanishes at x in the sup norm."""
    if tol < 0:
        raise SpecError("tol must be nonnegative")
    return bool(np.max(np.abs(replicator_derivative(payoff_matrix, x))) <= tol)


def write_trajectory_csv(path, trajectory, dt: float) -> None:
    """Trajectory dump: columns t, x_1 .. x_m."""
    traj = np.asarray(trajectory, dtype=float)
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.shape[1])]
    write_csv(path, header, ([i * dt, *row] for i, row in enumerate(traj)))
