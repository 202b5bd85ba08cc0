"""Runtime verification of the solver's conserved and bounded quantities.

Two instruments ride along with every run. A RepresentationAccumulator
maintains the ingredients of a closed-form representation of the specific
volume (an initial-data factor, a factor built from the cumulative velocity
change, a factor from the volume dependence of the viscosity, and a running
time integral of temperature over the product of the latter two); its
residual against the evolved v measures how faithfully the discrete
trajectory satisfies an identity the continuum solution satisfies exactly.
A BoundTracker maintains the norm functionals that the continuum theory
proves bounded: positivity floors, gradient norms, and space-time integrals
of the acceleration and second velocity differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constitutive import MaterialParams, branch_weight, pressure, stress, viscosity
from .grid import (
    Grid,
    State,
    cell_integral,
    cumulative_u_integral,
    du_dx_cells,
    grad_l2_sq,
    node_weights,
    total_energy,
    wall_values,
)
from .scheme import BoundaryKind

__all__ = [
    "initial_volume_factor",
    "velocity_integral_factor",
    "viscosity_volume_factor",
    "RepresentationAccumulator",
    "make_accumulator",
    "update_accumulator",
    "representation_residual",
    "velocity_band_check",
    "BoundTracker",
    "make_tracker",
    "update_bounds",
    "energy_drift",
    "boundary_stress_residual",
    "stress_magnitude_scale",
]


def initial_volume_factor(v0: np.ndarray, alpha: float) -> np.ndarray:
    """Frozen initial-data factor: exp(ln v0 - 1/(alpha*v0**alpha)), or v0 itself
    when alpha = 0."""
    if alpha == 0.0:
        return v0.copy()
    return np.exp(np.log(v0) - np.exp(-alpha * np.log(v0)) / alpha)


def velocity_integral_factor(
    u: np.ndarray, u0: np.ndarray, grid: Grid, k: float
) -> np.ndarray:
    """exp(k * integral of (u - u0) from 0 to x), averaged to cell centers.

    The cumulative integral lives on nodes; adjacent node values are
    averaged before exponentiating so the factor is colocated with v.
    """
    cumulative = cumulative_u_integral(u, u0, grid)
    return np.exp(k * 0.5 * (cumulative[:-1] + cumulative[1:]))


def viscosity_volume_factor(v: np.ndarray, alpha: float) -> np.ndarray:
    """exp(1/(alpha*v**alpha)) from the volume term of the viscosity; ones
    when alpha = 0."""
    if alpha == 0.0:
        return np.ones_like(v)
    return np.exp(np.exp(-alpha * np.log(v)) / alpha)


@dataclass
class RepresentationAccumulator:
    """Running state of the closed-form volume representation.

    b0 and u0_nodes are frozen at t = 0; time_integral accumulates
    theta/(velocity factor * viscosity factor) per cell by the trapezoid
    rule; e0 feeds the energy band on the velocity factor.
    """

    b0: np.ndarray
    u0_nodes: np.ndarray
    k: float
    time_integral: np.ndarray
    last_integrand: np.ndarray
    t: float
    e0: float
    monotone_ok: bool = True

    def velocity_factor(self, state: State, grid: Grid) -> np.ndarray:
        """The velocity-integral factor of state against the frozen u0."""
        return velocity_integral_factor(state.u, self.u0_nodes, grid, self.k)


def _integrand(state: State, alpha: float, d1: np.ndarray) -> np.ndarray:
    return state.theta / (d1 * viscosity_volume_factor(state.v, alpha))


def make_accumulator(
    state: State, grid: Grid, params: MaterialParams
) -> RepresentationAccumulator:
    """Freeze the initial data and start the time integral at zero."""
    acc = RepresentationAccumulator(
        b0=initial_volume_factor(state.v, params.alpha),
        u0_nodes=state.u.copy(),
        k=branch_weight(params.alpha),
        time_integral=np.zeros(grid.n_cells),
        last_integrand=np.empty(grid.n_cells),
        t=state.t,
        e0=total_energy(state, grid, params.c_v),
    )
    acc.last_integrand = _integrand(
        state, params.alpha, acc.velocity_factor(state, grid)
    )
    return acc


def update_accumulator(
    acc: RepresentationAccumulator,
    state: State,
    dt: float,
    alpha: float,
    velocity_factor: np.ndarray,
) -> RepresentationAccumulator:
    """Advance the time integral one accepted step by the trapezoid rule.

    velocity_factor is acc.velocity_factor(state, grid), computed once per
    step by the caller and shared with velocity_band_check.
    """
    integrand = _integrand(state, alpha, velocity_factor)
    increment = 0.5 * dt * (acc.last_integrand + integrand)
    if not increment.min() >= 0.0:  # also catches NaN
        acc.monotone_ok = False
    acc.time_integral += increment
    acc.last_integrand = integrand
    acc.t += dt
    return acc


def representation_residual(
    state: State, acc: RepresentationAccumulator, grid: Grid, alpha: float
) -> float:
    """Relative max-norm defect of the closed-form volume representation.

    Zero to rounding at t = 0 for any positive v0 and either alpha branch,
    since the two exponential factors cancel algebraically there.
    """
    if abs(acc.t - state.t) > 1e-9 * max(1.0, abs(state.t)):
        raise ValueError(
            f"accumulator at t = {acc.t} is out of sync with state at t = {state.t}"
        )
    d1 = acc.velocity_factor(state, grid)
    d2 = viscosity_volume_factor(state.v, alpha)
    predicted = d1 * d2 * (acc.b0 + acc.k * acc.time_integral)
    return float(np.max(np.abs(state.v - predicted)) / np.max(state.v))


def velocity_band_check(
    acc: RepresentationAccumulator, velocity_factor: np.ndarray
) -> tuple[bool, float]:
    """Energy band on the velocity-integral factor of a state.

    The cumulative velocity change is bounded through the conserved energy,
    so the factor acc.velocity_factor(state, grid) must stay inside
    [exp(-k*s), exp(k*s)] with s = sqrt(2*e0). Returns membership and the
    worst absolute margin to either edge (negative when outside).
    """
    s = np.sqrt(2.0 * acc.e0)
    lo = np.exp(-acc.k * s)
    hi = np.exp(acc.k * s)
    margin = float(min((velocity_factor - lo).min(), (hi - velocity_factor).min()))
    return margin >= 0.0, margin


@dataclass
class BoundTracker:
    """Running extrema and space-time integrals of the bounded functionals.

    weights holds the trapezoid node weights of the grid, built once.
    """

    params: MaterialParams
    weights: np.ndarray
    e0: float
    min_v: float
    min_theta: float
    sup_grad_v_sq: float
    sup_grad_theta_sq: float
    sup_u_x_sq: float
    sup_stress_scale: float
    max_energy_drift: float = 0.0
    int_max_theta: float = 0.0
    int_uxx_sq: float = 0.0
    int_ut_sq: float = 0.0
    monotone_ok: bool = True


def _stress_scale(
    v: np.ndarray, theta: np.ndarray, g: np.ndarray, params: MaterialParams
) -> float:
    scale = viscosity(v, params) * np.abs(g) / v + pressure(v, theta, params)
    return float(scale.max())


def stress_magnitude_scale(state: State, params: MaterialParams, grid: Grid) -> float:
    """Largest cellwise magnitude of the stress ingredients mu|u_x|/v + P.

    This is the natural size of the stress components even when the total
    stress nearly cancels, which it does throughout a stress-free run; it
    normalizes the boundary-residual bound.
    """
    return _stress_scale(state.v, state.theta, du_dx_cells(state.u, grid), params)


def make_tracker(state: State, grid: Grid, params: MaterialParams) -> BoundTracker:
    g = du_dx_cells(state.u, grid)
    return BoundTracker(
        params=params,
        weights=node_weights(grid),
        e0=total_energy(state, grid, params.c_v),
        min_v=float(np.min(state.v)),
        min_theta=float(np.min(state.theta)),
        sup_grad_v_sq=grad_l2_sq(state.v, grid),
        sup_grad_theta_sq=grad_l2_sq(state.theta, grid),
        sup_u_x_sq=cell_integral(g * g, grid),
        sup_stress_scale=stress_magnitude_scale(state, params, grid),
    )


def update_bounds(
    tracker: BoundTracker,
    state_prev: State,
    state: State,
    dt: float,
    grid: Grid,
) -> BoundTracker:
    """Fold one accepted step into the tracker.

    Sup trackers take the new state; time integrals use the left-rectangle
    rule (previous state), with the acceleration integral built from the
    difference quotient over the step. Every value is the grid helper's
    (grad_l2_sq, cell_integral, total_energy), written out with the same
    operand order so the results are bit-identical.
    """
    dx = grid.dx
    w = tracker.weights
    params = tracker.params
    v, u, theta = state.v, state.u, state.theta
    u_prev = state_prev.u
    g = np.diff(u) / dx
    dv = np.diff(v)
    dtheta = np.diff(theta)

    before = (tracker.int_max_theta, tracker.int_uxx_sq, tracker.int_ut_sq)
    tracker.min_v = min(tracker.min_v, float(v.min()))
    tracker.min_theta = min(tracker.min_theta, float(theta.min()))
    tracker.sup_grad_v_sq = max(tracker.sup_grad_v_sq, float(dv @ dv / dx))
    tracker.sup_grad_theta_sq = max(
        tracker.sup_grad_theta_sq, float(dtheta @ dtheta / dx)
    )
    tracker.sup_u_x_sq = max(tracker.sup_u_x_sq, float(dx * (g * g).sum()))
    tracker.sup_stress_scale = max(
        tracker.sup_stress_scale, _stress_scale(v, theta, g, params)
    )

    tracker.int_max_theta += dt * float(state_prev.theta.max())
    uxx = (u_prev[2:] - 2.0 * u_prev[1:-1] + u_prev[:-2]) / dx**2
    tracker.int_uxx_sq += dt * dx * float(uxx @ uxx)
    du_dt = (u - u_prev) / dt
    tracker.int_ut_sq += dt * float(w @ (du_dt * du_dt))

    energy = params.c_v * float(dx * theta.sum()) + 0.5 * float(w @ (u * u))
    tracker.max_energy_drift = max(
        tracker.max_energy_drift, _relative_drift(energy, tracker.e0)
    )

    after = (tracker.int_max_theta, tracker.int_uxx_sq, tracker.int_ut_sq)
    if not all(map(math.isfinite, after)) or any(a < b for a, b in zip(after, before)):
        tracker.monotone_ok = False
    return tracker


def _relative_drift(e: float, e0: float) -> float:
    return abs(e) if e0 == 0.0 else abs(e - e0) / abs(e0)


def energy_drift(
    tracker: BoundTracker, state: State, grid: Grid, params: MaterialParams
) -> float:
    """Relative drift |E(t) - E0| / E0; absolute drift if E0 = 0."""
    return _relative_drift(total_energy(state, grid, params.c_v), tracker.e0)


def boundary_stress_residual(
    state: State,
    params: MaterialParams,
    grid: Grid,
    bc: BoundaryKind,
    stress_bc: tuple[float, float] = (0.0, 0.0),
) -> tuple[float, float]:
    """Wall defect of the velocity boundary condition, one value per end.

    Stress-free: |wall stress estimate - imposed value| using a two-cell
    linear extrapolation of the cell-centered stress (second-order in dx).
    No-slip: |u| at each end node.
    """
    if bc is BoundaryKind.NO_SLIP:
        return abs(float(state.u[0])), abs(float(state.u[-1]))
    sigma = stress(state.v, state.theta, du_dx_cells(state.u, grid), params)
    left, right = wall_values(sigma)
    return abs(left - stress_bc[0]), abs(right - stress_bc[1])
