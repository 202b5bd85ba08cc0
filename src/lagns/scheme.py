"""Semi-implicit time advancement of the 1-D viscous gas in mass coordinates.

Evolved system, per unit mass on the fixed interval (0, 1):

    v_t = u_x
    u_t = sigma_x,            sigma = mu(v) u_x / v - R theta / v
    c_v theta_t + (R theta / v) u_x = ((kappa(theta) theta_x) / v)_x + mu(v) u_x^2 / v

Each step advances u, then v, then theta. The diffusive parts of the
momentum and temperature updates are backward Euler (tridiagonal solves),
pressure coupling is explicit, the compression-work term is implicit in
theta, and the conductivity is lagged through a Picard loop. A step that
would lose positivity of v or theta is rejected so the driver can retry
with a halved dt.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .constitutive import (
    MaterialParams,
    conductivity,
    pressure,
    sound_speed,
    stress,
    viscosity,
)
from .grid import Grid, State, cumulative_u_integral, du_dx_cells, wall_values

__all__ = [
    "BoundaryKind",
    "StepControls",
    "InitialProfile",
    "StepRejected",
    "SolverAbort",
    "tridiagonal_solve",
    "compatible_initial_data",
    "compatibility_residual",
    "dt_control",
    "momentum_step",
    "continuity_step",
    "temperature_step",
    "step",
]


class BoundaryKind(enum.Enum):
    """Boundary family; both variants keep the ends thermally insulated."""

    STRESS_FREE = "stress_free"
    NO_SLIP = "no_slip"

    @classmethod
    def from_name(cls, name: str) -> "BoundaryKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(
            f"unknown boundary kind {name!r}; expected 'stress_free' or 'no_slip'"
        )


@dataclass(frozen=True)
class StepControls:
    """Step-size and iteration limits for the implicit solves."""

    cfl: float = 0.8
    dt_min: float = 1e-10
    max_picard: int = 50
    picard_tol: float = 1e-11
    dt_max: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.dt_min > 0.0:
            raise ValueError(f"dt_min must be positive, got {self.dt_min}")
        if self.max_picard < 1:
            raise ValueError(f"max_picard must be >= 1, got {self.max_picard}")
        if self.picard_tol <= 0.0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.dt_max is not None and not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")


@dataclass(frozen=True)
class InitialProfile:
    """Closed-form initial data: callables of the mass coordinate.

    inf_v and inf_theta are the analytic infima of the profiles. A profile
    built by scenario.ProfileSpec has positive infima, checked when the spec
    is made, so near-vacuum data is rejected with a clear diagnostic before
    any sampling; the sampled state is checked by State.validate. u0 is only
    consulted under no-slip boundaries; stress-free runs derive their own u0.
    """

    name: str
    v0: Callable[[np.ndarray], np.ndarray]
    theta0: Callable[[np.ndarray], np.ndarray]
    u0: Callable[[np.ndarray], np.ndarray]
    inf_v: float
    inf_theta: float


class StepRejected(Exception):
    """Raised by a sub-step whose result would violate positivity or stall."""


class SolverAbort(Exception):
    """Unrecoverable failure of a run; carries the reason and the time reached."""

    def __init__(self, reason: str, t: float) -> None:
        super().__init__(f"{reason} at t = {t:.6g}")
        self.reason = reason
        self.t = t


def tridiagonal_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a tridiagonal system given its three bands.

    lower[i] couples row i+1 to column i; upper[i] couples row i to column
    i+1. Solved by LAPACK gtsv (LU with partial pivoting), which copies its
    inputs, so one array may be passed as both lower and upper.
    """
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if lower.shape != (n - 1,) or upper.shape != (n - 1,) or rhs.shape != (n,):
        raise ValueError(
            f"band shapes {lower.shape}/{diag.shape}/{upper.shape} and rhs "
            f"{rhs.shape} are inconsistent"
        )
    if n < 2:
        # gtsv needs at least one off-diagonal entry
        return rhs / diag
    x, info = dgtsv(lower, diag, upper, rhs)[3:]
    if info > 0:
        raise RuntimeError(f"singular tridiagonal system: zero pivot in row {info}")
    if info < 0:
        raise ValueError(f"gtsv rejected argument {-info}")
    return x


def _wall_gradient(f: np.ndarray, dx: float) -> tuple[float, float]:
    # quadratic fit through the first three cell centers, evaluated at the
    # wall; second-order, unlike a plain one-sided difference
    left = (-2.0 * f[0] + 3.0 * f[1] - f[2]) / dx
    right = (2.0 * f[-1] - 3.0 * f[-2] + f[-3]) / dx
    return left, right


def compatible_initial_data(
    profile: InitialProfile,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
) -> State:
    """Sample initial data that satisfies the chosen boundary family.

    Stress-free runs get u0(x) = integral of R*theta0/mu(v0) from 0 to x
    (trapezoid on node samples), which zeroes the discrete boundary stress
    to quadrature accuracy. No-slip runs take the profile's own u0 and
    require it to vanish at both ends. The sampled state is checked by
    State.validate before it is returned.
    """
    v0 = np.asarray(profile.v0(grid.centers), dtype=float)
    theta0 = np.asarray(profile.theta0(grid.centers), dtype=float)

    # both families insulate the ends; reject profiles with a wall slope
    theta_scale = float(np.max(np.abs(theta0)))
    slope_tol = 0.5 * grid.dx * theta_scale
    for side, slope in zip(("left", "right"), _wall_gradient(theta0, grid.dx)):
        if abs(slope) > slope_tol:
            raise ValueError(
                f"profile {profile.name!r} has nonzero {side}-wall theta slope "
                f"{slope:.3g}; insulated ends need theta0'(0) = theta0'(1) = 0"
            )

    if bc is BoundaryKind.NO_SLIP:
        u0 = np.asarray(profile.u0(grid.nodes), dtype=float)
        if abs(u0[0]) > 1e-12 or abs(u0[-1]) > 1e-12:
            raise ValueError(
                f"profile {profile.name!r} has nonzero wall velocity under no-slip"
            )
    else:
        f = params.R * np.asarray(profile.theta0(grid.nodes), dtype=float) / viscosity(
            np.asarray(profile.v0(grid.nodes), dtype=float), params
        )
        u0 = cumulative_u_integral(f, 0.0, grid)

    state = State(t=0.0, v=v0, u=u0, theta=theta0)
    state.validate(grid)
    return state


def compatibility_residual(
    state: State, params: MaterialParams, bc: BoundaryKind, grid: Grid
) -> np.ndarray:
    """Boundary-condition defect of a state, as four non-negative scalars.

    Stress-free: wall stress estimates (two-cell linear extrapolation) at
    each end. No-slip: |u| at each end. Both: wall temperature gradients
    from a quadratic fit through the three nearest cells.
    """
    if bc is BoundaryKind.STRESS_FREE:
        sigma = stress(state.v, state.theta, du_dx_cells(state.u, grid), params)
        left, right = wall_values(sigma)
        first, second = abs(left), abs(right)
    else:
        first = abs(float(state.u[0]))
        second = abs(float(state.u[-1]))
    grad_left, grad_right = _wall_gradient(state.theta, grid.dx)
    return np.array([first, second, abs(grad_left), abs(grad_right)])


def dt_control(
    state: State, grid: Grid, params: MaterialParams, controls: StepControls
) -> float:
    """Acoustic step limit cfl * min_i(dx * v_i / c_i), floored at dt_min.

    Diffusion is implicit, so only the sound-crossing scale restricts dt.
    """
    if not np.isfinite(np.concatenate((state.v, state.u, state.theta))).all():
        raise SolverAbort("non-finite state in step-size control", state.t)
    c = sound_speed(state.theta, params)
    dt = controls.cfl * grid.dx * float((state.v / c).min())
    if controls.dt_max is not None:
        dt = min(dt, controls.dt_max)
    return max(dt, controls.dt_min)


def momentum_step(
    state: State,
    dt: float,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
    stress_bc: tuple[float, float] = (0.0, 0.0),
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Backward-Euler velocity update with explicit pressure.

    Interior node j: (u'_j - u_j)/dt = (sigma*_j - sigma*_{j-1})/dx with
    sigma* = mu(v) u'_x / v - P(v, theta). Stress-free walls are half-mass
    control volumes fed by the imposed boundary stress (0 unless a
    manufactured value is supplied); no-slip walls are pinned to 0.
    """
    dx = grid.dx
    a = viscosity(state.v, params) / state.v
    p = pressure(state.v, state.theta, params)
    r = dt / dx**2
    n = grid.n_nodes

    diag = np.ones(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    rhs = state.u.copy()

    diag[1:-1] += r * (a[:-1] + a[1:])
    lower[: n - 2] = -r * a[:-1]
    upper[1:] = -r * a[1:]
    rhs[1:-1] -= (dt / dx) * (p[1:] - p[:-1])
    if source is not None:
        rhs[1:-1] += dt * source[1:-1]

    if bc is BoundaryKind.STRESS_FREE:
        diag[0] = 1.0 + 2.0 * r * a[0]
        upper[0] = -2.0 * r * a[0]
        rhs[0] = state.u[0] - (2.0 * dt / dx) * (p[0] + stress_bc[0])
        diag[-1] = 1.0 + 2.0 * r * a[-1]
        lower[-1] = -2.0 * r * a[-1]
        rhs[-1] = state.u[-1] + (2.0 * dt / dx) * (stress_bc[1] + p[-1])
        if source is not None:
            rhs[0] += dt * source[0]
            rhs[-1] += dt * source[-1]
    else:
        diag[0] = 1.0
        upper[0] = 0.0
        rhs[0] = 0.0
        diag[-1] = 1.0
        lower[-1] = 0.0
        rhs[-1] = 0.0

    return tridiagonal_solve(lower, diag, upper, rhs)


def continuity_step(
    state: State,
    new_u: np.ndarray,
    dt: float,
    grid: Grid,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Exact discrete volume update v' = v + dt * u'_x per cell."""
    new_v = state.v + dt * du_dx_cells(new_u, grid)
    if source is not None:
        new_v = new_v + dt * source
    if not new_v.min() > 0.0:  # also catches NaN
        raise StepRejected("non-positive volume")
    return new_v


def temperature_step(
    state: State,
    new_u: np.ndarray,
    new_v: np.ndarray,
    dt: float,
    params: MaterialParams,
    grid: Grid,
    controls: StepControls,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Backward-Euler temperature update with Picard-lagged conductivity.

    The compression-work term is implicit in theta (it enters the diagonal
    with a positive sign when the gas expands), viscous heating is explicit
    from the end-of-step velocity, and the conductivity is re-evaluated at
    each Picard iterate so every pass is one tridiagonal solve. Zero
    conductive flux at both walls falls out of omitting the end interfaces.
    """
    dx = grid.dx
    g = du_dx_cells(new_u, grid)
    mu = viscosity(new_v, params)
    heating = mu * g * g / new_v
    s = dt / (params.c_v * dx**2)

    base_diag = 1.0 + dt * params.R * g / (params.c_v * new_v)
    rhs = state.theta + (dt / params.c_v) * heating
    if source is not None:
        rhs = rhs + (dt / params.c_v) * source

    theta = state.theta
    for _ in range(controls.max_picard):
        kv = conductivity(theta, params) / new_v
        interface = 0.5 * (kv[:-1] + kv[1:])
        flux = s * interface
        diag = base_diag.copy()
        diag[:-1] += flux
        diag[1:] += flux
        band = -flux
        theta_new = tridiagonal_solve(band, diag, band, rhs)
        if not theta_new.min() > 0.0:  # also catches NaN
            raise StepRejected("non-positive temperature")
        # theta_new > 0 here, so its max is its max-norm
        if abs(theta_new - theta).max() <= controls.picard_tol * theta_new.max():
            return theta_new
        theta = theta_new
    raise StepRejected("conductivity iteration stalled")


def step(
    state: State,
    dt: float,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
    controls: StepControls,
    sources: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    stress_bc: tuple[float, float] = (0.0, 0.0),
) -> State:
    """Advance one accepted step: u first, then v, then theta.

    Momentum sees the old v and theta; continuity uses the end-of-step
    velocity so v' - v = dt * u'_x holds exactly; temperature sees both new
    fields. Optional sources are (cells, nodes, cells) arrays already
    evaluated at the target time. Raises StepRejected if positivity or the
    Picard loop fails at this dt.
    """
    s_v, s_u, s_theta = sources if sources is not None else (None, None, None)
    new_u = momentum_step(state, dt, params, bc, grid, stress_bc, s_u)
    new_v = continuity_step(state, new_u, dt, grid, s_v)
    new_theta = temperature_step(
        state, new_u, new_v, dt, params, grid, controls, s_theta
    )
    return State(t=state.t + dt, v=new_v, u=new_u, theta=new_theta)
