"""Runtime verification of the solver's conserved and bounded quantities.

Two instruments ride along with every run. A RepresentationAccumulator
maintains the Kazhikhov-Shelukhin representation of the specific volume on
stress-free walls, written relative to the initial state,

    v = d1 * D * (v0 + (R/mu_eff) * integral of theta/(d1*D) dt),

where d1 = exp(integral from 0 to x of (u - u0)/mu_eff), D =
exp((v**-alpha - v0**-alpha)/alpha) (1 when alpha = 0), and mu_eff =
mu(inf) is the viscosity at infinite volume (mu_tilde, or 2*mu_tilde when
alpha = 0). Both factors are exactly 1 at t = 0. The instruments work with
their logarithms: the integrand is theta*exp(-(ln d1 + ln D)) and the
prediction exp(ln d1 + ln D)*(...), one exp each, and ln D stays finite
where exp(v**-alpha/alpha) alone would overflow. The residual against the
evolved v measures how faithfully the discrete trajectory satisfies an
identity the continuum solution satisfies exactly.
A BoundTracker maintains the norm functionals that the continuum theory
proves bounded: positivity floors, gradient norms, and space-time integrals
of the acceleration and second velocity differences.

Each instrument keeps the MaterialParams it was built from, so the
functions that update it or read a residual from it take no material.

The instruments are fed a StateBlock, the accepted states of a stretch of
the run as 2-D arrays with one row per state, and fold all of its steps in
one call. A block of one state views its state's arrays; a longer one
stacks copies of them. Each state carries the derived fields that its step
made (DerivedFields): the tracker reads the strain rate, the viscosity and
the pressure, and the accumulator the volume power v**-alpha, so no
instrument evaluates a material law again. Each state also carries the
extrema of its v and theta (grid.Extrema), which the gates of its step
found while admitting it; the tracker's least v and theta and the
largest theta behind its time integral are those, not new reductions.
The accumulator takes ln d1 of the block from one cumulative velocity
integral, so d1 itself is never formed. Each instrument also keeps what
its next fold needs of the newest state it has seen (the accumulator its
integrand, the tracker its velocities and left-rectangle terms), so a
block holds only the states after it. Nearly all of a per-step call's
cost is the overhead of its small numpy calls, so a block of K steps
costs about one step's overhead. Every row-wise operation computes each row exactly as the 1-D
operation on that state would: np.vecdot makes one BLAS dot call per row,
as the 1-D ``@`` does (einsum and a 2-D matrix-vector product round
differently), and sums, extrema and cumulative sums reduce each row on its
own. The running sums and extrema are then folded row by row in step
order, so the results are bit-identical to feeding the steps one at a time.

The walls' conditions are measured here alone: boundary_stress_residual
is the velocity condition's defect at each end (|wall stress - imposed
stress| on stress-free walls, |u| on no-slip ones), and
compatibility_residual adds the insulated walls' temperature gradients. A
run judges its initial state by the latter and each output row by the
former, both against the wall stress imposed at that time.

The checks that judge a finished run live here too, with their
tolerances: CHECKS is their one ordered table, and verification_table
reports each as a CheckResult.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .constitutive import (
    MaterialParams,
    pressure,  # noqa: F401  (bench/spans.py traces lagns.verify.pressure)
    stress,
    viscosity,
    volume_power,
)
from .grid import (
    DerivedFields,
    Extrema,
    Grid,
    State,
    cumulative_u_integral,
    du_dx_cells,
    node_weights,
    total_energy,
    wall_values,
)
from .scheme import BoundaryKind

if TYPE_CHECKING:
    from .driver import RunResult

__all__ = [
    "relative_volume_exponent",
    "velocity_integral_exponent",
    "velocity_integral_factor",
    "StateBlock",
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
    "compatibility_residual",
    "CheckResult",
    "Check",
    "CHECKS",
    "verification_table",
]


def _rows(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as the rows of one 2-D array: a view of the one array of
    a one-state block, a stacked copy otherwise."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


@dataclass
class StateBlock:
    """Consecutive accepted states of a run, one row per state, each with
    its derived fields (derived holds one row per state in each field) and
    its extrema (extrema[i] are row i's); dt[i] is the step that made row
    i, from the state before it.
    """

    v: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    derived: DerivedFields
    extrema: list[Extrema]
    dt: np.ndarray

    @classmethod
    def of(cls, states: list[State], dts: list[float]) -> "StateBlock":
        """The block of consecutive states, each carrying its derived
        fields and extrema, where dts[i] is the step that made states[i].
        The fields of one state are views of its arrays; those of several
        stack copies, one row per state."""
        derived = [state.derived for state in states]
        return cls(
            _rows([state.v for state in states]),
            _rows([state.u for state in states]),
            _rows([state.theta for state in states]),
            DerivedFields(
                _rows([d.u_x for d in derived]),
                _rows([d.v_power for d in derived]),
                _rows([d.mu for d in derived]),
                _rows([d.p for d in derived]),
            ),
            [state.extrema for state in states],
            np.array(dts, dtype=float),
        )


def velocity_integral_exponent(
    u: np.ndarray, u0: np.ndarray, grid: Grid, weight: float
) -> np.ndarray:
    """weight * integral of (u - u0) from 0 to x, on cell centers: the
    logarithm of velocity_integral_factor.

    The cumulative integral lives on nodes; adjacent node values are
    averaged so the exponent is colocated with v. u may hold one state per
    row; the integral runs along the last axis.
    """
    cumulative = cumulative_u_integral(u, u0, grid)
    exponent = cumulative[..., :-1] + cumulative[..., 1:]
    exponent *= weight * 0.5
    return exponent


def velocity_integral_factor(
    u: np.ndarray, u0: np.ndarray, grid: Grid, exponent: float
) -> np.ndarray:
    """exp(exponent * integral of (u - u0) from 0 to x), on cell centers:
    the velocity factor d1 itself, the exp of velocity_integral_exponent.
    The instruments never form it; they work with the exponent."""
    return np.exp(velocity_integral_exponent(u, u0, grid, exponent))


def relative_volume_exponent(
    v_power: np.ndarray, v0_power: np.ndarray, alpha: float
) -> np.ndarray | float:
    """ln D = (v**-alpha - v0**-alpha)/alpha from the volume powers of a
    state (one per row, or one) and of the initial state: the logarithm of
    the volume term of the viscosity relative to the initial state, as a
    new array; 0.0 when alpha = 0, where D is 1. Given -alpha in place of
    alpha, it returns -ln D bit for bit: the quotient only changes sign."""
    if alpha == 0.0:
        return 0.0
    exponent = v_power - v0_power
    exponent /= alpha
    return exponent


@dataclass
class RepresentationAccumulator:
    """Running state of the volume representation (module docstring).

    params is the material it was built for and mu_eff = mu(inf) its
    viscosity at infinite volume; the initial volume v0, its power
    v0_power = v0**-alpha and the node velocities u0_nodes are frozen at
    t = 0; time_integral accumulates theta/(d1*D) per cell by the trapezoid
    rule, and last_integrand is the newest state's integrand; e0, the
    initial total energy, is read only by velocity_band_check.
    """

    params: MaterialParams
    v0: np.ndarray
    v0_power: np.ndarray
    u0_nodes: np.ndarray
    mu_eff: float
    time_integral: np.ndarray
    last_integrand: np.ndarray
    t: float
    e0: float

    def velocity_exponent(self, u: np.ndarray, grid: Grid) -> np.ndarray:
        """ln d1, the exponent of the velocity-integral factor of the node
        velocities u (one state, or one state per row) against the frozen
        u0."""
        return velocity_integral_exponent(u, self.u0_nodes, grid, 1.0 / self.mu_eff)


def make_accumulator(
    state: State, grid: Grid, params: MaterialParams
) -> RepresentationAccumulator:
    """Freeze the initial data and start the time integral at zero; state
    must carry its derived fields. d1 and D are exactly 1 at t = 0, so the
    first integrand is theta0."""
    return RepresentationAccumulator(
        params=params,
        v0=state.v.copy(),
        v0_power=state.derived.v_power.copy(),
        u0_nodes=state.u.copy(),
        mu_eff=float(viscosity(np.inf, params)),
        time_integral=np.zeros(grid.n_cells),
        last_integrand=state.theta.copy(),
        t=state.t,
        e0=total_energy(state, grid, params.c_v),
    )


def update_accumulator(
    acc: RepresentationAccumulator, block: StateBlock, grid: Grid
) -> RepresentationAccumulator:
    """Advance the time integral over the steps of a block by the trapezoid
    rule, with ln d1 of every step from one cumulative velocity integral."""
    # theta/(d1*D) as theta*exp(-(ln d1 + ln D)): one exp per value. The
    # exponent is built negated (ln D over -alpha, ln d1 at weight
    # -1/mu_eff), to the same bits: rounding to nearest is symmetric
    integrand = relative_volume_exponent(
        block.derived.v_power, acc.v0_power, -acc.params.alpha
    )
    integrand += velocity_integral_exponent(
        block.u, acc.u0_nodes, grid, -1.0 / acc.mu_eff
    )
    np.exp(integrand, out=integrand)
    integrand *= block.theta
    # each step's trapezoid pairs its integrand with the one before it
    increment = np.empty_like(integrand)
    np.add(acc.last_integrand, integrand[0], out=increment[0])
    np.add(integrand[:-1], integrand[1:], out=increment[1:])
    increment *= 0.5 * block.dt[:, None]
    for row in increment:  # one step at a time: the per-step summation order
        acc.time_integral += row
    acc.last_integrand = integrand[-1]
    for dt in block.dt.tolist():
        acc.t += dt
    return acc


def representation_residual(
    state: State, acc: RepresentationAccumulator, grid: Grid
) -> float:
    """Relative max-norm defect of the closed-form volume representation.

    Exactly zero at t = 0 for any positive v0 and either alpha branch,
    since both exponents are exactly 0 there. The accumulator's time must
    match the state's within a relative 1e-12: inside a run both clocks add
    the same steps in the same order, and the bound scales with the run's
    own times, however small they are.
    """
    if abs(acc.t - state.t) > 1e-12 * abs(state.t):
        raise ValueError(
            f"accumulator at t = {acc.t} is out of sync with state at t = {state.t}"
        )
    alpha = acc.params.alpha
    exponent = acc.velocity_exponent(state.u, grid)
    exponent += relative_volume_exponent(
        volume_power(state.v, alpha), acc.v0_power, alpha
    )
    predicted = np.exp(exponent)
    predicted *= acc.v0 + acc.params.R / acc.mu_eff * acc.time_integral
    return float(np.max(np.abs(state.v - predicted)) / np.max(state.v))


def velocity_band_check(
    acc: RepresentationAccumulator, velocity_exponent: np.ndarray
) -> list[float]:
    """Energy band on the velocity-integral factors of states, one per row.

    The cumulative velocity change is bounded through the conserved energy,
    so each row's factor exp(acc.velocity_exponent(u, grid)) must stay
    inside [exp(-s/mu_eff), exp(s/mu_eff)] with s = sqrt(2*e0). Returns
    each row's worst absolute margin to either edge: non-negative inside
    the band, negative outside.
    """
    s = np.sqrt(2.0 * acc.e0)
    lo = np.exp(-s / acc.mu_eff)
    hi = np.exp(s / acc.mu_eff)
    # exp and rounding are monotone, so the least f - lo is exp(min E) - lo
    # and the least hi - f is hi - exp(max E), bit for bit, without forming
    # f = exp(E); np.minimum keeps a NaN from either side (E holding one, or
    # hi - max(f) = inf - inf), where Python's min would drop one in its
    # second argument
    below = np.exp(velocity_exponent.min(axis=1)) - lo
    above = hi - np.exp(velocity_exponent.max(axis=1))
    return np.minimum(below, above).tolist()


@dataclass
class BoundTracker:
    """Running extrema and space-time integrals of the bounded functionals.

    weights holds the trapezoid node weights of the grid, built once.
    last_u, last_max_theta and last_uxx_sq belong to the newest state
    folded in: the node velocities, the largest temperature and the sum of
    squares of the second velocity differences, which the left-rectangle
    integrals of the next step read.
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
    last_u: np.ndarray
    last_max_theta: float
    last_uxx_sq: float
    int_max_theta: float = 0.0
    int_uxx_sq: float = 0.0
    int_ut_sq: float = 0.0


def _stress_scale(v: np.ndarray, derived: DerivedFields) -> np.ndarray:
    """Largest cellwise magnitude of the stress ingredients mu|u_x|/v + P,
    per row: the natural size of the stress even where the total nearly
    cancels, as it does throughout a stress-free run; it normalizes the
    boundary-residual bounds of verification_table."""
    scale = np.abs(derived.u_x)
    scale *= derived.mu
    scale /= v
    scale += derived.p
    return scale.max(axis=-1)


def _fold_states(
    tracker: BoundTracker, block: StateBlock, dx: float
) -> tuple[list[float], list[float]]:
    """Fold the states of a block, one per row, into the min/sup fields in
    row order, and make the last row the tracker's newest state.

    Returns, for each row, the largest temperature and the u_xx sum of
    squares of the state before it (the tracker's newest state for row 0).
    Every value is the one-state formula (the gradient norm
    dx * sum(((f[i+1] - f[i]) / dx)**2) as d @ d / dx, dx * (g @ g) for
    the strain rate g, and the u_xx sum of squares as d @ d / dx**2 with
    d = g[i+1] - g[i] the differences of the strain rate) written with the
    same operand order, so the results are bit-identical; min and max of
    several arguments compare them in turn, as a fold of one state at a
    time would.
    The least v and theta and the largest theta of a row are its state's
    extrema, which the gates that admitted the state found by reducing the
    same arrays.
    """
    v, theta = block.v, block.theta
    g = block.derived.u_x
    dv = v[:, 1:] - v[:, :-1]
    dtheta = theta[:, 1:] - theta[:, :-1]
    extrema = block.extrema
    tracker.min_v = min(tracker.min_v, *(e.v_min for e in extrema))
    tracker.min_theta = min(tracker.min_theta, *(e.theta_min for e in extrema))
    tracker.sup_grad_v_sq = max(
        tracker.sup_grad_v_sq, *(np.vecdot(dv, dv) / dx).tolist()
    )
    tracker.sup_grad_theta_sq = max(
        tracker.sup_grad_theta_sq, *(np.vecdot(dtheta, dtheta) / dx).tolist()
    )
    tracker.sup_u_x_sq = max(tracker.sup_u_x_sq, *(dx * np.vecdot(g, g)).tolist())
    tracker.sup_stress_scale = max(
        tracker.sup_stress_scale, *_stress_scale(v, block.derived).tolist()
    )

    uxx = g[:, 1:] - g[:, :-1]  # dx * u_xx
    max_theta = [tracker.last_max_theta, *(e.theta_max for e in extrema)]
    uxx_sq = [tracker.last_uxx_sq, *(np.vecdot(uxx, uxx) / dx**2).tolist()]
    tracker.last_u = block.u[-1]
    tracker.last_max_theta, tracker.last_uxx_sq = max_theta.pop(), uxx_sq.pop()
    return max_theta, uxx_sq


def make_tracker(state: State, grid: Grid, params: MaterialParams) -> BoundTracker:
    """Start the tracker at the initial state, which must carry its derived
    fields: the extrema begin at +-inf and take the state through the same
    fold as every later one."""
    tracker = BoundTracker(
        params=params,
        weights=node_weights(grid),
        e0=total_energy(state, grid, params.c_v),
        min_v=math.inf,
        min_theta=math.inf,
        sup_grad_v_sq=-math.inf,
        sup_grad_theta_sq=-math.inf,
        sup_u_x_sq=-math.inf,
        sup_stress_scale=-math.inf,
        last_u=state.u,
        last_max_theta=math.nan,
        last_uxx_sq=math.nan,
    )
    # the initial state's fold reads no step
    _fold_states(tracker, StateBlock.of([state], [math.nan]), grid.dx)
    return tracker


def update_bounds(
    tracker: BoundTracker, block: StateBlock, grid: Grid
) -> BoundTracker:
    """Fold the accepted steps of a block into the tracker.

    Sup trackers take each step's new state; time integrals use the
    left-rectangle rule (the state before the step), with the acceleration
    integral built from the difference quotient over the step. The running
    sums advance one step at a time.
    """
    dx = grid.dx
    u, dt = block.u, block.dt
    du_dt = np.empty_like(u)
    np.subtract(u[0], tracker.last_u, out=du_dt[0])
    np.subtract(u[1:], u[:-1], out=du_dt[1:])
    du_dt /= dt[:, None]
    du_dt *= du_dt
    steps = zip(
        dt.tolist(),
        *_fold_states(tracker, block, dx),
        np.vecdot(du_dt, tracker.weights).tolist(),
    )
    for step, max_theta, uxx_sq, ut_sq in steps:
        tracker.int_max_theta += step * max_theta
        tracker.int_uxx_sq += step * dx * uxx_sq
        tracker.int_ut_sq += step * ut_sq
    return tracker


def energy_drift(tracker: BoundTracker, energy: float) -> float:
    """Relative drift |E - E0| / E0 of a total energy E against the
    tracker's initial energy; absolute drift if E0 = 0."""
    e0 = tracker.e0
    return abs(energy) if e0 == 0.0 else abs(energy - e0) / abs(e0)


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


def compatibility_residual(
    state: State,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
    stress_bc: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Boundary-condition defect of a state, as four non-negative scalars:
    boundary_stress_residual's two, then the wall temperature gradients of
    a quadratic fit through the three cell centers nearest each wall
    (second order, unlike a plain one-sided difference)."""
    left, right = boundary_stress_residual(state, params, grid, bc, stress_bc)
    theta, dx = state.theta, grid.dx
    grad_left = (-2.0 * theta[0] + 3.0 * theta[1] - theta[2]) / dx
    grad_right = (2.0 * theta[-1] - 3.0 * theta[-2] + theta[-3]) / dx
    return np.array([left, right, abs(grad_left), abs(grad_right)])


# verification thresholds; calibrated ~20x above the measured defaults at
# N = 128 and far below the O(1) signal of a genuinely broken identity
REPR_TOL = 5e-3
DRIFT_TOL = 5e-3
BOUNDARY_FACTOR = 10.0
COMPAT_FACTOR = 10.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class Check(NamedTuple):
    """One row of verification_table: its name, whether it reads the output
    rows, and its judge of a finished run, returning (passed, detail)."""

    name: str
    reads_rows: bool
    judge: Callable[[RunResult], tuple[bool, str]]


def _worst(result: RunResult, column: str, final: float) -> float:
    """The largest value of an output-row column, and of final, the final
    state's value, if that state is later than the last row (so the stretch
    after the last multiple of output_every is judged too); np.max keeps a NaN."""
    rows = result.report.rows
    values = [getattr(row, column) for row in rows]
    if result.state.t > rows[-1].t:
        values.append(final)
    return float(np.max(values))


def _initial_compatibility(result: RunResult) -> tuple[bool, str]:
    tol = COMPAT_FACTOR * result.grid.dx**2 * max(result.tracker.sup_stress_scale, 1.0)
    worst = float(np.max(result.initial_residual))
    return worst <= tol, f"max t=0 boundary defect {worst:.3e} (tol {tol:.3e})"


def _volume_representation(result: RunResult) -> tuple[bool, str]:
    final = representation_residual(result.state, result.accumulator, result.grid)
    worst = _worst(result, "repr_residual", final)
    return worst <= REPR_TOL, f"max residual {worst:.3e} (tol {REPR_TOL:.1e})"


def _energy_conservation(result: RunResult) -> tuple[bool, str]:
    tracker = result.tracker
    energy = total_energy(result.state, result.grid, tracker.params.c_v)
    worst = _worst(result, "energy_drift", energy_drift(tracker, energy))
    return worst <= DRIFT_TOL, f"max relative drift {worst:.3e} (tol {DRIFT_TOL:.1e})"


def _positivity_floors(result: RunResult) -> tuple[bool, str]:
    tracker, report = result.tracker, result.report
    positive = tracker.min_v > 0.0 and tracker.min_theta > 0.0
    return positive and report.status == "completed", (
        f"min v {tracker.min_v:.6g}, min theta {tracker.min_theta:.6g}, "
        f"halvings {report.halvings}"
    )


def _boundary_compatibility(result: RunResult) -> tuple[bool, str]:
    rows, dx = result.report.rows, result.grid.dx
    scale = max(result.tracker.sup_stress_scale, 1.0)
    # each row's worse wall, judged against the tolerance of its own step
    defects = np.array(
        [(row.boundary_resid_left, row.boundary_resid_right) for row in rows]
    ).max(axis=1)
    dts = np.array([row.dt_current for row in rows])
    passed = bool(np.all(defects <= BOUNDARY_FACTOR * (dx**2 + dts) * scale))
    return passed, (
        f"max wall defect {float(defects.max()):.3e} "
        f"(tol {BOUNDARY_FACTOR:.0f}*(dx^2 + dt)*{scale:.3g})"
    )


def _bounded_functionals(result: RunResult) -> tuple[bool, str]:
    tracker = result.tracker
    functionals = (
        tracker.sup_grad_v_sq, tracker.sup_grad_theta_sq, tracker.sup_u_x_sq,
        tracker.int_max_theta, tracker.int_uxx_sq, tracker.int_ut_sq,
    )
    return all(np.isfinite(functionals)), (
        "sup/integral functionals all finite: "
        + ", ".join(f"{value:.4g}" for value in functionals)
    )


# the checks of verification_table, in the order they are reported
CHECKS = (
    Check("initial compatibility", False, _initial_compatibility),
    Check("volume representation", True, _volume_representation),
    Check("energy conservation", True, _energy_conservation),
    Check("positivity floors", False, _positivity_floors),
    Check("boundary compatibility", True, _boundary_compatibility),
    Check("bounded functionals", False, _bounded_functionals),
)


def verification_table(result: RunResult) -> list[CheckResult]:
    """Judge a finished physical run by each check of CHECKS, in order.
    One failure never masks another, and a NaN fails the check it lands
    in. A check that reads the output rows fails when the run recorded none
    (t_end < output_every), since it then checked nothing."""
    recorded = bool(result.report.rows)
    return [
        CheckResult(check.name, *check.judge(result))
        if recorded or not check.reads_rows
        else CheckResult(check.name, False, "no output row was recorded")
        for check in CHECKS
    ]
