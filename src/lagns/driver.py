"""Run loop: advance a scenario from t = 0 to t_end with diagnostics.

Each accepted step feeds the representation accumulator and the bound
tracker; rows are recorded at every multiple of output_every. Steps that
lose positivity are retried with halved dt down to dt_min; hitting the
floor aborts the run with whatever diagnostics were gathered, which is a
reported finding rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, State, total_energy
from .mms import MmsCase, manufactured_case, mms_sources
from .scenario import (
    DiagnosticsReport,
    DiagnosticsRow,
    Scenario,
)
from .scheme import (
    BoundaryKind,
    SolverAbort,
    StepRejected,
    compatible_initial_data,
    compatibility_residual,
    dt_control,
    step,
)
from .verify import (
    BoundTracker,
    RepresentationAccumulator,
    boundary_stress_residual,
    energy_drift,
    make_accumulator,
    make_tracker,
    representation_residual,
    update_accumulator,
    update_bounds,
    velocity_band_check,
)

__all__ = ["RunResult", "CheckResult", "initial_state", "run", "verification_table"]

# verification thresholds; calibrated ~20x above the measured defaults at
# N = 128 and far below the O(1) signal of a genuinely broken identity
REPR_TOL = 5e-3
DRIFT_TOL = 5e-3
BOUNDARY_FACTOR = 10.0
COMPAT_FACTOR = 10.0


@dataclass(frozen=True)
class RunResult:
    """Everything a finished (or aborted) run produced."""

    scenario: Scenario
    grid: Grid
    state: State
    report: DiagnosticsReport
    accumulator: RepresentationAccumulator
    tracker: BoundTracker
    case: MmsCase | None
    worst_band_margin: float
    band_ok: bool
    initial_residual: np.ndarray


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def initial_state(scenario: Scenario, grid: Grid) -> State:
    """Initial data: manufactured fields at t = 0, or the compatible profile."""
    if scenario.mms is not None:
        case = manufactured_case(scenario.mms, scenario.params)
        state = State(
            t=0.0,
            v=case.v(grid.centers, 0.0),
            u=case.u(grid.nodes, 0.0),
            theta=case.theta(grid.centers, 0.0),
        )
        state.validate(grid)
        return state
    return compatible_initial_data(
        scenario.profile.build(), scenario.params, scenario.bc, grid
    )


def _imposed_wall_stress(
    case: MmsCase | None, bc: BoundaryKind, t: float
) -> tuple[float, float]:
    """Wall stress imposed at time t: the manufactured value on stress-free
    walls of a forced run, zero otherwise."""
    if case is None or bc is not BoundaryKind.STRESS_FREE:
        return 0.0, 0.0
    values = case.stress(np.array([0.0, 1.0]), t)
    return float(values[0]), float(values[1])


def run(scenario: Scenario) -> RunResult:
    """Advance the scenario to t_end, collecting diagnostics on the way."""
    grid = Grid(scenario.n_cells)
    params = scenario.params
    bc = scenario.bc
    controls = scenario.controls
    case = (
        manufactured_case(scenario.mms, params) if scenario.mms is not None else None
    )
    state = initial_state(scenario, grid)
    initial_residual = compatibility_residual(state, params, bc, grid)

    acc = make_accumulator(state, grid, params)
    tracker = make_tracker(state, grid, params)
    rows: list[DiagnosticsRow] = []
    halvings = 0
    status = "completed"
    abort_reason: str | None = None
    band_ok = True
    worst_margin = float("inf")
    out_index = 1
    eps = 1e-12

    while state.t < scenario.t_end - eps:
        try:
            dt = dt_control(state, grid, params, controls)
        except SolverAbort as exc:
            status, abort_reason = "aborted", exc.reason
            break
        target = min(scenario.t_end, out_index * scenario.output_every)
        dt = min(dt, target - state.t)

        while True:
            try:
                sources = (
                    mms_sources(case, grid, state.t + dt) if case is not None else None
                )
                stress_bc = _imposed_wall_stress(case, bc, state.t + dt)
                new_state = step(
                    state, dt, params, bc, grid, controls, sources, stress_bc
                )
            except StepRejected as exc:
                halvings += 1
                dt *= 0.5
                if dt < controls.dt_min:
                    status, abort_reason = "aborted", str(exc)
                    break
                continue
            break
        if status == "aborted":
            break

        velocity_factor = acc.velocity_factor(new_state, grid)
        update_accumulator(acc, new_state, dt, params.alpha, velocity_factor)
        update_bounds(tracker, state, new_state, dt, grid)
        ok, margin = velocity_band_check(acc, velocity_factor)
        band_ok = band_ok and ok
        worst_margin = min(worst_margin, margin)
        state = new_state

        if state.t >= out_index * scenario.output_every - eps:
            resid = boundary_stress_residual(
                state, params, grid, bc, _imposed_wall_stress(case, bc, state.t)
            )
            rows.append(
                DiagnosticsRow(
                    t=state.t,
                    energy=total_energy(state, grid, params.c_v),
                    energy_drift=energy_drift(tracker, state, grid, params),
                    min_v=float(np.min(state.v)),
                    max_v=float(np.max(state.v)),
                    min_theta=float(np.min(state.theta)),
                    max_theta=float(np.max(state.theta)),
                    repr_residual=representation_residual(
                        state, acc, grid, params.alpha
                    ),
                    band_margin=margin,
                    boundary_resid_left=resid[0],
                    boundary_resid_right=resid[1],
                    sup_grad_v_sq=tracker.sup_grad_v_sq,
                    sup_grad_theta_sq=tracker.sup_grad_theta_sq,
                    int_max_theta=tracker.int_max_theta,
                    int_uxx_sq=tracker.int_uxx_sq,
                    int_ut_sq=tracker.int_ut_sq,
                    dt_current=dt,
                )
            )
            out_index += 1

    report = DiagnosticsReport(
        rows=tuple(rows),
        status=status,
        abort_reason=abort_reason,
        halvings=halvings,
    )
    return RunResult(
        scenario=scenario,
        grid=grid,
        state=state,
        report=report,
        accumulator=acc,
        tracker=tracker,
        case=case,
        worst_band_margin=worst_margin,
        band_ok=band_ok,
        initial_residual=initial_residual,
    )


def verification_table(result: RunResult) -> list[CheckResult]:
    """Evaluate the full invariant suite on a finished physical run.

    Thresholds are fixed, documented constants; each row is independent so
    one failure never masks another.
    """
    grid = result.grid
    tracker = result.tracker
    rows = result.report.rows
    dx = grid.dx
    checks: list[CheckResult] = []

    scale0 = tracker.sup_stress_scale
    compat_tol = COMPAT_FACTOR * dx**2 * max(scale0, 1.0)
    worst_compat = float(np.max(result.initial_residual))
    checks.append(
        CheckResult(
            "initial compatibility",
            worst_compat <= compat_tol,
            f"max t=0 boundary defect {worst_compat:.3e} (tol {compat_tol:.3e})",
        )
    )

    worst_repr = max((row.repr_residual for row in rows), default=0.0)
    checks.append(
        CheckResult(
            "volume representation",
            worst_repr <= REPR_TOL,
            f"max residual {worst_repr:.3e} (tol {REPR_TOL:.1e})",
        )
    )

    worst_drift = max((row.energy_drift for row in rows), default=0.0)
    checks.append(
        CheckResult(
            "energy conservation",
            worst_drift <= DRIFT_TOL,
            f"max relative drift {worst_drift:.3e} (tol {DRIFT_TOL:.1e})",
        )
    )

    positive = (
        tracker.min_v > 0.0
        and tracker.min_theta > 0.0
        and result.report.status == "completed"
    )
    checks.append(
        CheckResult(
            "positivity floors",
            positive,
            f"min v {tracker.min_v:.6g}, min theta {tracker.min_theta:.6g}, "
            f"halvings {result.report.halvings}",
        )
    )

    checks.append(
        CheckResult(
            "velocity-integral band",
            result.band_ok and result.worst_band_margin >= 0.0,
            f"worst margin {result.worst_band_margin:.6g}",
        )
    )

    scale = max(tracker.sup_stress_scale, 1.0)
    worst_boundary = 0.0
    boundary_ok = True
    for row in rows:
        tol = BOUNDARY_FACTOR * (dx**2 + row.dt_current) * scale
        resid = max(row.boundary_resid_left, row.boundary_resid_right)
        worst_boundary = max(worst_boundary, resid)
        boundary_ok = boundary_ok and resid <= tol
    checks.append(
        CheckResult(
            "boundary compatibility",
            boundary_ok,
            f"max wall defect {worst_boundary:.3e} "
            f"(tol {BOUNDARY_FACTOR:.0f}*(dx^2 + dt)*{scale:.3g})",
        )
    )

    checks.append(
        CheckResult(
            "monotone accumulators",
            tracker.monotone_ok and result.accumulator.monotone_ok,
            "running integrals non-decreasing, min trackers non-increasing",
        )
    )

    functionals = (
        tracker.sup_grad_v_sq,
        tracker.sup_grad_theta_sq,
        tracker.sup_u_x_sq,
        tracker.int_max_theta,
        tracker.int_uxx_sq,
        tracker.int_ut_sq,
    )
    checks.append(
        CheckResult(
            "bounded functionals",
            all(np.isfinite(functionals)),
            "sup/integral functionals all finite: "
            + ", ".join(f"{value:.4g}" for value in functionals),
        )
    )
    return checks
