"""Run loop: advance a scenario from t = 0 to t_end.

One stepping loop (_Stepper) advances every run. It picks each dt with
dt_control, snaps it down so that steps land on every multiple of
output_every, feeds a manufactured run its sources and imposed wall stress,
and retries a step that scheme.step rejects with halved dt. The one way a
run aborts is halving dt below dt_min, which stops it with whatever was
gathered, a reported finding rather than an error. The loop yields each
accepted step with the wall stress it imposed, and two consumers read it:

- run feeds every accepted step to the representation accumulator and
  the bound tracker, and records a diagnostics row at every multiple of
  output_every, whose wall defect is measured against that step's imposed
  stress (the initial state's against the stress imposed at t = 0);
- advance keeps only the last state, for callers such as a convergence
  study that read nothing else. Its steps, and so its final state, status
  and halvings, are bit-identical to run's.

run keeps the accepted states in a block and folds them into the
instruments in one call per block (see lagns.verify). A block is flushed
when it is full, when an output row is due (a row reads the tracker and
the time integral), and when the run completes or aborts, so the
instruments are in step with the state at every row and at the end.

A block holds max(1, BLOCK_VALUES // n_nodes) steps. The per-call overhead a
block saves is the same whatever N is, but the fold's temporaries hold a row
per step and so grow with N. Capped at BLOCK_VALUES values they stay at
32 KiB, well below the 128 KiB from which glibc maps and unmaps every
allocation, which would make a large block slower than its single steps.
From N = 2048 on a block is one step. The block keeps references to its
states. When it is folded, the rows of a one-step block are views of its
state's arrays, and a longer block stacks copies of its states' fields.

A manufactured run evaluates its sources ahead, in a queue of (time,
sources) rows. A step takes the head row only when its time state.t + dt is
bit-equal to the row's; otherwise the queue is refilled with one
mms_sources call that starts at the step's time. When the cap binds (dt ==
dt_max), that call also covers the times the following capped steps form,
t + dt_max while dt_max <= target - t, the same floats the loop will make;
CFL-limited steps, halved retries and the truncated step before a row
evaluate their one time. A call holds at most max(1, BLOCK_VALUES //
(2N + 1)) times, the limit on one row-stacked temporary of the block fold:
124, 63, 31 and 15 times at N = 16, 32, 64 and 128. A row is used only at
its exact time, so the results never depend on the prediction.

The instruments read each state's derived fields, and dt_control, the
bound tracker and the output rows read its extrema, the min and max of v
and theta that the step's gates found (see lagns.scheme). The initial
state gets both from scheme.with_derived; the final state that run and
advance return drops them. The state before the newest is
kept as it is and passed to scheme.step, which extrapolates the
conductivity's temperature through it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .grid import Grid, State, total_energy
from .mms import MmsCase, manufactured_case, mms_sources
from .scenario import DiagnosticsReport, DiagnosticsRow, Scenario
from .scheme import (
    BoundaryKind,
    StepRejected,
    dt_control,
    step,
    with_derived,
)
from .verify import (
    BoundTracker,
    RepresentationAccumulator,
    StateBlock,
    boundary_stress_residual,
    compatibility_residual,
    energy_drift,
    make_accumulator,
    make_tracker,
    representation_residual,
    update_accumulator,
    update_bounds,
    # bench/spans.py traces lagns.driver.velocity_band_check; no run calls it
    velocity_band_check,  # noqa: F401
)

__all__ = [
    "RunResult",
    "CheckResult",
    "advance",
    "run",
    "verification_table",
]

# verification thresholds; calibrated ~20x above the measured defaults at
# N = 128 and far below the O(1) signal of a genuinely broken identity
REPR_TOL = 5e-3
DRIFT_TOL = 5e-3
BOUNDARY_FACTOR = 10.0
COMPAT_FACTOR = 10.0
# the checks of verification_table that read the recorded output rows
ROW_CHECKS = ("volume representation", "energy conservation", "boundary compatibility")
# values in one row-stacked temporary of the instruments' block fold, and in
# the rows of one mms_sources call (32 KiB)
BLOCK_VALUES = 4096


@dataclass(frozen=True)
class RunResult:
    """Everything a finished (or aborted) run produced."""

    scenario: Scenario
    grid: Grid
    state: State
    report: DiagnosticsReport
    accumulator: RepresentationAccumulator
    tracker: BoundTracker
    initial_residual: np.ndarray


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _reached(t: float, target: float) -> bool:
    """Whether a run at time t has reached the time target. A step that
    lands on the target can miss it by the rounding of t + (target - t),
    so t counts within a relative 1e-12 below it: the tolerance scales
    with the run's own times, however small they are."""
    return t >= target - 1e-12 * target


def _imposed_wall_stress(
    case: MmsCase | None, bc: BoundaryKind, t: float
) -> tuple[float, float]:
    """Wall stress imposed at time t: the manufactured value on stress-free
    walls of a forced run, zero otherwise."""
    if case is None or bc is not BoundaryKind.STRESS_FREE:
        return 0.0, 0.0
    values = case.wall_stress(t)
    return float(values[0]), float(values[1])


class _SourceQueue:
    """Manufactured sources evaluated ahead, as (time, sources) rows; see
    the module docstring."""

    def __init__(self, case: MmsCase, grid: Grid, dt_max: float | None) -> None:
        self.case = case
        self.grid = grid
        self.dt_max = dt_max
        self.size = max(1, BLOCK_VALUES // (grid.n_cells + grid.n_nodes))
        self.rows: deque[tuple[float, tuple[np.ndarray, ...]]] = deque()

    def at(self, t: float, dt: float, target: float) -> tuple[np.ndarray, ...]:
        """The sources of the step of size dt from t toward target."""
        time = t + dt
        if not self.rows or self.rows[0][0] != time:
            times = [time]
            if dt == self.dt_max:
                while len(times) < self.size and self.dt_max <= target - times[-1]:
                    times.append(times[-1] + self.dt_max)
            rows = zip(*mms_sources(self.case, self.grid, times))
            self.rows = deque(zip(times, rows))
        return self.rows.popleft()[1]


class _Block:
    """Accepted states that the instruments have not folded yet, with the
    steps that made them; full at max(1, BLOCK_VALUES // n_nodes) states.
    States are never changed once made, so the block keeps the states
    themselves, and the StateBlock it folds views or stacks their arrays
    (StateBlock.of).
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.size = max(1, BLOCK_VALUES // grid.n_nodes)
        self.states: list[State] = []
        self.dts: list[float] = []

    def push(self, state: State, dt: float) -> bool:
        """Add an accepted step; True when the block is full."""
        self.states.append(state)
        self.dts.append(dt)
        return len(self.states) == self.size

    def flush(self, acc: RepresentationAccumulator, tracker: BoundTracker) -> None:
        """Fold the pending steps into the instruments and empty the block."""
        if not self.states:
            return
        block = StateBlock.of(self.states, self.dts)
        self.states.clear()
        self.dts.clear()
        update_accumulator(acc, block, self.grid)
        update_bounds(tracker, block, self.grid)


class _Stepper:
    """The one stepping loop of a run, from the scenario's initial data to
    t_end; see the module docstring.

    state is the initial state until the iteration starts, None while it
    runs, and the last accepted state (the initial one if none was) once it
    ends. wall_stress(t) is the wall stress imposed at time t. Iterating
    yields each accepted step as (state, dt, row_due, stress_bc), where
    row_due says that the step landed on the next output time and stress_bc
    is the wall stress the step imposed, at state.t. Once the iteration
    ends, abort_reason says why the run stopped short of t_end (None when
    it did not) and halvings counts the halved retries.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.grid = Grid(scenario.n_cells)
        self.case = (
            manufactured_case(scenario.mms, scenario.params)
            if scenario.mms is not None
            else None
        )
        self.state: State | None = with_derived(
            scenario.initial_state(self.grid), scenario.params, self.grid
        )
        self.wall_stress = partial(_imposed_wall_stress, self.case, scenario.bc)
        self.abort_reason: str | None = None
        self.halvings = 0

    def __iter__(self) -> Iterator[tuple[State, float, bool, tuple[float, float]]]:
        scenario, grid, case = self.scenario, self.grid, self.case
        params = scenario.params
        bc = scenario.bc
        queue = _SourceQueue(case, grid, scenario.dt_max) if case is not None else None
        # the loop alone holds the states it steps from, so the initial state
        # is freed as the later ones are (a state is 7 arrays of N values)
        state, self.state = self.state, None
        previous: State | None = None
        halvings = 0
        abort_reason: str | None = None
        out_index = 1

        while not _reached(state.t, scenario.t_end):
            dt = dt_control(
                state, grid, params, scenario.cfl, scenario.dt_min, scenario.dt_max
            )
            target = min(scenario.t_end, out_index * scenario.output_every)
            dt = min(dt, target - state.t)

            while True:
                try:
                    sources = (
                        queue.at(state.t, dt, target) if queue is not None else None
                    )
                    stress_bc = self.wall_stress(state.t + dt)
                    new_state = step(
                        state, dt, params, bc, grid, sources, stress_bc, previous
                    )
                    break
                except StepRejected as exc:
                    halvings += 1
                    dt *= 0.5
                    if not dt >= scenario.dt_min:  # a NaN dt aborts too
                        abort_reason = str(exc)
                        break
            if abort_reason is not None:
                break

            previous, state = state, new_state
            row_due = _reached(state.t, out_index * scenario.output_every)
            yield state, dt, row_due, stress_bc
            if row_due:
                out_index += 1
        self.state, self.abort_reason, self.halvings = state, abort_reason, halvings

    def report(self, rows: tuple[DiagnosticsRow, ...]) -> DiagnosticsReport:
        """The report of the finished loop, with the given output rows."""
        return DiagnosticsReport(
            rows=rows,
            status="completed" if self.abort_reason is None else "aborted",
            abort_reason=self.abort_reason,
            halvings=self.halvings,
        )

    def final_state(self) -> State:
        """The last state without its derived fields, which nothing reads."""
        state = self.state
        return State(state.t, state.v, state.u, state.theta)


def run(scenario: Scenario) -> RunResult:
    """Advance the scenario to t_end, collecting diagnostics on the way."""
    stepper = _Stepper(scenario)
    grid, state = stepper.grid, stepper.state
    params = scenario.params
    bc = scenario.bc
    initial_residual = compatibility_residual(
        state, params, bc, grid, stepper.wall_stress(0.0)
    )

    acc = make_accumulator(state, grid, params)
    tracker = make_tracker(state, grid, params)
    block = _Block(grid)
    rows: list[DiagnosticsRow] = []

    for state, dt, row_due, stress_bc in stepper:
        if block.push(state, dt) or row_due:
            block.flush(acc, tracker)

        if row_due:
            resid = boundary_stress_residual(state, params, grid, bc, stress_bc)
            energy = total_energy(state, grid, params.c_v)
            rows.append(
                DiagnosticsRow(
                    t=state.t,
                    energy=energy,
                    energy_drift=energy_drift(tracker, energy),
                    min_v=state.extrema.v_min,
                    max_v=state.extrema.v_max,
                    min_theta=state.extrema.theta_min,
                    max_theta=state.extrema.theta_max,
                    repr_residual=representation_residual(state, acc, grid),
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
    block.flush(acc, tracker)

    return RunResult(
        scenario=scenario,
        grid=grid,
        state=stepper.final_state(),
        report=stepper.report(tuple(rows)),
        accumulator=acc,
        tracker=tracker,
        initial_residual=initial_residual,
    )


def advance(scenario: Scenario) -> tuple[Grid, State, DiagnosticsReport]:
    """Advance the scenario to t_end through the same steps as run, without
    the instruments: the grid, the final state and a report with no rows.
    For callers that read only where the run ended, such as a convergence
    study."""
    stepper = _Stepper(scenario)
    for _ in stepper:
        pass
    return stepper.grid, stepper.final_state(), stepper.report(())


def verification_table(result: RunResult) -> list[CheckResult]:
    """Evaluate the full invariant suite on a finished physical run.

    Thresholds are fixed, documented constants; each row is independent so
    one failure never masks another. Worst values are taken with reductions
    that keep a NaN, so a NaN fails the row it lands in. The checks that
    read the output rows fail when the run recorded none (t_end <
    output_every), since they then checked nothing. The representation and
    energy checks also judge the final state when it is later than the last
    row, so the stretch after the last multiple of output_every is checked
    too.
    """
    grid = result.grid
    tracker = result.tracker
    rows = result.report.rows
    dx = grid.dx
    residuals = [row.repr_residual for row in rows]
    drifts = [row.energy_drift for row in rows]
    final = result.state
    if not rows or final.t > rows[-1].t:
        residuals.append(representation_residual(final, result.accumulator, grid))
        drifts.append(
            energy_drift(tracker, total_energy(final, grid, tracker.params.c_v))
        )
    scale = max(tracker.sup_stress_scale, 1.0)
    checks: list[CheckResult] = []

    compat_tol = COMPAT_FACTOR * dx**2 * scale
    worst_compat = float(np.max(result.initial_residual))
    checks.append(
        CheckResult(
            "initial compatibility",
            worst_compat <= compat_tol,
            f"max t=0 boundary defect {worst_compat:.3e} (tol {compat_tol:.3e})",
        )
    )

    worst_repr = float(np.max(residuals))
    checks.append(
        CheckResult(
            "volume representation",
            worst_repr <= REPR_TOL,
            f"max residual {worst_repr:.3e} (tol {REPR_TOL:.1e})",
        )
    )

    worst_drift = float(np.max(drifts))
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

    # each row's worse wall, judged against the tolerance of its own step
    defects = np.array(
        [(row.boundary_resid_left, row.boundary_resid_right) for row in rows]
    ).reshape(-1, 2).max(axis=1)
    dts = np.array([row.dt_current for row in rows])
    boundary_ok = bool(np.all(defects <= BOUNDARY_FACTOR * (dx**2 + dts) * scale))
    worst_boundary = float(defects.max(initial=0.0))
    checks.append(
        CheckResult(
            "boundary compatibility",
            boundary_ok,
            f"max wall defect {worst_boundary:.3e} "
            f"(tol {BOUNDARY_FACTOR:.0f}*(dx^2 + dt)*{scale:.3g})",
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

    if not rows:
        checks = [
            replace(check, passed=False, detail="no output row was recorded")
            if check.name in ROW_CHECKS
            else check
            for check in checks
        ]
    return checks
