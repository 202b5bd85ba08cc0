"""Run loop: advance a scenario from t = 0 to t_end.

One stepping loop (_Stepper) advances every run. It floors dt_control's
limit at dt_min, snaps it down so that steps land on every multiple of
output_every, feeds a manufactured run its sources and imposed wall stress,
and retries a step that scheme.step rejects with halved dt. The one way a
run aborts is halving dt below dt_min, which stops it with whatever was
gathered, a reported finding rather than an error. The loop yields each
accepted step, and two consumers read it:

- run feeds every accepted step to the representation accumulator and
  the bound tracker, and records a diagnostics row at every multiple of
  output_every, whose wall defect is measured against the stress imposed
  at its time (the initial state's against the stress imposed at t = 0).
  lagns.verify.verification_table, re-exported here, judges its result;
- advance keeps only the last state, for callers such as a convergence
  study that read nothing else. Its steps, and so its final state, status
  and halvings, are bit-identical to run's.

run keeps the accepted states in a block and folds them into the
instruments in one call per block (see lagns.verify). A block is flushed
when it is full, when an output row is due (a row reads the tracker and
the time integral), and when the run completes or aborts, so the
instruments are in step with the state at every row and at the end.

A stretch is max(1, BLOCK_VALUES // n_nodes) steps (_stretch): a block
holds the states of one, and one mms_sources call evaluates the sources of
at most one. The per-call overhead a stretch saves is the same whatever N
is, but its temporaries hold a row per step, of at most N + 1 values, and
so grow with N. Capped at BLOCK_VALUES values they stay at 32 KiB, well
below the 128 KiB from which glibc maps and unmaps every allocation, which
would make a long stretch slower than its single steps: 240, 124, 63 and
31 steps at N = 16, 32, 64 and 128, and one step from N = 2048 on. The
block keeps references to its states. When it is folded, the rows of a
one-step block are views of its state's arrays, and a longer block stacks
copies of its states' fields.

A manufactured run evaluates its sources ahead, in a queue of rows, each
the forcing (scheme.forcing) of one step: its time, its dt and the scaled
sources the step adds. A step takes the head row only when both its time
state.t + dt and its dt are bit-equal to the row's; otherwise the queue is
refilled from one mms_sources call that starts at the step's time, whose
rows are scaled into forcing at that step's dt in one forcing call. When
the cap binds (dt == dt_max), that call also covers the times the
following capped steps form, t + dt_max while dt_max <= target - t, the
same floats the loop will make; CFL-limited steps, halved retries and the
truncated step before a row evaluate their one time at their own dt. A
call evaluates s_v and s_theta at the N cell centers and s_u at the N + 1
nodes, so its widest temporary holds a value per node and time. A row is
used only at its exact time and dt, so the results never depend on the
prediction: two steps of different dt can land on one time, and a
forcing made at the other's dt would not be this step's. A run that
imposes no wall stress (any but a forced stress-free one) passes zero
without evaluating it.

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
from dataclasses import dataclass

import numpy as np

from .grid import Grid, State, total_energy
from .mms import MmsCase, manufactured_case, mms_sources
from .scenario import DiagnosticsReport, DiagnosticsRow, Scenario
from .scheme import (
    BoundaryKind,
    StepRejected,
    dt_control,
    forcing,
    step,
    with_derived,
)
from .verify import (
    BoundTracker,
    CheckResult,
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
    verification_table,
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

# values in one row-stacked temporary of the instruments' block fold, and in
# one temporary of an mms_sources call (32 KiB); see _stretch
BLOCK_VALUES = 4096
# the wall stress of a run that imposes none
_FREE_WALLS = (0.0, 0.0)


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


def _reached(t: float, target: float) -> bool:
    """Whether a run at time t has reached the time target. A step that
    lands on the target can miss it by the rounding of t + (target - t),
    so t counts within a relative 1e-12 below it: the tolerance scales
    with the run's own times, however small they are."""
    return t >= target - 1e-12 * target


def _stretch(grid: Grid) -> int:
    """The steps in one stretch on grid: those a block holds, and the times
    one mms_sources call evaluates at most; see the module docstring."""
    return max(1, BLOCK_VALUES // grid.n_nodes)


class _SourceQueue:
    """Manufactured forcing made ahead, as (time, forcing) rows that all
    hold for one dt, the queue's dt: a refill makes every row at the dt of
    the step that asked for it. See the module docstring."""

    def __init__(self, case: MmsCase, grid: Grid, dt_max: float | None) -> None:
        self.case = case
        self.grid = grid
        self.dt_max = dt_max
        self.size = _stretch(grid)
        self.dt: float | None = None
        self.rows: deque[tuple[float, tuple[np.ndarray, ...]]] = deque()

    def at(self, t: float, dt: float, target: float) -> tuple[np.ndarray, ...]:
        """The forcing of the step of size dt from t toward target."""
        time = t + dt
        if not self.rows or self.rows[0][0] != time or self.dt != dt:
            times = [time]
            if dt == self.dt_max:
                while len(times) < self.size and self.dt_max <= target - times[-1]:
                    times.append(times[-1] + self.dt_max)
            sources = mms_sources(self.case, self.grid, times)
            rows = zip(*forcing(sources, dt, self.case.params))
            self.dt, self.rows = dt, deque(zip(times, rows))
        return self.rows.popleft()[1]


class _Block:
    """Accepted states that the instruments have not folded yet, with the
    steps that made them; full at a stretch of states (_stretch).
    States are never changed once made, so the block keeps the states
    themselves, and the StateBlock it folds views or stacks their arrays
    (StateBlock.of).
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.size = _stretch(grid)
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
    ends. Iterating yields each accepted step as (state, dt, row_due), where
    row_due says that the step landed on the next output time. Once the
    iteration ends, abort_reason says why the run stopped short of t_end
    (None when it did not), halvings counts the halved retries and floored
    the steps whose acoustic limit fell below dt_min.
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
        # only a forced run on stress-free walls imposes a wall stress
        self.forces_walls = (
            self.case is not None and scenario.bc is BoundaryKind.STRESS_FREE
        )
        self.abort_reason: str | None = None
        self.halvings = self.floored = 0

    def wall_stress(self, t: float) -> tuple[float, float]:
        """The wall stress imposed at time t: the manufactured value on the
        stress-free walls of a forced run, zero otherwise."""
        if not self.forces_walls:
            return _FREE_WALLS
        values = self.case.wall_stress(t)
        return float(values[0]), float(values[1])

    def __iter__(self) -> Iterator[tuple[State, float, bool]]:
        grid, case, scenario = self.grid, self.case, self.scenario
        params, bc, t_end = scenario.params, scenario.bc, scenario.t_end
        cfl, dt_min, dt_max = scenario.cfl, scenario.dt_min, scenario.dt_max
        output_every = scenario.output_every
        queue = _SourceQueue(case, grid, dt_max) if case is not None else None
        forces_walls = self.forces_walls
        # the loop alone holds the states it steps from, so the initial state
        # is freed as the later ones are (a state is 7 arrays of N values)
        state, self.state = self.state, None
        previous: State | None = None
        halvings = floored = 0
        abort_reason: str | None = None
        out_index = 1

        while not _reached(state.t, t_end):
            dt = dt_control(state, grid, params, cfl, dt_max)
            if dt < dt_min:
                floored += 1
                dt = dt_min
            target = min(t_end, out_index * output_every)
            dt = min(dt, target - state.t)

            while True:
                try:
                    step_forcing = (
                        queue.at(state.t, dt, target) if queue is not None else None
                    )
                    stress_bc = (
                        self.wall_stress(state.t + dt) if forces_walls else _FREE_WALLS
                    )
                    new_state = step(
                        state, dt, params, bc, grid, step_forcing, stress_bc,
                        previous,
                    )
                    break
                except StepRejected as exc:
                    halvings += 1
                    dt *= 0.5
                    if not dt >= dt_min:  # a NaN dt aborts too
                        abort_reason = str(exc)
                        break
            if abort_reason is not None:
                break

            previous, state = state, new_state
            row_due = _reached(state.t, out_index * output_every)
            yield state, dt, row_due
            if row_due:
                out_index += 1
        self.state, self.abort_reason = state, abort_reason
        self.halvings, self.floored = halvings, floored

    def report(self, rows: tuple[DiagnosticsRow, ...]) -> DiagnosticsReport:
        """The report of the finished loop, with the given output rows."""
        return DiagnosticsReport(
            rows=rows,
            status="completed" if self.abort_reason is None else "aborted",
            abort_reason=self.abort_reason,
            halvings=self.halvings,
            floored_steps=self.floored,
        )

    def final_state(self) -> State:
        """The last state without its derived fields, which nothing reads."""
        state = self.state
        return State(state.t, state.v, state.u, state.theta)


def run(scenario: Scenario) -> RunResult:
    """Advance the scenario to t_end, collecting diagnostics on the way."""
    stepper = _Stepper(scenario)
    grid, state = stepper.grid, stepper.state
    params, bc, wall_stress = scenario.params, scenario.bc, stepper.wall_stress
    initial_residual = compatibility_residual(state, params, bc, grid, wall_stress(0.0))

    acc = make_accumulator(state, grid, params)
    tracker = make_tracker(state, grid, params)
    block = _Block(grid)
    rows: list[DiagnosticsRow] = []

    for state, dt, row_due in stepper:
        if block.push(state, dt) or row_due:
            block.flush(acc, tracker)

        if row_due:
            stress_bc = wall_stress(state.t)  # the stress the step imposed
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
