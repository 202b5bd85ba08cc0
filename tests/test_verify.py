import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagns import (
    BoundaryKind,
    Grid,
    MaterialParams,
    State,
    boundary_stress_residual,
    compatible_initial_data,
    energy_drift,
    initial_volume_factor,
    make_accumulator,
    make_tracker,
    representation_residual,
    stress_magnitude_scale,
    update_accumulator,
    update_bounds,
    velocity_band_check,
    velocity_integral_factor,
    viscosity_volume_factor,
)
from lagns.grid import cell_integral, du_dx_cells, grad_l2_sq, node_weights
from lagns.scenario import ProfileSpec
from lagns.verify import BoundTracker

SF = BoundaryKind.STRESS_FREE
NS = BoundaryKind.NO_SLIP


class TestInitialVolumeFactor:
    def test_alpha_zero_returns_copy(self):
        v0 = np.array([0.5, 1.0, 2.0])
        out = initial_volume_factor(v0, 0.0)
        np.testing.assert_array_equal(out, v0)
        assert out is not v0

    def test_unit_volume_alpha_one(self):
        np.testing.assert_allclose(
            initial_volume_factor(np.array([1.0]), 1.0), np.exp(-1.0)
        )

    def test_unit_volume_alpha_two(self):
        np.testing.assert_allclose(
            initial_volume_factor(np.array([1.0]), 2.0), np.exp(-0.5)
        )


class TestViscosityVolumeFactor:
    def test_unit_volume_alpha_one(self):
        np.testing.assert_allclose(
            viscosity_volume_factor(np.array([1.0]), 1.0), np.e
        )

    def test_large_volume_tends_to_one(self):
        out = viscosity_volume_factor(np.array([1e8]), 1.0)
        assert out[0] == pytest.approx(1.0, abs=1e-7)

    def test_alpha_zero_is_ones(self):
        np.testing.assert_array_equal(
            viscosity_volume_factor(np.array([0.3, 7.0]), 0.0), np.ones(2)
        )


class TestVelocityIntegralFactor:
    def test_unchanged_velocity_gives_ones(self, grid):
        u = np.sin(grid.nodes)
        np.testing.assert_array_equal(
            velocity_integral_factor(u, u, grid, 1.0), np.ones(grid.n_cells)
        )

    def test_unit_difference_exponentiates_centers(self, grid):
        # u - u0 = 1 integrates to x, so the cell factor is exp(center)
        u0 = np.zeros(grid.n_nodes)
        u = np.ones(grid.n_nodes)
        out = velocity_integral_factor(u, u0, grid, 1.0)
        np.testing.assert_allclose(out, np.exp(grid.centers), rtol=1e-13)

    def test_half_weight_halves_log(self, grid):
        u0 = np.zeros(grid.n_nodes)
        u = np.ones(grid.n_nodes)
        full = velocity_integral_factor(u, u0, grid, 1.0)
        half = velocity_integral_factor(u, u0, grid, 0.5)
        np.testing.assert_allclose(np.log(half), 0.5 * np.log(full), atol=1e-14)


class TestRepresentationAccumulator:
    def test_constant_integrand_accumulates_trapezoid(self, grid, params):
        state = State(0.0, np.ones(grid.n_cells), np.zeros(grid.n_nodes), np.ones(grid.n_cells))
        acc = make_accumulator(state, grid, params)
        # integrand theta/(D1*D2) is constant in time here, so the trapezoid
        # rule accumulates exactly c*dt per step
        c = acc.last_integrand.copy()
        later = state.copy()
        later.t = 0.1
        update_accumulator(
            acc, later, 0.1, params.alpha, acc.velocity_factor(later, grid)
        )
        np.testing.assert_allclose(acc.time_integral, 0.1 * c, rtol=1e-14)
        later2 = later.copy()
        later2.t = 0.2
        update_accumulator(
            acc, later2, 0.1, params.alpha, acc.velocity_factor(later2, grid)
        )
        np.testing.assert_allclose(acc.time_integral, 0.2 * c, rtol=1e-14)
        assert acc.monotone_ok

    def test_negative_increment_clears_monotone_flag(self, grid, params):
        state = State(0.0, np.ones(grid.n_cells), np.zeros(grid.n_nodes), np.ones(grid.n_cells))
        acc = make_accumulator(state, grid, params)
        chilled = state.copy()
        chilled.theta = np.full(grid.n_cells, -3.0)  # unphysical, forced by hand
        update_accumulator(
            acc, chilled, 0.1, params.alpha, acc.velocity_factor(chilled, grid)
        )
        assert not acc.monotone_ok

    def test_out_of_sync_time_raises(self, grid, params, uniform_state):
        acc = make_accumulator(uniform_state, grid, params)
        ahead = uniform_state.copy()
        ahead.t = 1.0
        with pytest.raises(ValueError, match="out of sync"):
            representation_residual(ahead, acc, grid, params.alpha)

    @settings(max_examples=40, deadline=None)
    @given(
        v0=hnp.arrays(
            np.float64, 16,
            elements=st.floats(0.2, 5.0, allow_nan=False, allow_infinity=False),
        ),
        alpha=st.sampled_from([0.0, 0.7, 1.0, 2.0]),
    )
    def test_initial_residual_vanishes(self, v0, alpha):
        # the representation is an algebraic identity at t = 0: the factors
        # cancel against b0 for any positive initial volume
        grid = Grid(16)
        params = MaterialParams(alpha=alpha)
        state = State(0.0, v0, np.zeros(grid.n_nodes), np.ones(grid.n_cells))
        acc = make_accumulator(state, grid, params)
        assert representation_residual(state, acc, grid, alpha) <= 1e-12


class TestVelocityBand:
    def test_initial_state_inside_with_formula_margin(self, grid, params):
        profile = ProfileSpec(name="cosine").build()
        state = compatible_initial_data(profile, params, SF, grid)
        acc = make_accumulator(state, grid, params)
        inside, margin = velocity_band_check(acc, acc.velocity_factor(state, grid))
        assert inside
        # u = u0 makes the factor exactly one; margin is distance to the
        # nearer band edge
        s = np.sqrt(2.0 * acc.e0)
        expected = min(1.0 - np.exp(-acc.k * s), np.exp(acc.k * s) - 1.0)
        assert margin == pytest.approx(expected, rel=1e-12)

    def test_unfed_excursion_is_flagged(self, grid, params, cosine_profile):
        # the factor belongs to the state passed in, not to the last state
        # the accumulator was advanced with
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        acc = make_accumulator(state, grid, params)
        later = state.copy()
        later.t = 0.1
        update_accumulator(
            acc, later, 0.1, params.alpha, acc.velocity_factor(later, grid)
        )
        wild = later.copy()
        wild.u = np.full(grid.n_nodes, 50.0)
        inside, margin = velocity_band_check(acc, acc.velocity_factor(wild, grid))
        assert not inside
        assert margin < 0.0
        assert velocity_band_check(acc, acc.velocity_factor(later, grid))[0]

    def test_excursion_outside_is_flagged(self, grid, params, uniform_state):
        acc = make_accumulator(uniform_state, grid, params)
        wild = uniform_state.copy()
        wild.u = np.full(grid.n_nodes, 50.0)
        inside, margin = velocity_band_check(acc, acc.velocity_factor(wild, grid))
        assert not inside
        assert margin < 0.0


class TestBoundTracker:
    def test_steady_state_integrals(self, grid, params, uniform_state):
        tracker = make_tracker(uniform_state, grid, params)
        state = uniform_state
        dt = 0.25
        for _ in range(4):
            new = state.copy()
            new.t = state.t + dt
            update_bounds(tracker, state, new, dt, grid)
            state = new
        # max theta = 1 at rest: the time integral equals elapsed time;
        # gradient and acceleration integrals stay exactly zero
        assert tracker.int_max_theta == pytest.approx(1.0, rel=1e-14)
        assert tracker.int_uxx_sq == 0.0
        assert tracker.int_ut_sq == 0.0
        assert tracker.sup_grad_v_sq == 0.0
        assert tracker.min_v == 1.0
        assert tracker.min_theta == 1.0
        assert tracker.max_energy_drift == 0.0
        assert tracker.monotone_ok

    def test_minima_track_excursions(self, grid, params, uniform_state):
        tracker = make_tracker(uniform_state, grid, params)
        dipped = uniform_state.copy()
        dipped.t = 0.1
        dipped.v[3] = 0.4
        dipped.theta[5] = 0.7
        update_bounds(tracker, uniform_state, dipped, 0.1, grid)
        assert tracker.min_v == pytest.approx(0.4)
        assert tracker.min_theta == pytest.approx(0.7)

    def test_nonfinite_clears_monotone_flag(self, grid, params, uniform_state):
        tracker = make_tracker(uniform_state, grid, params)
        # the theta integral uses the left-rectangle rule, so the previous
        # state must carry the bad value for it to enter the running sums
        broken = uniform_state.copy()
        broken.theta = np.full(grid.n_cells, np.inf)
        later = broken.copy()
        later.t = 0.1
        with np.errstate(invalid="ignore"):
            update_bounds(tracker, broken, later, 0.1, grid)
        assert not tracker.monotone_ok

    def test_stress_scale_positive_at_rest(self, grid, params, uniform_state):
        # pure pressure: R*theta/v = 1 everywhere
        assert stress_magnitude_scale(uniform_state, params, grid) == pytest.approx(1.0)


def reference_update_bounds(tracker, state_prev, state, dt, grid):
    """update_bounds written with the grid helpers, as the oracle."""
    params = tracker.params
    dx = grid.dx
    g = du_dx_cells(state.u, grid)
    before = (tracker.int_max_theta, tracker.int_uxx_sq, tracker.int_ut_sq)
    tracker.min_v = min(tracker.min_v, float(np.min(state.v)))
    tracker.min_theta = min(tracker.min_theta, float(np.min(state.theta)))
    tracker.sup_grad_v_sq = max(tracker.sup_grad_v_sq, grad_l2_sq(state.v, grid))
    tracker.sup_grad_theta_sq = max(
        tracker.sup_grad_theta_sq, grad_l2_sq(state.theta, grid)
    )
    tracker.sup_u_x_sq = max(tracker.sup_u_x_sq, cell_integral(g * g, grid))
    tracker.sup_stress_scale = max(
        tracker.sup_stress_scale, stress_magnitude_scale(state, params, grid)
    )
    tracker.int_max_theta += dt * float(np.max(state_prev.theta))
    uxx = (state_prev.u[2:] - 2.0 * state_prev.u[1:-1] + state_prev.u[:-2]) / dx**2
    tracker.int_uxx_sq += dt * dx * float(uxx @ uxx)
    du_dt = (state.u - state_prev.u) / dt
    tracker.int_ut_sq += dt * float(node_weights(grid) @ (du_dt * du_dt))
    tracker.max_energy_drift = max(
        tracker.max_energy_drift, energy_drift(tracker, state, grid, params)
    )
    after = (tracker.int_max_theta, tracker.int_uxx_sq, tracker.int_ut_sq)
    if not all(np.isfinite(after)) or any(a < b for a, b in zip(after, before)):
        tracker.monotone_ok = False


ORACLE_CELLS = 12
positive_cells = hnp.arrays(
    np.float64, ORACLE_CELLS, elements=st.floats(0.05, 20.0, allow_nan=False)
)
velocities = hnp.arrays(
    np.float64, ORACLE_CELLS + 1, elements=st.floats(-5.0, 5.0, allow_nan=False)
)
oracle_states = st.builds(
    lambda v, u, theta: State(0.0, v, u, theta),
    positive_cells,
    velocities,
    positive_cells,
)


class TestUpdateBoundsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(oracle_states, min_size=2, max_size=4),
        dt=st.floats(1e-6, 0.5),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        c_v=st.floats(0.2, 5.0),
    )
    def test_bit_identical_to_grid_helpers(self, states, dt, alpha, c_v):
        grid = Grid(ORACLE_CELLS)
        params = MaterialParams(alpha=alpha, c_v=c_v)
        tracker = make_tracker(states[0], grid, params)
        reference = dataclasses.replace(tracker)
        for prev, state in zip(states, states[1:]):
            update_bounds(tracker, prev, state, dt, grid)
            reference_update_bounds(reference, prev, state, dt, grid)
            for field in dataclasses.fields(BoundTracker):
                if field.name in ("params", "weights"):
                    continue
                # repr round-trips a float exactly, so equal reprs are equal bits
                got = repr(getattr(tracker, field.name))
                want = repr(getattr(reference, field.name))
                assert got == want, field.name


class TestEnergyDrift:
    def test_zero_at_start(self, grid, params, uniform_state):
        tracker = make_tracker(uniform_state, grid, params)
        assert energy_drift(tracker, uniform_state, grid, params) == 0.0

    def test_absolute_branch_when_reference_is_zero(self, grid, params, uniform_state):
        from lagns import total_energy

        # a zero reference energy cannot arise from valid (positive) data,
        # but the drift helper still guards it; force it directly
        tracker = make_tracker(uniform_state, grid, params)
        tracker.e0 = 0.0
        e = energy_drift(tracker, uniform_state, grid, params)
        assert e == pytest.approx(total_energy(uniform_state, grid, params.c_v))


class TestBoundaryStressResidual:
    def test_no_slip_reports_wall_speeds(self, grid, params, uniform_state):
        uniform_state.u[0] = 1e-3
        uniform_state.u[-1] = -2e-3
        left, right = boundary_stress_residual(uniform_state, params, grid, NS)
        assert left == pytest.approx(1e-3)
        assert right == pytest.approx(2e-3)

    def test_compatible_data_is_second_order(self, params, cosine_profile):
        previous = None
        for n in (64, 128, 256):
            grid = Grid(n)
            state = compatible_initial_data(cosine_profile, params, SF, grid)
            left, right = boundary_stress_residual(state, params, grid, SF)
            bound = 10.0 * grid.dx**2 * stress_magnitude_scale(state, params, grid)
            assert left <= bound and right <= bound
            if previous is not None:
                assert max(left, right) < max(previous) / 2.0
            previous = (left, right)

    def test_imposed_value_is_subtracted(self, grid, params, uniform_state):
        # rest state has sigma = -P = -1 in every cell, so the extrapolated
        # wall stress is -1 exactly and the defect against an imposed value
        # of -1 vanishes
        left, right = boundary_stress_residual(
            uniform_state, params, grid, SF, stress_bc=(-1.0, -1.0)
        )
        assert left == pytest.approx(0.0, abs=1e-14)
        assert right == pytest.approx(0.0, abs=1e-14)
        left2, _ = boundary_stress_residual(uniform_state, params, grid, SF)
        assert left2 == pytest.approx(1.0)
