import numpy as np
import pytest

from lagns import (
    BoundaryKind,
    Grid,
    InitialProfile,
    MaterialParams,
    ProfileSpec,
    Scenario,
    SolverAbort,
    State,
    StepControls,
    StepRejected,
    compatible_initial_data,
    compatibility_residual,
    continuity_step,
    du_dx_cells,
    dt_control,
    manufactured_case,
    momentum_step,
    run,
    step,
    stress,
    temperature_step,
    total_energy,
    viscosity,
)

SF = BoundaryKind.STRESS_FREE
NS = BoundaryKind.NO_SLIP


def constant_profile():
    return ProfileSpec(name="constant").build()


class TestStepControls:
    @pytest.mark.parametrize("kwargs", [
        {"cfl": 0.0},
        {"cfl": 1.5},
        {"dt_min": 0.0},
        {"max_picard": 0},
        {"picard_tol": -1e-9},
        {"dt_max": 0.0},
    ])
    def test_rejects_bad_controls(self, kwargs):
        with pytest.raises(ValueError):
            StepControls(**kwargs)


class TestBoundaryKind:
    def test_from_name(self):
        assert BoundaryKind.from_name("stress_free") is SF
        assert BoundaryKind.from_name("no_slip") is NS
        with pytest.raises(ValueError, match="unknown boundary"):
            BoundaryKind.from_name("periodic")


class TestCompatibleInitialData:
    def test_uniform_constant_viscosity_gives_linear_velocity(self):
        # R*theta0/mu(v0) = 1/2 exactly, so u0(x) = x/2 and sigma vanishes
        grid = Grid(32)
        params = MaterialParams(alpha=0.0)
        state = compatible_initial_data(constant_profile(), params, SF, grid)
        np.testing.assert_allclose(state.u, grid.nodes / 2.0, atol=1e-15)
        sigma = stress(state.v, state.theta, du_dx_cells(state.u, grid), params)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-14)

    def test_no_slip_constant_is_steady(self, grid, params):
        state = compatible_initial_data(constant_profile(), params, NS, grid)
        assert np.all(state.u == 0.0)
        assert np.all(state.v == 1.0)
        assert np.all(state.theta == 1.0)

    def test_cosine_profile_accepted(self, grid, params, cosine_profile):
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state.validate(grid)
        assert state.u[0] == 0.0
        assert np.all(np.diff(state.u) > 0.0)  # integrand R*theta/mu > 0

    def test_vacuum_profile_rejected(self, grid, params):
        with pytest.raises(ValueError, match="positivity"):
            bad = ProfileSpec(name="cosine", amplitudes=(("v_amp", 1.5),)).build()
            compatible_initial_data(bad, params, SF, grid)

    def test_sloped_wall_temperature_rejected(self, grid, params):
        tilted = InitialProfile(
            name="tilted",
            v0=lambda x: np.ones(np.shape(x)),
            theta0=lambda x: 1.0 + 0.1 * x,
            u0=lambda x: np.zeros(np.shape(x)),
            inf_v=1.0,
            inf_theta=1.0,
        )
        with pytest.raises(ValueError, match="wall theta slope"):
            compatible_initial_data(tilted, params, SF, grid)

    def test_no_slip_needs_vanishing_wall_velocity(self, grid, params):
        moving = InitialProfile(
            name="moving",
            v0=lambda x: np.ones(np.shape(x)),
            theta0=lambda x: np.ones(np.shape(x)),
            u0=lambda x: np.ones(np.shape(x)),
            inf_v=1.0,
            inf_theta=1.0,
        )
        with pytest.raises(ValueError, match="wall velocity"):
            compatible_initial_data(moving, params, NS, grid)


class TestCompatibilityResidual:
    def test_constructed_data_within_quadrature_error(self, params, cosine_profile):
        previous = None
        for n in (64, 128, 256):
            grid = Grid(n)
            state = compatible_initial_data(cosine_profile, params, SF, grid)
            resid = compatibility_residual(state, params, SF, grid)
            assert np.all(resid <= 10.0 * grid.dx**2)
            if previous is not None:
                # second-order construction: quartering dx^2 at least halves it
                assert np.all(resid <= previous / 2.0)
            previous = resid

    def test_no_slip_steady_is_exact(self, grid, params):
        state = compatible_initial_data(constant_profile(), params, NS, grid)
        np.testing.assert_array_equal(
            compatibility_residual(state, params, NS, grid), np.zeros(4)
        )

    def test_no_slip_unit_velocity(self, grid, params, uniform_state):
        uniform_state.u[:] = 1.0
        resid = compatibility_residual(uniform_state, params, NS, grid)
        assert resid[0] == 1.0 and resid[1] == 1.0


class TestDtControl:
    def test_exact_formula(self):
        grid = Grid(100)
        state = State(0.0, np.ones(100), np.zeros(101), np.ones(100))
        dt = dt_control(state, grid, MaterialParams(), StepControls(cfl=0.5))
        assert dt == pytest.approx(0.5 * 0.01 / np.sqrt(2.0))

    def test_doubling_cells_halves_dt(self, params):
        dts = []
        for n in (50, 100):
            state = State(0.0, np.ones(n), np.zeros(n + 1), np.ones(n))
            dts.append(dt_control(state, Grid(n), params, StepControls()))
        assert dts[0] == pytest.approx(2.0 * dts[1])

    def test_hotter_cell_lowers_dt(self, grid, params, uniform_state):
        base = dt_control(uniform_state, grid, params, StepControls())
        hot = uniform_state.copy()
        hot.theta[10] = 4.0
        assert dt_control(hot, grid, params, StepControls()) < base

    def test_dt_max_caps(self, grid, params, uniform_state):
        dt = dt_control(uniform_state, grid, params, StepControls(dt_max=1e-6))
        assert dt == 1e-6

    def test_dt_min_floors(self, grid, params, uniform_state):
        dt = dt_control(uniform_state, grid, params, StepControls(dt_min=1.0))
        assert dt == 1.0

    def test_nan_state_aborts(self, grid, params, uniform_state):
        uniform_state.u[0] = np.nan
        with pytest.raises(SolverAbort, match="non-finite"):
            dt_control(uniform_state, grid, params, StepControls())


class TestMomentumStep:
    def test_no_slip_steady_stays_zero(self, grid, params, uniform_state):
        new_u = momentum_step(uniform_state, 1e-2, params, NS, grid)
        np.testing.assert_array_equal(new_u, np.zeros(grid.n_nodes))

    def test_stress_free_zero_stress_start_is_stationary(self, grid):
        # compatible uniform data has sigma = 0 per cell, so flux differences
        # vanish and the implicit solve returns u unchanged
        params = MaterialParams(alpha=0.0)
        state = compatible_initial_data(constant_profile(), params, SF, grid)
        new_u = momentum_step(state, 1e-2, params, SF, grid)
        np.testing.assert_allclose(new_u, state.u, atol=1e-14)

    def test_manufactured_time_order_at_least_one(self):
        # fine grid pins the spatial error; dt refinement shows first order
        case = manufactured_case("default", MaterialParams())
        n = 256
        dx = 1.0 / n
        errors = []
        for factor in (64, 32, 16):
            scenario = Scenario(
                bc=NS, n_cells=n, t_end=0.25, output_every=0.25,
                mms="default", dt_max=factor * dx * dx,
            )
            result = run(scenario)
            errors.append(
                float(np.max(np.abs(result.state.u - case.u(result.grid.nodes, result.state.t))))
            )
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.0


class TestContinuityStep:
    def test_uniform_velocity_preserves_volume(self, grid, uniform_state):
        new_v = continuity_step(uniform_state, np.full(grid.n_nodes, 2.0), 0.1, grid)
        np.testing.assert_array_equal(new_v, uniform_state.v)

    def test_linear_velocity_adds_dt(self, grid, uniform_state):
        new_v = continuity_step(uniform_state, grid.nodes.copy(), 0.25, grid)
        np.testing.assert_allclose(new_v, uniform_state.v + 0.25)

    def test_compatible_start_grows_half_dt(self, grid):
        params = MaterialParams(alpha=0.0)
        state = compatible_initial_data(constant_profile(), params, SF, grid)
        new_v = continuity_step(state, state.u, 0.1, grid)
        np.testing.assert_allclose(new_v, state.v + 0.05)

    def test_collapse_rejected(self, grid, uniform_state):
        crushing = -10.0 * grid.nodes
        with pytest.raises(StepRejected, match="volume"):
            continuity_step(uniform_state, crushing, 0.5, grid)


class TestTemperatureStep:
    def test_uniform_rest_state_unchanged(self, grid, params, uniform_state):
        new_theta = temperature_step(
            uniform_state, uniform_state.u, uniform_state.v, 1e-2, params, grid,
            StepControls(),
        )
        np.testing.assert_allclose(new_theta, uniform_state.theta, atol=1e-15)

    @pytest.mark.parametrize("g", [0.5, -0.3])
    def test_uniform_strain_matches_scalar_ode(self, grid, g):
        # uniform fields keep conduction identically zero, so each cell obeys
        # c_v*dtheta/dt = (mu*g^2 - R*theta*g)/v with backward-Euler value
        # theta' = (theta + dt*mu*g^2/(c_v*v)) / (1 + dt*R*g/(c_v*v))
        params = MaterialParams(alpha=1.0, c_v=1.3, R=0.9)
        v0, th0, dt = 1.25, 0.8, 2e-3
        state = State(0.0, np.full(grid.n_cells, v0), g * grid.nodes, np.full(grid.n_cells, th0))
        new_v = np.full(grid.n_cells, v0)
        new_theta = temperature_step(state, state.u, new_v, dt, params, grid, StepControls())
        mu = viscosity(np.array([v0]), params)[0]
        expected = (th0 + dt * mu * g * g / (params.c_v * v0)) / (
            1.0 + dt * params.R * g / (params.c_v * v0)
        )
        np.testing.assert_allclose(new_theta, expected, rtol=1e-12)

    def test_violent_compression_rejected(self, grid, params, uniform_state):
        crushed = uniform_state.copy()
        crushed.u = -5.0 * grid.nodes
        with pytest.raises(StepRejected, match="temperature"):
            temperature_step(crushed, crushed.u, crushed.v, 0.5, params, grid, StepControls())

    def test_nan_velocity_rejected(self, grid, params, uniform_state):
        new_u = uniform_state.u.copy()
        new_u[grid.n_nodes // 2] = np.nan
        with pytest.raises(StepRejected, match="temperature"):
            temperature_step(
                uniform_state, new_u, uniform_state.v, 1e-3, params, grid,
                StepControls(),
            )

    def test_iteration_cap_rejects(self, params, cosine_profile):
        grid = Grid(64)
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        starved = StepControls(max_picard=1)
        with pytest.raises(StepRejected, match="stalled"):
            step(state, 5e-3, params, SF, grid, starved)


class TestStep:
    def test_no_slip_constant_fixed_point(self, grid, params):
        state = compatible_initial_data(constant_profile(), params, NS, grid)
        current = state
        for _ in range(25):
            current = step(current, 5e-3, params, NS, grid, StepControls())
        np.testing.assert_allclose(current.v, state.v, rtol=1e-12)
        np.testing.assert_allclose(current.u, state.u, atol=1e-12)
        np.testing.assert_allclose(current.theta, state.theta, rtol=1e-12)

    def test_nan_velocity_rejected_not_crashed(self, grid, params, uniform_state):
        # a NaN in the momentum result must reach the driver as a rejection
        # (so dt is halved), not as a ValueError from the viscosity
        uniform_state.u[grid.n_nodes // 2] = np.nan
        with pytest.raises(StepRejected, match="volume"):
            step(uniform_state, 1e-3, params, NS, grid, StepControls())

    def test_continuity_identity_exact(self, grid, params, cosine_profile):
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        dt = 2e-3
        new = step(state, dt, params, SF, grid, StepControls())
        np.testing.assert_allclose(
            new.v - state.v, dt * du_dx_cells(new.u, grid), rtol=0, atol=1e-15
        )

    def test_single_step_drift_is_second_order(self, grid, params, cosine_profile):
        # local (one-step) energy error is O(dt^2); over a fixed horizon it
        # accumulates to the first-order drift checked elsewhere
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        e0 = total_energy(state, grid, params.c_v)
        drifts = []
        for dt in (1e-3, 5e-4):
            new = step(state, dt, params, SF, grid, StepControls())
            drifts.append(abs(total_energy(new, grid, params.c_v) - e0) / e0)
        assert drifts[0] / drifts[1] == pytest.approx(4.0, abs=0.5)

    def test_momentum_potential_identity(self, params, cosine_profile):
        # time difference of the cumulative momentum at each interior node
        # equals dt times the node-averaged stress: exact for the scheme's
        # own lagged stress, first-order-accurate for the end-of-step stress
        grid = Grid(64)
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        controls = StepControls()
        for _ in range(20):
            state = step(state, 1e-3, params, SF, grid, controls)
        dt = 1e-3
        new = step(state, dt, params, SF, grid, controls)

        def cumulative(u):
            out = np.zeros(grid.n_nodes)
            np.cumsum(0.5 * grid.dx * (u[:-1] + u[1:]), out=out[1:])
            return out

        delta = cumulative(new.u) - cumulative(state.u)
        g_new = du_dx_cells(new.u, grid)
        lagged = viscosity(state.v, params) * g_new / state.v - params.R * state.theta / state.v
        node_avg = 0.5 * (lagged[:-1] + lagged[1:])
        np.testing.assert_allclose(delta[1:-1], dt * node_avg, atol=1e-14)

        end_state = stress(new.v, new.theta, g_new, params)
        node_avg_end = 0.5 * (end_state[:-1] + end_state[1:])
        tol = 5.0 * dt * (dt + grid.dx**2)
        assert np.max(np.abs(delta[1:-1] - dt * node_avg_end)) <= tol
