import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

from lagns import driver, scheme
from lagns import (
    BoundaryKind,
    Grid,
    MaterialParams,
    ProfileSpec,
    Scenario,
    State,
    StepRejected,
    compatible_initial_data,
    compatibility_residual,
    conductivity,
    continuity_step,
    du_dx_cells,
    dt_control,
    manufactured_case,
    mms_sources,
    momentum_step,
    parse_config,
    pressure,
    run,
    step,
    stress,
    temperature_step,
    total_energy,
    tridiagonal_solve,
    viscosity,
    with_derived,
)
from lagns.constitutive import volume_power

SF = BoundaryKind.STRESS_FREE
NS = BoundaryKind.NO_SLIP


def constant_profile():
    return ProfileSpec(name="constant")


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose solves start from new buffers."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def same_state(got: State, want: State) -> bool:
    pairs = [(got.v, want.v), (got.u, want.u), (got.theta, want.theta)]
    if want.derived is not None:
        pairs += [
            (getattr(got.derived, field.name), getattr(want.derived, field.name))
            for field in fields(want.derived)
        ]
    return got.t == want.t and all(same_bits(a, b) for a, b in pairs)


def temperature(state, new_u, new_v, dt, params, grid, **kwargs):
    """theta' of temperature_step after the end-of-step velocity new_u and
    volume new_v, with the strain rate and viscosity that step passes it;
    the gate's (min, max) that it also returns must be theta''s own."""
    u_x = du_dx_cells(new_u, grid)
    mu = viscosity(new_v, params)
    new_theta, extremes = temperature_step(
        state, u_x, new_v, mu, dt, params, grid, **kwargs
    )
    assert extremes == (new_theta.min(), new_theta.max())
    return new_theta


bases = st.floats(min_value=1e-3, max_value=1e3)
fractions = st.floats(min_value=-0.999, max_value=0.999)


@st.composite
def profile_specs(draw):
    """Either family: bases in [1e-3, 1e3], |amp| < base, |u_amp| <= 1e6."""
    if draw(st.booleans()):
        return ProfileSpec(
            name="constant", amplitudes=(("theta", draw(bases)), ("v", draw(bases)))
        )
    v_base, theta_base = draw(bases), draw(bases)
    return ProfileSpec(name="cosine", amplitudes=(
        ("theta_amp", draw(fractions) * theta_base),
        ("theta_base", theta_base),
        ("u_amp", draw(st.floats(min_value=-1e6, max_value=1e6))),
        ("v_amp", draw(fractions) * v_base),
        ("v_base", v_base),
    ))


class TestStepControls:
    # the step controls live on Scenario; cases 3 and 4 were iteration
    # limits of the temperature solve, which is now one linear solve
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"cfl": 0.0}, id="kwargs0"),
        pytest.param({"cfl": 1.5}, id="kwargs1"),
        pytest.param({"dt_min": 0.0}, id="kwargs2"),
        pytest.param({"dt_max": 0.0}, id="kwargs5"),
    ])
    def test_rejects_bad_controls(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            Scenario(**kwargs)


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
            bad = ProfileSpec(name="cosine", amplitudes=(("v_amp", 1.5),))
            compatible_initial_data(bad, params, SF, grid)

    @given(
        profile=profile_specs(),
        bc=st.sampled_from(list(BoundaryKind)),
        n_cells=st.integers(min_value=8, max_value=64),
    )
    # a cold cosine temperature on a coarse grid, and a fast no-slip
    # velocity: both admissible, both once rejected for discretisation or
    # rounding error at the walls
    @example(
        profile=ProfileSpec(amplitudes=(("theta_amp", 0.1), ("theta_base", 0.11))),
        bc=SF,
        n_cells=8,
    )
    @example(
        profile=ProfileSpec(amplitudes=(("theta_amp", 0.1), ("theta_base", 0.11))),
        bc=SF,
        n_cells=9,
    )
    @example(profile=ProfileSpec(amplitudes=(("u_amp", 1e5),)), bc=NS, n_cells=64)
    def test_every_admissible_profile_sets_up(self, profile, bc, n_cells):
        grid, params = Grid(n_cells), MaterialParams()
        state = compatible_initial_data(profile, params, bc, grid)
        state.validate(grid)
        assert np.all(np.isfinite(compatibility_residual(state, params, bc, grid)))

    @given(profile=profile_specs())
    def test_families_meet_both_walls(self, profile):
        # what each family owes either kind of wall: u0 and theta0' vanish at
        # x = 0 and x = 1. Both families are even in theta0 about each wall,
        # so a symmetric difference there is zero up to rounding
        u_amp = profile.values()["u_amp"]
        # theta0 takes its extremes at the walls in both families
        theta_scale = max(abs(profile.sample(x)[1]) for x in (0.0, 1.0))
        h = 1e-3
        for wall in (0.0, 1.0):
            assert abs(profile.sample(wall)[2]) <= 1e-15 * abs(u_amp)
            jump = profile.sample(wall + h)[1] - profile.sample(wall - h)[1]
            assert abs(jump) <= 8 * np.finfo(float).eps * theta_scale


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


def decades(n, low=-6.0, high=6.0):
    """Arrays of n positive floats 10**e, e uniform in [low, high]."""
    return hnp.arrays(np.float64, n, elements=st.floats(low, high)).map(
        lambda e: 10.0**e
    )


@st.composite
def acoustic_draws(draw):
    """A state (without extrema), a material, cfl, dt_min and dt_max; the
    cap is None, any value, or within 2 ulps of the acoustic limit or of
    the extrema's lower bound on it."""
    n = draw(st.integers(2, 24))
    state = State(0.0, draw(decades(n)), np.zeros(n + 1), draw(decades(n)))
    params = MaterialParams(
        R=draw(st.floats(0.1, 10.0)), c_v=draw(st.floats(0.1, 10.0))
    )
    grid = Grid(n)
    cfl = draw(st.floats(0.05, 2.0))
    dt_min = draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-6]))
    limit = cfl * grid.dx * float((state.v / np.sqrt(
        params.gamma * params.R * state.theta
    )).min())
    bound = cfl * grid.dx * (
        state.v.min() / math.sqrt(params.gamma * params.R * state.theta.max())
    )
    mode = draw(st.sampled_from(["none", "any", "limit", "bound"]))
    if mode == "none":
        dt_max = None
    elif mode == "any":
        dt_max = 10.0 ** draw(st.floats(-12.0, 2.0))
    else:
        dt_max = float(limit if mode == "limit" else bound)
        ulps = draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            dt_max = math.nextafter(dt_max, math.inf if ulps > 0 else 0.0)
    return state, grid, params, cfl, dt_min, dt_max


class TestDtControl:
    @settings(deadline=None, max_examples=300)
    @given(draw=acoustic_draws())
    def test_extrema_give_the_bits_of_the_cells(self, draw):
        # the cap test on the extrema returns what the pass over the cells
        # returns, float for float, caps a few ulps from the limit included
        state, grid, params, cfl, dt_min, dt_max = draw
        measured = with_derived(state, params, grid)
        want = dt_control(state, grid, params, cfl, dt_min, dt_max)
        got = dt_control(measured, grid, params, cfl, dt_min, dt_max)
        assert repr(got) == repr(want)

    def test_exact_formula(self):
        grid = Grid(100)
        state = State(0.0, np.ones(100), np.zeros(101), np.ones(100))
        dt = dt_control(state, grid, MaterialParams(), 0.5, 1e-10)
        assert dt == pytest.approx(0.5 * 0.01 / np.sqrt(2.0))

    def test_doubling_cells_halves_dt(self, params):
        dts = []
        for n in (50, 100):
            state = State(0.0, np.ones(n), np.zeros(n + 1), np.ones(n))
            dts.append(dt_control(state, Grid(n), params, 0.8, 1e-10))
        assert dts[0] == pytest.approx(2.0 * dts[1])

    def test_hotter_cell_lowers_dt(self, grid, params, uniform_state):
        base = dt_control(uniform_state, grid, params, 0.8, 1e-10)
        hot = uniform_state.copy()
        hot.theta[10] = 4.0
        assert dt_control(hot, grid, params, 0.8, 1e-10) < base

    def test_copy_written_in_place_takes_the_cell_pass(self):
        # a capped run's state carries the extrema that let dt_control skip
        # the cells; a copy with a hot cell written into it must not keep
        # them, or the cap (47 times the acoustic limit) would be returned
        scenario = Scenario(
            n_cells=64, t_end=0.01, output_every=0.01, dt_max=2.0 / 64**2
        )
        stepper = driver._Stepper(scenario)
        for state, *_ in stepper:
            pass
        assert state.t == 0.01 and state.extrema is not None
        hot = state.copy()
        hot.theta[10] = 1e6
        grid, params = stepper.grid, scenario.params
        got = dt_control(
            hot, grid, params, scenario.cfl, scenario.dt_min, scenario.dt_max
        )
        c = np.sqrt(params.gamma * params.R * hot.theta)
        assert got == scenario.cfl * grid.dx * float((hot.v / c).min())
        assert got == pytest.approx(1.04e-5, rel=1e-2)

    def test_dt_max_caps(self, grid, params, uniform_state):
        dt = dt_control(uniform_state, grid, params, 0.8, 1e-10, 1e-6)
        assert dt == 1e-6

    def test_dt_min_floors(self, grid, params, uniform_state):
        dt = dt_control(uniform_state, grid, params, 0.8, 1.0)
        assert dt == 1.0

    def test_nan_state_aborts(self, monkeypatch):
        # dt_control expects a finite state: a NaN u' is rejected by the step
        # at every dt, so the run aborts on dt_min and keeps its finite state
        advance = scheme.momentum_step

        def nan_momentum(*args, **kwargs):
            new_u = advance(*args, **kwargs)
            new_u[0] = np.nan
            return new_u

        monkeypatch.setattr(scheme, "momentum_step", nan_momentum)
        result = run(Scenario(n_cells=16, t_end=0.01, output_every=0.01))
        assert result.report.status == "aborted"
        assert "non-finite volume" in result.report.abort_reason
        assert result.state.t == 0.0
        result.state.validate(result.grid)

    @pytest.mark.parametrize("field", ["v", "u", "theta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_aborts(
        self, monkeypatch, grid, params, uniform_state, field, bad
    ):
        # a step whose new v, u or theta has one non-finite entry is
        # rejected, so the state dt_control sees next stays finite. v and
        # theta get it from their sources; u' gets it at one node from
        # momentum_step, since the solve would spread a source's over all
        sources = (np.zeros(grid.n_cells), np.zeros(grid.n_nodes), np.zeros(grid.n_cells))
        if field == "u":
            advance = scheme.momentum_step

            def bad_momentum(*args, **kwargs):
                new_u = advance(*args, **kwargs)
                new_u[grid.n_nodes // 2] = bad
                return new_u

            monkeypatch.setattr(scheme, "momentum_step", bad_momentum)
        else:
            sources[0 if field == "v" else 2][grid.n_cells // 2] = bad
        gate = "temperature" if field == "theta" else "volume"
        state = with_derived(uniform_state, params, grid)
        with pytest.raises(StepRejected, match=f"non-finite {gate}"):
            step(state, 1e-3, params, SF, grid, sources)


class TestMomentumStep:
    def test_no_slip_steady_stays_zero(self, grid, params, uniform_state):
        state = with_derived(uniform_state, params, grid)
        new_u = momentum_step(state, 1e-2, params, NS, grid)
        np.testing.assert_array_equal(new_u, np.zeros(grid.n_nodes))

    def test_stress_free_zero_stress_start_is_stationary(self, grid):
        # compatible uniform data has sigma = 0 per cell, so flux differences
        # vanish and the implicit solve returns u unchanged
        params = MaterialParams(alpha=0.0)
        state = compatible_initial_data(constant_profile(), params, SF, grid)
        new_u = momentum_step(with_derived(state, params, grid), 1e-2, params, SF, grid)
        np.testing.assert_allclose(new_u, state.u, atol=1e-14)

    @pytest.mark.parametrize("bc", [SF, NS])
    def test_symmetric_system_matches_unscaled_solve(self, params, cosine_profile, bc):
        # the system as first written, with the stress-free wall rows not
        # halved, solved by LU with pivoting: the halving moves only rounding
        grid = Grid(64)
        state = compatible_initial_data(cosine_profile, params, bc, grid)
        dt, stress_bc = 5e-3, (0.3, -0.2)
        source = np.linspace(-1.0, 1.0, grid.n_nodes)
        dx, n = grid.dx, grid.n_nodes
        a = viscosity(state.v, params) / state.v
        p = pressure(state.v, state.theta, params)
        r = dt / dx**2
        ab = np.zeros((3, n))
        ab[1] = 1.0
        ab[1, 1:-1] += r * (a[:-1] + a[1:])
        ab[0, 2:] = -r * a[1:]
        ab[2, :-2] = -r * a[:-1]
        rhs = state.u + dt * source
        rhs[1:-1] -= (dt / dx) * (p[1:] - p[:-1])
        if bc is SF:
            ab[1, 0] = 1.0 + 2.0 * r * a[0]
            ab[0, 1] = -2.0 * r * a[0]
            rhs[0] -= (2.0 * dt / dx) * (p[0] + stress_bc[0])
            ab[1, -1] = 1.0 + 2.0 * r * a[-1]
            ab[2, -2] = -2.0 * r * a[-1]
            rhs[-1] += (2.0 * dt / dx) * (stress_bc[1] + p[-1])
        else:
            rhs[0] = rhs[-1] = 0.0
        expected = solve_banded((1, 1), ab, rhs)
        got = momentum_step(
            with_derived(state, params, grid), dt, params, bc, grid, stress_bc, source
        )
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale
        if bc is NS:
            assert got[0] == got[-1] == 0.0

    def test_indefinite_system_names_momentum(self):
        # mu(v)/v is about 5e269 at v = 1e-30 with alpha = 8: the LDL^T
        # factorisation squares off-diagonals near 1e265 and overflows
        scenario = parse_config(json.dumps({
            "material": {"alpha": 8.0},
            "profile": {
                "name": "cosine", "amplitudes": {"v_base": 1e-30, "v_amp": 1e-31}
            },
            "n_cells": 8, "t_end": 1e-3, "output_every": 1e-3, "dt_min": 1e-6,
        }))
        grid = Grid(scenario.n_cells)
        params = scenario.params
        state = compatible_initial_data(scenario.profile, params, scenario.bc, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = with_derived(state, params, grid)
            with pytest.raises(
                StepRejected, match="^momentum system not positive definite"
            ):
                momentum_step(state, 1e-6, params, scenario.bc, grid)
        # the rejected solve left its factorisation in the buffers of this
        # size; the next momentum solve at it must not read any of it
        ordinary = MaterialParams()
        for bc in (SF, NS):
            start = compatible_initial_data(ProfileSpec(name="cosine"), ordinary, bc, grid)
            start = with_derived(start, ordinary, grid)
            retry = momentum_step(start, 1e-3, ordinary, bc, grid)
            fresh = in_fresh_thread(momentum_step, start, 1e-3, ordinary, bc, grid)
            assert same_bits(retry, fresh), bc

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
        u_x = du_dx_cells(np.full(grid.n_nodes, 2.0), grid)
        new_v, extremes = continuity_step(uniform_state, u_x, 0.1)
        np.testing.assert_array_equal(new_v, uniform_state.v)
        assert extremes == (1.0, 1.0)

    def test_linear_velocity_adds_dt(self, grid, uniform_state):
        new_v, _ = continuity_step(
            uniform_state, du_dx_cells(grid.nodes, grid), 0.25
        )
        np.testing.assert_allclose(new_v, uniform_state.v + 0.25)

    def test_compatible_start_grows_half_dt(self, grid):
        params = MaterialParams(alpha=0.0)
        state = compatible_initial_data(constant_profile(), params, SF, grid)
        new_v, extremes = continuity_step(state, du_dx_cells(state.u, grid), 0.1)
        np.testing.assert_allclose(new_v, state.v + 0.05)
        assert extremes == (new_v.min(), new_v.max())

    def test_collapse_rejected(self, grid, uniform_state):
        crushing = -10.0 * grid.nodes
        with pytest.raises(StepRejected, match="volume"):
            continuity_step(uniform_state, du_dx_cells(crushing, grid), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_strain_rejected(self, grid, uniform_state, bad):
        # a u' that is not finite reaches the gate through u'_x, so the
        # volume gate is the one that keeps it out of every accepted state
        u_x = np.zeros(grid.n_cells)
        u_x[grid.n_cells // 2] = bad
        with pytest.raises(
            StepRejected, match="non-positive or non-finite volume"
        ):
            continuity_step(uniform_state, u_x, 1e-3)


class TestTemperatureStep:
    def test_uniform_rest_state_unchanged(self, grid, params, uniform_state):
        new_theta = temperature(
            uniform_state, uniform_state.u, uniform_state.v, 1e-2, params, grid
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
        new_theta = temperature(state, state.u, new_v, dt, params, grid)
        mu = viscosity(np.array([v0]), params)[0]
        expected = (th0 + dt * mu * g * g / (params.c_v * v0)) / (
            1.0 + dt * params.R * g / (params.c_v * v0)
        )
        np.testing.assert_allclose(new_theta, expected, rtol=1e-12)

    def test_violent_compression_rejected(self, grid, params, uniform_state):
        crushed = uniform_state.copy()
        crushed.u = -5.0 * grid.nodes
        with pytest.raises(
            StepRejected, match="temperature system not positive definite"
        ):
            temperature(crushed, crushed.u, crushed.v, 0.5, params, grid)

    def test_nan_velocity_rejected(self, grid, params, uniform_state):
        new_u = uniform_state.u.copy()
        new_u[grid.n_nodes // 2] = np.nan
        with pytest.raises(StepRejected, match="temperature"):
            temperature(uniform_state, new_u, uniform_state.v, 1e-3, params, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_rejected(self, grid, params, uniform_state, bad):
        # the source makes one entry of the right-hand side non-finite, and
        # the solve carries it into theta'
        source = np.zeros(grid.n_cells)
        source[grid.n_cells // 2] = bad
        with pytest.raises(
            StepRejected, match="non-positive or non-finite temperature"
        ):
            temperature(
                uniform_state, uniform_state.u, uniform_state.v, 1e-3, params,
                grid, source=source,
            )

    def test_start_exact_on_linear_data(self):
        # theta(t) = a + b t per cell, sampled at two times a step h apart
        # with the next step dt != h: the linear start reproduces
        # theta(t + dt) to rounding, and no previous state gives the
        # current temperature
        rng = np.random.default_rng(5)
        a, b = rng.uniform(1.0, 2.0, (2, 32))
        t, h, dt = 0.7, 0.13, 0.05

        def at(time):
            return State(time, np.ones(32), np.zeros(33), a + b * time)

        state = at(t)
        start = scheme._extrapolated_temperature(state, at(t - h), dt)
        np.testing.assert_allclose(start, at(t + dt).theta, rtol=1e-14, atol=0)
        assert scheme._extrapolated_temperature(state, None, dt) is state.theta

    @staticmethod
    def _trajectory(params, cosine_profile):
        # a refinement-like trajectory: N = 256, dt = 2/N^2, a few steps in
        grid = Grid(256)
        dt = 2.0 * grid.dx**2
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state = with_derived(state, params, grid)
        previous = None
        for _ in range(4):
            new = step(state, dt, params, SF, grid, previous=previous)
            previous, state = state, new
        new_u = momentum_step(state, dt, params, SF, grid)
        new_v, _ = continuity_step(state, du_dx_cells(new_u, grid), dt)
        return grid, dt, previous, state, new_u, new_v

    @pytest.mark.parametrize("depth", [0, 1])
    def test_one_solve_at_the_extrapolated_temperature(
        self, params, cosine_profile, depth
    ):
        # theta' solves A(theta*) theta' = rhs, the system assembled here
        # from its definition, with theta* the extrapolation through depth
        # earlier states: state.theta, or linear
        grid, dt, previous, state, new_u, new_v = self._trajectory(
            params, cosine_profile
        )
        previous = previous if depth else None
        got = temperature(state, new_u, new_v, dt, params, grid, previous=previous)
        theta_star = scheme._extrapolated_temperature(state, previous, dt)
        g = du_dx_cells(new_u, grid)
        mu = viscosity(new_v, params)
        rhs = state.theta + (dt / params.c_v) * mu * g * g / new_v
        kv = conductivity(theta_star, params) / new_v
        flux = dt / (params.c_v * grid.dx**2) * 0.5 * (kv[:-1] + kv[1:])
        applied = (1.0 + dt * params.R * g / (params.c_v * new_v)) * got
        applied[:-1] += flux * (got[:-1] - got[1:])
        applied[1:] += flux * (got[1:] - got[:-1])
        assert np.max(np.abs(applied - rhs)) <= 1e-14 * np.max(rhs)

    def test_non_positive_guess_falls_back(self, params, cosine_profile):
        grid, dt, previous, state, new_u, new_v = self._trajectory(
            params, cosine_profile
        )
        # equal steps make the guess 2 theta - theta_prev, so in cell 7 it
        # is 2 theta - 3 theta = -theta: it is unusable
        bad = previous.copy()
        bad.theta[7] = 3.0 * state.theta[7]
        cold = temperature(state, new_u, new_v, dt, params, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fallback = temperature(state, new_u, new_v, dt, params, grid, previous=bad)
        np.testing.assert_array_equal(fallback, cold)

    @staticmethod
    def _picard_fixed_point(state, u_x, new_v, mu, dt, params, grid):
        """Oracle: the backward-Euler temperature with the conductivity at
        the end-of-step temperature, by plain Picard iteration (one banded
        LU solve per pass) run to rounding."""
        base_diag = 1.0 + dt * params.R * u_x / (params.c_v * new_v)
        rhs = state.theta + (dt / params.c_v) * mu * u_x * u_x / new_v
        s = dt / (params.c_v * grid.dx**2)
        theta = state.theta
        for _ in range(200):
            kv = conductivity(theta, params) / new_v
            flux = s * 0.5 * (kv[:-1] + kv[1:])
            ab = np.zeros((3, grid.n_cells))
            ab[0, 1:] = ab[2, :-1] = -flux
            ab[1] = base_diag
            ab[1, :-1] += flux
            ab[1, 1:] += flux
            theta, previous = solve_banded((1, 1), ab, rhs), theta
            if np.max(np.abs(theta - previous)) <= 1e-15 * np.max(theta):
                return theta
        raise AssertionError("oracle Picard loop did not converge")

    @pytest.mark.parametrize("beta", [1.0, 4.0])
    def test_smooth_step_within_dt_squared_of_fixed_point(self, cosine_profile, beta):
        # with no previous state the conductivity lags a whole step, so one step
        # differs from the backward-Euler fixed point by O(dt^2): measured
        # err/dt^2 is 1.24-1.30 (beta 1) and 4.7-5.0 (beta 4), and halving
        # dt divides err by 3.6-3.8
        params = MaterialParams(beta=beta)
        grid = Grid(64)
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state = with_derived(state, params, grid)
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            new_u = momentum_step(state, dt, params, SF, grid)
            u_x = du_dx_cells(new_u, grid)
            new_v, _ = continuity_step(state, u_x, dt)
            mu = viscosity(new_v, params)
            got, _ = temperature_step(state, u_x, new_v, mu, dt, params, grid)
            fixed = self._picard_fixed_point(state, u_x, new_v, mu, dt, params, grid)
            errors.append(np.max(np.abs(got - fixed)))
            assert errors[-1] <= 1.5 * beta * dt**2
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 3.4 * fine

    @pytest.mark.parametrize("n, dt_max, t_end", [
        pytest.param(64, 2.0 / 64**2, 0.1, id="64"),
        pytest.param(256, 2.0 / 256**2, 0.01, id="256"),
        pytest.param(1024, None, 0.1, id="1024"),
    ])
    def test_two_solves_per_attempt(self, monkeypatch, n, dt_max, t_end):
        # one momentum solve and one temperature solve per step attempt,
        # and one conductivity evaluation, whatever dt/dx^2 is: N = 64 and
        # 256 with dt = 2/N^2, N = 1024 with CFL dt
        counts = {"solves": 0, "conductivity": 0, "attempts": 0}
        # every solve, the step's and tridiagonal_solve's, goes through _solve
        solve, law, advance = scheme._solve, scheme.conductivity, driver.step

        def counted_solve(*args):
            counts["solves"] += 1
            return solve(*args)

        def counted_law(*args):
            counts["conductivity"] += 1
            return law(*args)

        def counted_step(*args, **kwargs):
            counts["attempts"] += 1
            return advance(*args, **kwargs)

        monkeypatch.setattr(scheme, "_solve", counted_solve)
        monkeypatch.setattr(scheme, "conductivity", counted_law)
        monkeypatch.setattr(driver, "step", counted_step)
        result = run(Scenario(
            n_cells=n, t_end=t_end, output_every=t_end / 2, dt_max=dt_max,
        ))
        assert result.report.status == "completed"
        assert result.report.halvings == 0
        assert counts["attempts"] > 0
        assert counts["solves"] == 2 * counts["attempts"]
        assert counts["conductivity"] == counts["attempts"]

    @settings(deadline=None, max_examples=60)
    @given(
        alpha=st.floats(min_value=0.0, max_value=8.0),
        beta=st.floats(min_value=0.01, max_value=8.0),
        profile=profile_specs(),
        bc=st.sampled_from(list(BoundaryKind)),
    )
    def test_no_source_keeps_temperature_positive(self, alpha, beta, profile, bc):
        # without a source A(theta*) is an M-matrix whenever it is positive
        # definite, and rhs >= theta > 0, so a step is either accepted with
        # theta' > 0 or rejected for its volume or its matrix, never for a
        # non-positive temperature; from the second step on the linear
        # extrapolation has a previous state
        params = MaterialParams(alpha=alpha, beta=beta)
        grid = Grid(16)
        state = compatible_initial_data(profile, params, bc, grid)
        state = with_derived(state, params, grid)
        previous = None
        for _ in range(3):
            dt = dt_control(state, grid, params, 0.5, 1e-12)
            try:
                new = step(state, dt, params, bc, grid, previous=previous)
            except StepRejected as exc:
                assert "non-positive or non-finite temperature" not in str(exc)
                return
            assert new.theta.min() > 0.0
            previous, state = state, new


class TestStep:
    def test_no_slip_constant_fixed_point(self, grid, params):
        state = compatible_initial_data(constant_profile(), params, NS, grid)
        current = with_derived(state, params, grid)
        for _ in range(25):
            current = step(current, 5e-3, params, NS, grid)
        np.testing.assert_allclose(current.v, state.v, rtol=1e-12)
        np.testing.assert_allclose(current.u, state.u, atol=1e-12)
        np.testing.assert_allclose(current.theta, state.theta, rtol=1e-12)

    def test_nan_velocity_rejected_not_crashed(self, grid, params, uniform_state):
        # a NaN in the momentum result must reach the driver as a rejection
        # (so dt is halved), not as a ValueError from the viscosity
        uniform_state.u[grid.n_nodes // 2] = np.nan
        state = with_derived(uniform_state, params, grid)
        with pytest.raises(StepRejected, match="volume"):
            step(state, 1e-3, params, NS, grid)

    def test_continuity_identity_exact(self, grid, params, cosine_profile):
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state = with_derived(state, params, grid)
        dt = 2e-3
        new = step(state, dt, params, SF, grid)
        np.testing.assert_allclose(
            new.v - state.v, dt * du_dx_cells(new.u, grid), rtol=0, atol=1e-15
        )

    def test_single_step_drift_is_second_order(self, grid, params, cosine_profile):
        # local (one-step) energy error is O(dt^2); over a fixed horizon it
        # accumulates to the first-order drift checked elsewhere
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state = with_derived(state, params, grid)
        e0 = total_energy(state, grid, params.c_v)
        drifts = []
        for dt in (1e-3, 5e-4):
            new = step(state, dt, params, SF, grid)
            drifts.append(abs(total_energy(new, grid, params.c_v) - e0) / e0)
        assert drifts[0] / drifts[1] == pytest.approx(4.0, abs=0.5)

    def test_momentum_potential_identity(self, params, cosine_profile):
        # time difference of the cumulative momentum at each interior node
        # equals dt times the node-averaged stress: exact for the scheme's
        # own lagged stress, first-order-accurate for the end-of-step stress
        grid = Grid(64)
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state = with_derived(state, params, grid)
        for _ in range(20):
            state = step(state, 1e-3, params, SF, grid)
        dt = 1e-3
        new = step(state, dt, params, SF, grid)

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


class TestDerivedFields:
    @staticmethod
    def _same_bits(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("forced", [False, True], ids=["profile", "manufactured"])
    @pytest.mark.parametrize("bc", [SF, NS], ids=["stress_free", "no_slip"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_step_returns_the_fields_of_its_state(self, alpha, bc, forced):
        # each derived field step returns is, bit for bit, the law evaluated
        # on the state it returns, so a reader of the field sees what a
        # re-evaluation would give; two steps, so the second starts from a
        # stepped state's fields
        grid, dt = Grid(32), 1e-3
        params = MaterialParams(alpha=alpha)
        mms = "default" if forced else None
        scenario = Scenario(bc=bc, n_cells=32, params=params, mms=mms)
        case = manufactured_case(mms, params) if forced else None
        state = with_derived(scenario.initial_state(grid), params, grid)
        for _ in range(2):
            t = state.t + dt
            sources = (
                [rows[0] for rows in mms_sources(case, grid, [t])] if forced else None
            )
            stress_bc = driver._imposed_wall_stress(case, bc, t)
            state = step(state, dt, params, bc, grid, sources, stress_bc)
            d = state.derived
            assert self._same_bits(d.u_x, du_dx_cells(state.u, grid))
            assert self._same_bits(d.mu, viscosity(state.v, params))
            assert self._same_bits(d.p, pressure(state.v, state.theta, params))
            # the volume power the representation accumulator reads
            assert self._same_bits(d.v_power, volume_power(state.v, alpha))

    def test_copy_does_not_alias_them(self, grid, params, cosine_profile):
        # a copy is bare: it shares no array with the state, and carries no
        # derived fields or extrema that writing into it would make stale
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        state = step(with_derived(state, params, grid), 1e-3, params, SF, grid)
        copy = state.copy()
        assert copy.derived is None and copy.extrema is None
        assert copy.t == state.t
        for name in ("v", "u", "theta"):
            got, want = getattr(copy, name), getattr(state, name)
            assert self._same_bits(got, want)
            assert not np.shares_memory(got, want), name


class TestReusedBuffers:
    """The solves build their systems in buffers kept per thread and size."""

    def test_results_are_not_the_buffers(self, grid, params, cosine_profile):
        # a state step returns keeps its arrays through the next step at its
        # size, and two public solves at one size return two arrays
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        first = step(with_derived(state, params, grid), 1e-3, params, SF, grid)

        def arrays(state):
            derived = [getattr(state.derived, f.name) for f in fields(state.derived)]
            return [state.v, state.u, state.theta, *derived]

        kept = [array.copy() for array in arrays(first)]
        step(first, 1e-3, params, SF, grid)
        assert all(same_bits(a, b) for a, b in zip(arrays(first), kept))

        band, diag = np.zeros(3), np.ones(4)
        one = tridiagonal_solve(band, diag, [1.0, 2.0, 3.0, 4.0])
        two = tridiagonal_solve(band, diag, [5.0, 6.0, 7.0, 8.0])
        assert not np.shares_memory(one, two)
        np.testing.assert_array_equal(one, [1.0, 2.0, 3.0, 4.0])

    def test_each_step_matches_a_fresh_thread(self):
        # steps at one size alternate walls and sources, and follow a
        # rejected temperature solve, so a branch that leaves an entry of a
        # buffer unwritten (the no-slip wall rows, say) reads what the last
        # solve left there; a fresh thread solves in new buffers
        grid, dt = Grid(16), 1e-3
        params = MaterialParams()
        case = manufactured_case("default", params)

        def take(bc, forced):
            mms = "default" if forced else None
            scenario = Scenario(bc=bc, n_cells=16, params=params, mms=mms)
            start = with_derived(scenario.initial_state(grid), params, grid)
            sources = (
                [rows[0] for rows in mms_sources(case, grid, [dt])] if forced else None
            )
            stress_bc = driver._imposed_wall_stress(case if forced else None, bc, dt)
            return step(start, dt, params, bc, grid, sources, stress_bc)

        def check(order):
            for bc, forced in order:
                assert same_state(take(bc, forced), in_fresh_thread(take, bc, forced))

        order = [(SF, False), (NS, False), (SF, True), (NS, True), (SF, False)]
        check(order)
        crushed = State(0.0, np.ones(16), -5.0 * grid.nodes, np.ones(16))
        with pytest.raises(StepRejected, match="temperature system"):
            temperature(crushed, crushed.u, crushed.v, 0.5, params, grid)
        check(order[::-1])

    def test_threads_do_not_share_buffers(self):
        # four runs at one size in four threads, switching every
        # microsecond: shared buffers would mix one run's system into another's
        scenarios = [
            Scenario(
                bc=bc, n_cells=64, t_end=0.05, output_every=0.05,
                dt_max=2.0 / 64**2, mms=mms,
            )
            for bc in (SF, NS) for mms in (None, "default")
        ]
        serial = [driver.advance(scenario)[1] for scenario in scenarios]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(scenarios)) as pool:
                futures = [pool.submit(driver.advance, s) for s in scenarios]
                threaded = [future.result(timeout=120)[1] for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial):
            assert same_state(got, want)
