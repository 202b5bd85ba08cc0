import dataclasses
import json
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagns import cli, driver, scheme, verify
from lagns import (
    BoundaryKind,
    DerivedFields,
    Grid,
    MaterialParams,
    Scenario,
    State,
    StateBlock,
    boundary_stress_residual,
    compatible_initial_data,
    energy_drift,
    load_config,
    make_accumulator,
    make_tracker,
    parse_config,
    pressure,
    relative_volume_exponent,
    representation_residual,
    run,
    total_energy,
    update_accumulator,
    update_bounds,
    verification_table,
    viscosity,
    with_derived,
)
from lagns.constitutive import volume_power
from lagns.grid import cumulative_u_integral, du_dx_cells, node_weights
from lagns.scenario import ProfileSpec
from lagns.verify import (
    BoundTracker,
    velocity_band_check,
    velocity_integral_exponent,
    velocity_integral_factor,
)

SF = BoundaryKind.STRESS_FREE
NS = BoundaryKind.NO_SLIP
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def stress_magnitude_scale(state, params, grid):
    """Largest cellwise magnitude of the stress ingredients mu|u_x|/v + P,
    written with the grid helper: the oracle of the tracker's scale."""
    g = du_dx_cells(state.u, grid)
    scale = viscosity(state.v, params) * np.abs(g) / state.v + pressure(
        state.v, state.theta, params
    )
    return float(scale.max())


def grad_l2_sq(f, grid):
    """Squared L2 norm of the discrete gradient of a cell-centered field,
    dx * sum_i ((f[i+1] - f[i]) / dx)**2 over interior-node differences:
    the oracle of the tracker's gradient norms."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_cells,):
        raise ValueError(f"field has shape {f.shape}, expected ({grid.n_cells},)")
    d = np.diff(f)
    return float(d @ d / grid.dx)


def mu_eff(params):
    """The viscosity the volume representation divides by, written out:
    the oracle of the accumulator's mu(inf)."""
    return params.mu_tilde if params.alpha > 0 else 2 * params.mu_tilde


def ln_d1(acc, u, grid):
    """ln d1, the exponent of the velocity-integral factor of the node
    velocities u (one state per row) against the accumulator's frozen u0."""
    return velocity_integral_exponent(u, acc.u0_nodes, grid, 1.0 / acc.mu_eff)


def block_of(states, dts, params, grid):
    """The StateBlock of consecutive states after the one the instruments
    last saw, each given its derived fields; dts[i] is the step that made
    states[i]."""
    return StateBlock.of([with_derived(s, params, grid) for s in states], dts)


def advance(acc, states, dts, grid):
    """Fold the steps of states[1:] into acc, last fed states[0], as one
    block; returns the block's per-step band margins."""
    block = block_of(states[1:], dts, acc.params, grid)
    update_accumulator(acc, block, grid)
    return velocity_band_check(acc, ln_d1(acc, block.u, grid))


class TestRelativeVolumeFactor:
    """The volume factor D, through its exponent ln D."""

    def test_alpha_zero_is_ones(self):
        ones = np.ones(2)
        assert np.exp(relative_volume_exponent(ones, ones, 0.0)) == 1.0

    def test_initial_volume_gives_exact_ones(self):
        v = np.array([0.2, 1.0, 5.0])
        for alpha in (1e-3, 0.7, 8.0):
            power = volume_power(v, alpha)
            assert np.all(np.exp(relative_volume_exponent(power, power, alpha)) == 1.0)

    def test_small_alpha_stays_finite(self):
        # exp(v**-alpha/alpha) is exp(1001.6) at v = 0.2, alpha = 1e-3, which
        # overflows; relative to v0 = 1 the factor is about exp(-1.6)
        alpha = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (out,) = np.exp(relative_volume_exponent(
                volume_power(np.array([0.2]), alpha), np.ones(1), alpha
            ))
        assert out == pytest.approx(np.exp((0.2**-alpha - 1.0) / alpha), rel=1e-12)


class TestStateBlock:
    def test_one_state_block_views_its_state(self, grid, params, uniform_state):
        # a block of one state, as every block is from N = 2048 on, copies
        # none of its state's arrays; a longer block stacks copies
        state = with_derived(uniform_state, params, grid)
        block = StateBlock.of([state], [0.1])
        pairs = [(block.v, state.v), (block.u, state.u), (block.theta, state.theta)]
        pairs += [
            (getattr(block.derived, field.name), getattr(state.derived, field.name))
            for field in dataclasses.fields(DerivedFields)
        ]
        assert all(np.shares_memory(row, array) for row, array in pairs)
        assert all(row.shape == (1, *array.shape) for row, array in pairs)
        stacked = StateBlock.of([state, state], [0.1, 0.1])
        assert not np.shares_memory(stacked.v, state.v)


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
        acc = make_accumulator(with_derived(state, params, grid), grid, params)
        # integrand theta/(D1*D2) is constant in time here, so the trapezoid
        # rule accumulates exactly c*dt per step
        c = acc.last_integrand.copy()
        later = state.copy()
        later.t = 0.1
        advance(acc, [state, later], [0.1], grid)
        np.testing.assert_allclose(acc.time_integral, 0.1 * c, rtol=1e-14)
        later2 = later.copy()
        later2.t = 0.2
        advance(acc, [later, later2], [0.1], grid)
        np.testing.assert_allclose(acc.time_integral, 0.2 * c, rtol=1e-14)
        assert acc.t == 0.2

    def test_out_of_sync_time_raises(self, grid, params, uniform_state):
        acc = make_accumulator(with_derived(uniform_state, params, grid), grid, params)
        ahead = uniform_state.copy()
        ahead.t = 1.0
        with pytest.raises(ValueError, match="out of sync"):
            representation_residual(ahead, acc, grid)

    def test_out_of_sync_time_raises_at_small_t(self, grid, params, uniform_state):
        # the time bound is relative to the state's time, so it holds at any
        # scale: an accumulator left at t = 0 is out of sync with a state at
        # t = 5e-12, and one folded to that time is in sync
        acc = make_accumulator(with_derived(uniform_state, params, grid), grid, params)
        later = uniform_state.copy()
        later.t = 5e-12
        with pytest.raises(ValueError, match="out of sync"):
            representation_residual(later, acc, grid)
        advance(acc, [uniform_state, later], [5e-12], grid)
        assert representation_residual(later, acc, grid) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(
        v0=hnp.arrays(
            np.float64, 16,
            elements=st.floats(0.2, 5.0, allow_nan=False, allow_infinity=False),
        ),
        u0=hnp.arrays(
            np.float64, 17,
            elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        ),
        alpha=st.sampled_from([0.0, 1e-3, 0.7, 1.0, 2.0, 8.0]),
    )
    def test_initial_residual_vanishes(self, v0, u0, alpha):
        # both factors are exactly 1 at t = 0, so the representation returns
        # v0 itself for any positive initial volume and any velocity
        grid = Grid(16)
        params = MaterialParams(alpha=alpha)
        state = State(0.0, v0, u0, np.ones(grid.n_cells))
        acc = make_accumulator(with_derived(state, params, grid), grid, params)
        assert representation_residual(state, acc, grid) == 0.0

    def test_large_alpha_initial_state_does_not_overflow(self):
        # v0 ~ 1e-30 at alpha = 8 puts v0**-alpha near 1e240, whose
        # exp(v0**-alpha/alpha) alone overflows
        scenario = parse_config(json.dumps({
            "material": {"alpha": 8.0},
            "profile": {"name": "cosine",
                        "amplitudes": {"v_base": 1e-30, "v_amp": 1e-31}},
            "n_cells": 8, "t_end": 1e-3, "output_every": 1e-3, "dt_min": 1e-6,
        }))
        grid, params = Grid(scenario.n_cells), scenario.params
        state = compatible_initial_data(scenario.profile, params, SF, grid)
        state = with_derived(state, params, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            acc = make_accumulator(state, grid, params)
        assert np.array_equal(acc.last_integrand, state.theta)


class TestVelocityBand:
    def test_initial_state_inside_with_formula_margin(self, grid):
        profile = ProfileSpec(name="cosine")
        for params in (
            MaterialParams(),
            MaterialParams(mu_tilde=2.0),
            MaterialParams(alpha=0.0, mu_tilde=3.0, R=0.5),
        ):
            state = compatible_initial_data(profile, params, SF, grid)
            acc = make_accumulator(with_derived(state, params, grid), grid, params)
            u = state.u[None]
            (margin,) = velocity_band_check(acc, ln_d1(acc, u, grid))
            assert margin >= 0.0
            # u = u0 makes the factor exactly one; margin is distance to the
            # nearer band edge
            s = np.sqrt(2.0 * acc.e0) / mu_eff(params)
            expected = min(1.0 - np.exp(-s), np.exp(s) - 1.0)
            assert margin == pytest.approx(expected, rel=1e-12)

    def test_unfed_excursion_is_flagged(self, grid, params, cosine_profile):
        # the factor belongs to the state passed in, not to the last state
        # the accumulator was advanced with
        state = compatible_initial_data(cosine_profile, params, SF, grid)
        acc = make_accumulator(with_derived(state, params, grid), grid, params)
        later = state.copy()
        later.t = 0.1
        advance(acc, [state, later], [0.1], grid)
        wild = later.copy()
        wild.u = np.full(grid.n_nodes, 50.0)
        # one margin per row, each judging its own row
        u = np.array([wild.u, later.u])
        wild_margin, later_margin = velocity_band_check(acc, ln_d1(acc, u, grid))
        assert wild_margin < 0.0
        assert later_margin >= 0.0

    def test_excursion_outside_is_flagged(self, grid, params, uniform_state):
        acc = make_accumulator(with_derived(uniform_state, params, grid), grid, params)
        wild = uniform_state.copy()
        wild.u = np.full(grid.n_nodes, 50.0)
        (margin,) = velocity_band_check(acc, ln_d1(acc, wild.u[None], grid))
        assert margin < 0.0

    def test_nan_above_the_band_survives_the_fold(self, grid, params, uniform_state):
        # e0 = 1e7 and mu_eff = 1 put the upper edge exp(sqrt(2 e0)) at inf,
        # so the factor exp(inf) = inf lies at inf - inf = NaN from it: the
        # row's margin is NaN, not the finite margin below
        acc = make_accumulator(with_derived(uniform_state, params, grid), grid, params)
        acc = replace(acc, e0=1e7, mu_eff=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            (margin,) = velocity_band_check(acc, np.array([[0.0, np.inf]]))
        assert np.isnan(margin)


class TestBoundTracker:
    def test_steady_state_integrals(self, grid, params, uniform_state):
        tracker = make_tracker(with_derived(uniform_state, params, grid), grid, params)
        states = [uniform_state]
        dt = 0.25
        for _ in range(4):
            new = states[-1].copy()
            new.t = states[-1].t + dt
            states.append(new)
        update_bounds(tracker, block_of(states[1:], [dt] * 4, params, grid), grid)
        # max theta = 1 at rest: the time integral equals elapsed time;
        # gradient and acceleration integrals stay exactly zero
        assert tracker.int_max_theta == pytest.approx(1.0, rel=1e-14)
        assert tracker.int_uxx_sq == 0.0
        assert tracker.int_ut_sq == 0.0
        assert tracker.sup_grad_v_sq == 0.0
        assert tracker.min_v == 1.0
        assert tracker.min_theta == 1.0

    def test_minima_track_excursions(self, grid, params, uniform_state):
        tracker = make_tracker(with_derived(uniform_state, params, grid), grid, params)
        dipped = uniform_state.copy()
        dipped.t = 0.1
        dipped.v[3] = 0.4
        dipped.theta[5] = 0.7
        update_bounds(tracker, block_of([dipped], [0.1], params, grid), grid)
        assert tracker.min_v == pytest.approx(0.4)
        assert tracker.min_theta == pytest.approx(0.7)

    def test_stress_scale_positive_at_rest(self, grid, params, uniform_state):
        # pure pressure: R*theta/v = 1 everywhere
        assert stress_magnitude_scale(uniform_state, params, grid) == pytest.approx(1.0)


def uxx_sq(state, grid):
    """sum(u_xx**2) over interior nodes, with dx * u_xx the differences of
    the strain rate: the oracle of the tracker's second differences."""
    d = np.diff(du_dx_cells(state.u, grid))
    return float(d @ d) / grid.dx**2


def reference_make_tracker(state, grid, params):
    """make_tracker written with the grid helpers, as the oracle of the seed."""
    g = du_dx_cells(state.u, grid)
    return BoundTracker(
        params=params,
        weights=node_weights(grid),
        e0=total_energy(state, grid, params.c_v),
        min_v=float(np.min(state.v)),
        min_theta=float(np.min(state.theta)),
        sup_grad_v_sq=grad_l2_sq(state.v, grid),
        sup_grad_theta_sq=grad_l2_sq(state.theta, grid),
        sup_u_x_sq=grid.dx * float(g @ g),
        sup_stress_scale=stress_magnitude_scale(state, params, grid),
        last_u=state.u,
        last_max_theta=float(np.max(state.theta)),
        last_uxx_sq=uxx_sq(state, grid),
    )


def reference_update_bounds(tracker, state_prev, state, dt, grid):
    """update_bounds written with the grid helpers, as the oracle."""
    params = tracker.params
    dx = grid.dx
    g = du_dx_cells(state.u, grid)
    tracker.min_v = min(tracker.min_v, float(np.min(state.v)))
    tracker.min_theta = min(tracker.min_theta, float(np.min(state.theta)))
    tracker.sup_grad_v_sq = max(tracker.sup_grad_v_sq, grad_l2_sq(state.v, grid))
    tracker.sup_grad_theta_sq = max(
        tracker.sup_grad_theta_sq, grad_l2_sq(state.theta, grid)
    )
    tracker.sup_u_x_sq = max(tracker.sup_u_x_sq, dx * float(g @ g))
    tracker.sup_stress_scale = max(
        tracker.sup_stress_scale, stress_magnitude_scale(state, params, grid)
    )
    tracker.int_max_theta += dt * float(np.max(state_prev.theta))
    tracker.int_uxx_sq += dt * dx * uxx_sq(state_prev, grid)
    du_dt = (state.u - state_prev.u) / dt
    tracker.int_ut_sq += dt * float(node_weights(grid) @ (du_dt * du_dt))


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
# consecutive states, each with the step that led to it (the first step is
# unused: the first state is the one before the block)
oracle_runs = st.lists(
    st.tuples(oracle_states, st.floats(1e-6, 0.5)), min_size=2, max_size=6
)


def assert_same_fields(tracker, reference):
    for field in dataclasses.fields(BoundTracker):
        # the newest state's values are checked through the integrals
        if field.name in ("params", "weights") or field.name.startswith("last_"):
            continue
        # repr round-trips a float exactly, so equal reprs are equal bits
        got = repr(getattr(tracker, field.name))
        want = repr(getattr(reference, field.name))
        assert got == want, field.name


class TestUpdateBoundsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        run=oracle_runs,
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        c_v=st.floats(0.2, 5.0),
    )
    def test_bit_identical_to_grid_helpers(self, run, alpha, c_v):
        states = [state for state, _ in run]
        dts = [dt for _, dt in run[1:]]
        grid = Grid(ORACLE_CELLS)
        params = MaterialParams(alpha=alpha, c_v=c_v)
        tracker = make_tracker(with_derived(states[0], params, grid), grid, params)
        whole = make_tracker(with_derived(states[0], params, grid), grid, params)
        reference = reference_make_tracker(states[0], grid, params)
        assert_same_fields(tracker, reference)
        for i, dt in enumerate(dts):
            prev, state = states[i], states[i + 1]
            update_bounds(tracker, block_of([state], [dt], params, grid), grid)
            reference_update_bounds(reference, prev, state, dt, grid)
            assert_same_fields(tracker, reference)
        # the whole run folded as one block lands on the same bits
        update_bounds(whole, block_of(states[1:], dts, params, grid), grid)
        assert_same_fields(whole, reference)


def reference_band_margin(acc, velocity_factor):
    """The band margin of one state's factor, written as the distance of
    every value to either edge."""
    s = np.sqrt(2.0 * acc.e0) / mu_eff(acc.params)
    lo = np.exp(-s)
    hi = np.exp(s)
    return float(min((velocity_factor - lo).min(), (hi - velocity_factor).min()))


class TestBlockFoldOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        run=oracle_runs,
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        mu_tilde=st.sampled_from([1.0, 3.0]),
    )
    def test_one_block_matches_one_step_blocks(self, run, alpha, mu_tilde):
        states = [state for state, _ in run]
        dts = [dt for _, dt in run[1:]]
        grid = Grid(ORACLE_CELLS)
        params = MaterialParams(alpha=alpha, mu_tilde=mu_tilde)
        stepwise = make_accumulator(with_derived(states[0], params, grid), grid, params)
        whole = make_accumulator(with_derived(states[0], params, grid), grid, params)
        margins = []
        for i, dt in enumerate(dts):
            margins += advance(stepwise, states[i : i + 2], [dt], grid)
        whole_margins = advance(whole, states, dts, grid)
        for name in ("time_integral", "last_integrand"):
            assert getattr(whole, name).tobytes() == getattr(stepwise, name).tobytes()
        assert repr(whole.t) == repr(stepwise.t)
        assert list(map(repr, whole_margins)) == list(map(repr, margins))
        for state, margin in zip(states[1:], margins):
            factor = velocity_integral_factor(
                state.u, states[0].u, grid, 1.0 / mu_eff(params)
            )
            assert repr(margin) == repr(reference_band_margin(whole, factor))


def reference_time_integral(states, dts, grid, params):
    """The accumulator's time integral folded one state at a time, each
    integrand theta/(d1*D) = theta*exp(-(E + ln D)) evaluated afresh from
    the state's fields, with E = ln d1 the cell average of the cumulative
    velocity integral over mu_eff and ln D = (v**-alpha - v0**-alpha)/alpha
    written out: the oracle of the run's accumulator."""
    alpha = params.alpha
    v0_power = volume_power(states[0].v, alpha)

    def integrand(state):
        c = cumulative_u_integral(state.u, states[0].u, grid)
        e = 1.0 / mu_eff(params) * 0.5 * (c[:-1] + c[1:])
        ln_d = (volume_power(state.v, alpha) - v0_power) / alpha if alpha > 0.0 else 0.0
        return state.theta * np.exp(-(e + ln_d))

    total = np.zeros(grid.n_cells)
    last = integrand(states[0])
    for state, dt in zip(states[1:], dts):
        current = integrand(state)
        total += (last + current) * (0.5 * dt)
        last = current
    return total


class TestRunOracle:
    @pytest.mark.parametrize("n_cells, t_end", [
        # about 225 steps: full blocks of 63 steps and partial ones at rows
        pytest.param(64, 2.0, id="64-many_step_blocks"),
        pytest.param(2048, 0.02, id="2048-one_step_blocks"),
    ])
    @pytest.mark.parametrize("name", ["default", "alpha0"])
    def test_run_instruments_match_state_by_state_oracles(
        self, monkeypatch, name, n_cells, t_end
    ):
        # the instruments fold the derived fields the steps handed on, in
        # blocks; the oracles evaluate the laws afresh on every accepted
        # state, one at a time, and must land on the same bits
        scenario = replace(
            load_config(CONFIGS / f"{name}.json"),
            n_cells=n_cells, t_end=t_end, output_every=t_end / 2,
        )
        states, dts = [], []
        advance = driver.step

        def recorded_step(state, dt, *args, **kwargs):
            new_state = advance(state, dt, *args, **kwargs)
            if not states:
                states.append(state)
            states.append(new_state)
            dts.append(dt)
            return new_state

        monkeypatch.setattr(driver, "step", recorded_step)
        result = run(scenario)
        assert result.report.status == "completed"
        assert result.report.halvings == 0 and len(states) > 2
        grid, params = result.grid, scenario.params
        scale = max(stress_magnitude_scale(s, params, grid) for s in states)
        assert repr(result.tracker.sup_stress_scale) == repr(scale)
        want = reference_time_integral(states, dts, grid, params)
        assert result.accumulator.time_integral.tobytes() == want.tobytes()
        # every other functional too, the integrals over the steps that
        # straddle two blocks included
        reference = reference_make_tracker(states[0], grid, params)
        for prev, state, dt in zip(states, states[1:], dts):
            reference_update_bounds(reference, prev, state, dt, grid)
        assert_same_fields(result.tracker, reference)


class TestRepresentationForAnyMaterial:
    """The volume representation on stress-free walls holds for every
    admissible material, not only for R = mu_tilde = 1: its velocity factor
    takes the exponent 1/mu_eff and its time integral the weight R/mu_eff."""

    @settings(max_examples=100, deadline=None)
    @given(
        R=st.floats(0.1, 10.0),
        c_v=st.floats(0.1, 10.0),
        kappa_tilde=st.floats(0.1, 10.0),
        # below 0.5, N = 64 under-resolves the run: at mu_tilde 0.1 the
        # residual is 7.2e-3, 1.8e-3 and 4.4e-4 at N = 32, 64 and 128
        mu_tilde=st.floats(0.5, 10.0),
        # down to 1e-300: below 1/8, ln D is formed through expm1, whose
        # rounding does not grow as alpha falls
        alpha=st.just(0.0)
        | st.floats(1e-9, 8.0)
        | st.floats(-300.0, -9.0).map(lambda e: 10.0**e),
        beta=st.floats(0.1, 4.0),
    )
    def test_short_cosine_run_keeps_residual_inside_tolerance(
        self, R, c_v, kappa_tilde, mu_tilde, alpha, beta
    ):
        params = MaterialParams(
            R=R, c_v=c_v, mu_tilde=mu_tilde, kappa_tilde=kappa_tilde,
            alpha=alpha, beta=beta,
        )
        scenario = Scenario(
            params=params, n_cells=64, t_end=0.05, output_every=0.05,
            dt_max=2.0 / 64**2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(scenario)
        assert result.report.status == "completed"
        (row,) = result.report.rows
        assert row.repr_residual <= verify.REPR_TOL

    def test_small_alpha_stays_finite(self):
        # exp(v**-alpha/alpha) alone overflows for alpha below about 1/709
        scenario = load_config(CONFIGS / "default.json")
        scenario = replace(scenario, params=replace(scenario.params, alpha=1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(scenario)
        (check,) = [
            c for c in verification_table(result) if c.name == "volume representation"
        ]
        assert check.passed, check.detail

    def test_tiny_alpha_passes(self):
        # at alpha = 1e-14 the plain (v**-alpha - v0**-alpha)/alpha rounds to
        # about 2e-2 of ln D, and the row read 1.227e-2 against 5e-3
        scenario = load_config(CONFIGS / "default.json")
        scenario = replace(scenario, params=replace(scenario.params, alpha=1e-14))
        result = run(scenario)
        (check,) = [
            c for c in verification_table(result) if c.name == "volume representation"
        ]
        assert check.passed, check.detail
        assert max(row.repr_residual for row in result.report.rows) < 2e-4

    @pytest.mark.parametrize("alpha", [1e-300, 1e-14, 1e-3, 0.1, 0.125, 1.0, 2.0])
    def test_log_factor_within_a_few_ulps(self, alpha):
        # ln D of the integrand's exponent against 50-digit arithmetic, in
        # which the expm1 form does not cancel: within 4 eps of the larger
        # power P, and within 8 eps * P/alpha for the plain form from 1/8 on
        grid = Grid(64)
        v0 = np.linspace(0.2, 5.0, grid.n_cells)
        v = v0 * np.exp(np.linspace(-3.0, 3.0, grid.n_cells))[::-1]
        u0 = np.zeros(grid.n_nodes)
        params = MaterialParams(alpha=alpha)
        state = with_derived(State(0.0, v0, u0, np.ones(grid.n_cells)), params, grid)
        acc = make_accumulator(state, grid, params)
        got = -verify._integrand_exponent(acc, v, volume_power(v, alpha), u0, grid)
        mpmath.mp.dps = 50
        a = mpmath.mpf(alpha)
        want = np.array([
            float(y ** -a * mpmath.expm1(-a * mpmath.log(x / y)) / a)
            for x, y in zip(map(mpmath.mpf, v.tolist()), map(mpmath.mpf, v0.tolist()))
        ])
        scale = np.maximum(v**-alpha, v0**-alpha) * np.finfo(float).eps
        bound = 4.0 if alpha < 0.125 else 8.0 / alpha
        assert np.all(np.abs(got - want) <= bound * scale)


def left_rectangle_update(acc, block, grid):
    """update_accumulator with a left-rectangle time quadrature: each step
    adds dt times the integrand of the state before it."""
    ln_d = verify.relative_volume_exponent(
        block.derived.v_power, acc.v0_power, acc.params.alpha
    )
    integrand = block.theta * np.exp(-(ln_d1(acc, block.u, grid) + ln_d))
    before = np.concatenate((acc.last_integrand[None], integrand[:-1]))
    for row, dt in zip(before, block.dt.tolist()):
        acc.time_integral += dt * row
        acc.t += dt
    acc.last_integrand = integrand[-1]
    return acc


def half_weight_residual(state, acc, grid):
    """representation_residual with the time-integral weight R/(2 mu_eff)."""
    halved = replace(acc, time_integral=0.5 * acc.time_integral)
    return verify.representation_residual(state, halved, grid)


class TestRepresentationMutants:
    """Instrument mutants of the volume representation, each run on the
    default config at N = 32: the row must fail for each (the clean run
    reads 9.98e-4 against the tolerance 5e-3)."""

    @pytest.mark.parametrize("module, name, mutant, caught", [
        pytest.param(None, None, None, False, id="none"),
        # residual 1.72e-1
        pytest.param(
            verify, "relative_volume_exponent",
            lambda v_power, v0_power, alpha: np.zeros_like(v_power), True,
            id="volume_factor_one",
        ),
        # residual 1.59e-1
        pytest.param(
            driver, "representation_residual", half_weight_residual, True,
            id="half_time_weight",
        ),
        # residual 6.54e-4
        pytest.param(
            driver, "update_accumulator", left_rectangle_update, True,
            id="left_rectangle",
            marks=pytest.mark.xfail(
                strict=True,
                reason="a first-order time quadrature stays inside the row's "
                "tolerance; ROADMAP item 1's exact discrete identities are to "
                "catch it, and today only the accumulator oracles do",
            ),
        ),
    ])
    def test_row_catches_mutant(self, monkeypatch, module, name, mutant, caught):
        if module is not None:
            monkeypatch.setattr(module, name, mutant)
        scenario = replace(load_config(CONFIGS / "default.json"), n_cells=32)
        result = run(scenario)
        (check,) = [
            c for c in verification_table(result) if c.name == "volume representation"
        ]
        assert check.passed is not caught, check.detail


def scaled_heating(factor):
    """temperature_step with its viscous heating mu*u_x**2/v scaled by factor."""
    def mutant(original):
        def temperature_step(state, u_x, new_v, mu, *args, **kwargs):
            return original(state, u_x, new_v, factor * mu, *args, **kwargs)
        return temperature_step
    return mutant


def scaled_continuity(original):
    """continuity_step with the strain rate u'_x scaled by 1.01."""
    def continuity_step(state, u_x, dt, *args, **kwargs):
        return original(state, 1.01 * u_x, dt, *args, **kwargs)
    return continuity_step


def scaled_momentum_dt(original):
    """momentum_step taking a step 1.02 times the one it is asked for."""
    def momentum_step(state, dt, *args, **kwargs):
        return original(state, 1.02 * dt, *args, **kwargs)
    return momentum_step


def near_constant_conductivity(original):
    """The scheme's conductivity evaluated at beta = 1e-12."""
    def conductivity(theta, params):
        return original(theta, replace(params, beta=1e-12))
    return conductivity


# raises: a mutant that fails to run is an error, not an expected miss
MISSED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every row of verify passes; ROADMAP items 1 and 11 (exact volume "
    "and entropy identities) and 15 (the linear-mode oracle) are to catch it",
)


class TestSchemeMutants:
    """The `verify` column of ROADMAP item 3's mutation table (mutation
    analysis: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978). Each
    scheme defect is patched into lagns.scheme and the config run at
    N = 32; caught names the rows that must fail, and a mutant that no row
    catches is a strict xfail."""

    @pytest.mark.parametrize("config", ["default", "alpha0"])
    @pytest.mark.parametrize("name, mutant, caught", [
        pytest.param(None, None, [], id="none"),
        pytest.param(
            "temperature_step", scaled_heating(0.0), ["energy conservation"],
            id="no_viscous_heating",
        ),
        pytest.param(
            "temperature_step", scaled_heating(0.5), ["energy conservation"],
            id="half_viscous_heating",
        ),
        pytest.param(
            "continuity_step", scaled_continuity, None,
            id="continuity_u_x_1.01", marks=MISSED,
        ),
        pytest.param(
            "momentum_step", scaled_momentum_dt, None,
            id="momentum_dt_1.02", marks=MISSED,
        ),
        pytest.param(
            "conductivity", near_constant_conductivity, None,
            id="kappa_beta_1e-12", marks=MISSED,
        ),
    ])
    def test_verify_catches_mutant(self, monkeypatch, config, name, mutant, caught):
        if name is not None:
            monkeypatch.setattr(scheme, name, mutant(getattr(scheme, name)))
        scenario = replace(load_config(CONFIGS / f"{config}.json"), n_cells=32)
        checks = verification_table(run(scenario))
        failed = [c.name for c in checks if not c.passed]
        if caught is None:
            assert failed, "no row of verify caught the mutant"
        else:
            assert failed == caught, [c.detail for c in checks]


class TestConvergenceMutants:
    """The convergence column of ROADMAP item 3's mutation table: `lagns
    convergence` on configs/mms_default.json from N = 8, 3 levels, with each
    scheme defect of TestSchemeMutants patched into lagns.scheme. The study
    exits 1 when its min observed order falls below the required 1.7."""

    @pytest.mark.parametrize("name, mutant, code", [
        pytest.param(None, None, 0, id="none"),
        pytest.param(
            "continuity_step", scaled_continuity, 1, id="continuity_u_x_1.01"
        ),
        pytest.param("momentum_step", scaled_momentum_dt, 1, id="momentum_dt_1.02"),
        pytest.param(
            "conductivity", near_constant_conductivity, 1, id="kappa_beta_1e-12"
        ),
        pytest.param(
            "temperature_step", scaled_heating(0.0), 1, id="no_viscous_heating"
        ),
    ])
    def test_study_catches_mutant(
        self, monkeypatch, tmp_path, capsys, name, mutant, code
    ):
        payload = json.loads((CONFIGS / "mms_default.json").read_text())
        path = tmp_path / "mms_default_n8.json"
        path.write_text(json.dumps({**payload, "n_cells": 8}))
        if name is not None:
            monkeypatch.setattr(scheme, name, mutant(getattr(scheme, name)))
        assert cli.cmd_convergence(str(path), 3) == code
        assert "min observed order" in capsys.readouterr().out


class TestEnergyDrift:
    def test_zero_at_start(self, grid, params, uniform_state):
        tracker = make_tracker(with_derived(uniform_state, params, grid), grid, params)
        energy = total_energy(uniform_state, grid, params.c_v)
        assert energy_drift(tracker, energy) == 0.0

    def test_absolute_branch_when_reference_is_zero(self, grid, params, uniform_state):
        # a zero reference energy cannot arise from valid (positive) data,
        # but the drift helper still guards it; force it directly
        tracker = make_tracker(with_derived(uniform_state, params, grid), grid, params)
        tracker.e0 = 0.0
        energy = total_energy(uniform_state, grid, params.c_v)
        assert energy_drift(tracker, energy) == pytest.approx(energy)


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
