import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lagns.driver as driver
import lagns.mms
from lagns import (
    BoundaryKind,
    Grid,
    MaterialParams,
    Scenario,
    manufactured_case,
    mms_sources,
    run,
)
from lagns.mms import jet_sources

# sympy is the oracle: it derives the residuals of the three equations from
# the fields, independently of the chain rule written out in lagns.mms
X, T, A, B = sp.symbols("x t a b", real=True)
PARAM_NAMES = ("R", "c_v", "mu_tilde", "kappa_tilde", "alpha", "beta")
PARAMS = sp.symbols(PARAM_NAMES, real=True)

FAMILY_V = 1 + A * sp.exp(-T) * sp.cos(sp.pi * X)
FAMILY_U = A * sp.sin(sp.pi * T) * sp.sin(sp.pi * X)
# theta* of the family is v*, but with an amplitude of its own: given the
# same expression, sympy cancels R theta*/v* to R before differentiating,
# and the summands that the chain rule rounds would be missing from the scale
FAMILY_THETA = FAMILY_V.subs(A, B)
# ad-hoc triples (v, u, theta), fed to jet_sources as jets:
AD_HOC = {
    # v* = 1 and u* = 0 leave zero continuity and momentum sources;
    # theta* = 1 + t^2 leaves the theta source 2 c_v t, in t alone
    "heating": (sp.Integer(1), sp.Integer(0), 1 + T**2),
    # a gas at rest in a steady volume profile: the stress -R/v* depends on
    # x alone and s_u = -sigma_x = -R v*_x / v*^2
    "steady": (1 + sp.cos(sp.pi * X) / 10, sp.Integer(0), sp.Integer(1)),
}

ALL_ARGS = (X, T, A, B, *PARAMS)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def residuals(v, u, theta):
    """(s_v, s_u, s_theta, sigma) of the triple, derived symbolically."""
    R, c_v, mu_tilde, kappa_tilde, alpha, beta = PARAMS
    mu = mu_tilde * (1 + v ** (-alpha))
    kappa = kappa_tilde * theta**beta
    pressure = R * theta / v
    sigma = mu * sp.diff(u, X) / v - pressure
    s_v = sp.diff(v, T) - sp.diff(u, X)
    s_u = sp.diff(u, T) - sp.diff(sigma, X)
    s_theta = (
        c_v * sp.diff(theta, T)
        + pressure * sp.diff(u, X)
        - sp.diff(kappa * sp.diff(theta, X) / v, X)
        - mu * sp.diff(u, X) ** 2 / v
    )
    return s_v, s_u, s_theta, sigma


def values_of(params: MaterialParams) -> tuple[float, ...]:
    return tuple(getattr(params, name) for name in PARAM_NAMES)


def _factor(f, vectorized):
    """The factor f at the float64 values of an array, as a longdouble
    array: f applied to the whole array when vectorized, else entry by
    entry."""
    f = f if vectorized else np.vectorize(f, otypes=[float])
    return lambda z: f(np.asarray(z, float)).astype(np.longdouble)


def _family_value(x, t, a):
    """1 + a exp(-t) cos(pi x), the value of v* or theta* of the family, as
    lagns rounds it in float64, as a longdouble array."""
    decay = np.vectorize(lambda t: a * math.exp(-t), otypes=[float])
    cos = np.cos(np.pi * np.asarray(x, float))
    return (1.0 + decay(np.asarray(t, float)) * cos).astype(np.longdouble)


# what the oracle evaluates as lagns does, in float64: the transcendental
# factors, the x-factors with numpy on arrays and the t-factors with math on
# floats, from the float64 product of pi and the coordinate, and the values
# of v* and theta*
_FLOAT64_PARTS = {
    "sin_pi_x": _factor(lambda x: np.sin(np.pi * x), True),
    "cos_pi_x": _factor(lambda x: np.cos(np.pi * x), True),
    "sin_pi_t": _factor(lambda t: math.sin(math.pi * t), False),
    "cos_pi_t": _factor(lambda t: math.cos(math.pi * t), False),
    "exp_neg_t": _factor(lambda t: math.exp(-t), False),
    "family_value": _family_value,
}
SIN_X, COS_X, SIN_T, COS_T, EXP_T, FAMILY_VALUE = map(sp.Function, _FLOAT64_PARTS)
# the substitutions that put them into the residuals, in this order: the
# pattern of a value is made of factors
_SUBSTITUTIONS = (
    {
        sp.sin(sp.pi * X): SIN_X(X),
        sp.cos(sp.pi * X): COS_X(X),
        sp.sin(sp.pi * T): SIN_T(T),
        sp.cos(sp.pi * T): COS_T(T),
        sp.exp(-T): EXP_T(T),
        sp.exp(-2 * T): EXP_T(T) ** 2,
    },
    {
        1 + amplitude * EXP_T(T) * COS_X(X): FAMILY_VALUE(X, T, amplitude)
        for amplitude in (A, B)
    },
)


@functools.cache
def oracle(v, u, theta):
    """The residuals of the triple lambdified, each with the scale of its
    rounding.

    The residuals are evaluated in np.longdouble (a 64-bit significand on
    x86-64) from the float64 values of their transcendental factors and of
    the family's v* and theta*, each evaluated as lagns evaluates it (see
    _FLOAT64_PARTS). So the check measures the rounding of the chain rule
    alone. A float64 oracle adds rounding of its own, which reached 8 ulp
    of the scale in the deep case at alpha = 2. And v* = 1 - 0.9 cos(pi x)
    rounds to within half an ulp of 1, not of v*, which the power
    v**-alpha amplifies to about 25 ulp of the scale at v* = 0.1 and
    alpha = 3.8: rounding of the input, not of the sources.

    The scale is the largest sum of the magnitudes of a residual's
    summands along the last axis of x, so each row of a 2-D x has its own:
    the same sum evaluated in another grouping differs by a few ulp of
    that, not of the result, which may cancel to far less. Do not tighten
    it to max|source|: s_u of the default case is a sum of terms of about
    0.3 that cancel to about 0.018 near t = 0.95.
    """
    exprs = list(residuals(v, u, theta))
    for substitutions in _SUBSTITUTIONS:
        exprs = [expr.xreplace(substitutions) for expr in exprs]
    modules = [_FLOAT64_PARTS, "numpy"]
    fns = [sp.lambdify(ALL_ARGS, expr, modules) for expr in exprs]
    terms = [
        [sp.lambdify(ALL_ARGS, term, modules) for term in sp.Add.make_args(expr)]
        for expr in exprs
    ]

    def evaluate(x, t, a, params):
        x, t = np.asarray(x, np.longdouble), np.asarray(t, np.longdouble)
        args = (x, t, a, a, *values_of(params))
        shape = np.shape(x)
        out = []
        for fn, parts in zip(fns, terms):
            value = np.broadcast_to(fn(*args), shape)
            scale = sum(np.abs(np.broadcast_to(part(*args), shape)) for part in parts)
            out.append((value, np.max(scale, axis=-1, keepdims=True).astype(float)))
        return out

    return evaluate


def family_oracle(case, x, t):
    return oracle(FAMILY_V, FAMILY_U, FAMILY_THETA)(x, t, case.amplitude, case.params)


def assert_within_rounding(got, want, scale):
    assert np.all(np.abs(got - want) <= 8 * np.spacing(scale))


@functools.cache
def jet_functions(expr):
    """The jet (f, f_x, f_xx, f_t) of a field expression, lambdified."""
    parts = (expr, sp.diff(expr, X), sp.diff(expr, X, 2), sp.diff(expr, T))
    return [sp.lambdify((X, T), part, "numpy") for part in parts]


def jet(expr, x, t):
    return tuple(
        np.broadcast_to(fn(x, t), np.shape(x)).astype(float)
        for fn in jet_functions(expr)
    )


def ad_hoc_sources(name, params, x, t):
    return jet_sources(params, *(jet(expr, x, t) for expr in AD_HOC[name]))


material = st.builds(
    MaterialParams,
    R=st.floats(0.1, 10.0),
    c_v=st.floats(0.1, 10.0),
    mu_tilde=st.floats(0.1, 10.0),
    kappa_tilde=st.floats(0.1, 10.0),
    # the exponents at which the powers are exact (1/v, x*x, ...) and any other
    alpha=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 4.0),
    beta=st.sampled_from([1.0, 2.0]) | st.floats(0.0, 4.0, exclude_min=True),
)


class TestBuildCase:
    """The named cases of the family and ad-hoc triples given as jets."""

    def test_rest_state_with_heating_source(self):
        # every flux term dies and the energy equation reduces to
        # c_v * dtheta/dt = S_theta
        x = np.linspace(0.1, 0.9, 5)
        s_v, s_u, s_theta, sigma = ad_hoc_sources("heating", MaterialParams(c_v=2.0), x, 0.3)
        assert_bits_equal(s_v, np.zeros(5))
        assert_bits_equal(s_u, np.zeros(5))
        np.testing.assert_allclose(s_theta, 1.2, rtol=1e-15)
        # the pressure R theta*/v* at rest
        np.testing.assert_allclose(sigma, -1.09, rtol=1e-15)

    def test_constant_case_is_exact(self):
        params = MaterialParams()
        case = manufactured_case("constant", params)
        x = np.linspace(0.0, 1.0, 7)
        for t in (0.0, 0.4, 1.7):
            s_v, s_u, s_theta, sigma = case.sources(x, t)
            assert np.all(s_v == 0.0) and np.all(s_u == 0.0) and np.all(s_theta == 0.0)
            assert np.all(sigma == -params.R)
            for source in mms_sources(case, Grid(8), [t]):
                assert np.all(source == 0.0)
            assert np.all(case.wall_stress(t) == -params.R)

    def test_default_case_satisfies_no_slip_walls(self):
        params = MaterialParams()
        case = manufactured_case("default", params)
        # not an exact solution: every source is non-zero at a probe point
        for source in case.sources(np.array([0.3]), 0.37)[:3]:
            assert source[0] != 0.0
        for t in (0.0, 0.13, 0.5):
            assert case.u(0.0, t) == pytest.approx(0.0, abs=1e-15)
            assert case.u(1.0, t) == pytest.approx(0.0, abs=1e-15)
            # insulated walls: theta*_x(0) = theta*_x(1) = 0 since the
            # profile is a pure cosine in x
            h = 1e-7
            left = (case.theta(h, t) - case.theta(0.0, t)) / h
            right = (case.theta(1.0, t) - case.theta(1.0 - h, t)) / h
            assert abs(left) < 1e-5 and abs(right) < 1e-5

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown mms case 'vortex'"):
            manufactured_case("vortex", MaterialParams())

    @pytest.mark.parametrize("name", [[], {}, 1, None], ids=repr)
    def test_non_string_name_rejected_before_hashing(self, name):
        # a list or dict would make the lookup of the name raise TypeError
        with pytest.raises(ValueError, match="unknown mms case"):
            manufactured_case(name, MaterialParams())

    def test_runs_do_not_retain_their_cases(self):
        # each case keeps its factors per grid, 33 KB at N = 1024; a run's
        # case must go with the run, not stay alive for the process
        def run_with_beta(beta):
            scenario = Scenario(
                params=MaterialParams(beta=beta), mms="default", n_cells=1024,
                t_end=1e-4, output_every=1e-4,
            )
            assert run(scenario).report.status == "completed"

        run_with_beta(0.5)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for k in range(50):
                run_with_beta(1.0 + k / 64)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 500_000


class TestSourcesAgainstFiniteDifferences:
    """Check the sources against a brute-force residual evaluation.

    The sources are defined so that the manufactured fields satisfy the
    forced PDE system exactly. Re-deriving each residual from the field
    callables with nested central differences gives a check that needs
    neither sympy nor the chain rule.
    """

    @staticmethod
    def _fd(f, z, h):
        return (f(z + h) - f(z - h)) / (2.0 * h)

    def test_default_case_residuals(self):
        params = MaterialParams()
        case = manufactured_case("default", params)
        t0 = 0.3
        ht, hx = 1e-5, 1e-4
        mu = lambda v: params.mu_tilde * (1.0 + v ** (-params.alpha))
        kappa = lambda th: params.kappa_tilde * th ** params.beta

        for x0 in (0.2, 0.5, 0.7):
            s_v, s_u, s_theta, _ = case.sources(x0, t0)
            v_t = self._fd(lambda t: case.v(x0, t), t0, ht)
            u_x = self._fd(lambda x: case.u(x, t0), x0, hx)
            assert s_v == pytest.approx(v_t - u_x, abs=1e-6)

            u_t = self._fd(lambda t: case.u(x0, t), t0, ht)
            sigma = lambda x: (
                mu(case.v(x, t0)) * self._fd(lambda y: case.u(y, t0), x, hx)
                / case.v(x, t0)
                - params.R * case.theta(x, t0) / case.v(x, t0)
            )
            assert s_u == pytest.approx(u_t - self._fd(sigma, x0, 2.0 * hx), abs=1e-5)

            th_t = self._fd(lambda t: case.theta(x0, t), t0, ht)
            flux = lambda x: (
                kappa(case.theta(x, t0))
                * self._fd(lambda y: case.theta(y, t0), x, hx)
                / case.v(x, t0)
            )
            conduction = self._fd(flux, x0, 2.0 * hx)
            v0 = case.v(x0, t0)
            expect_sth = (
                params.c_v * th_t
                + params.R * case.theta(x0, t0) / v0 * u_x
                - conduction
                - mu(v0) * u_x * u_x / v0
            )
            assert s_theta == pytest.approx(expect_sth, abs=1e-5)

    def test_mms_sources_sampled_on_grid(self):
        case = manufactured_case("default", MaterialParams())
        grid = Grid(2)
        (s_v,), (s_u,), (s_theta,) = mms_sources(case, grid, [0.2])
        at_centers, at_nodes = case.sources(grid.centers, 0.2), case.sources(grid.nodes, 0.2)
        assert_bits_equal(s_v, at_centers[0])
        assert_bits_equal(s_u, at_nodes[1])
        assert_bits_equal(s_theta, at_centers[2])


class TestCompiledSources:
    """The per-grid sources against the one-shot path and the sympy oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["default", "constant", "deep"]),
        params=material,
        n_cells=st.integers(8, 256),
        data=st.data(),
    )
    def test_grid_sources_match_one_shot_and_plain_lambdify(
        self, name, params, n_cells, data
    ):
        # as many times as one call of a run holds at n_cells; unsorted,
        # repeated and 0.0 included: each row stands alone
        full = driver.BLOCK_VALUES // (n_cells + 1)
        times = data.draw(
            st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=full, max_size=full),
            label="times",
        )
        # every call makes a new case, so its first grid is a first use
        case = manufactured_case(name, params)
        grid = Grid(n_cells)
        rows = mms_sources(case, grid, times)
        # the oracle at every time at once, with a rounding scale per row
        column = np.array(times)[:, None]
        walls = np.array([0.0, 1.0])
        want_centers, want_nodes, want_walls = (
            family_oracle(case, np.broadcast_to(x, (full, x.size)), column)
            for x in (grid.centers, grid.nodes, walls)
        )
        checks = (
            (rows[0], grid.centers, want_centers[0]),
            (rows[1], grid.nodes, want_nodes[1]),
            (rows[2], grid.centers, want_centers[2]),
        )
        for got, x, (want, scale) in checks:
            assert got.shape == (full, x.size)
            assert_within_rounding(got, want, scale)
        stresses = np.array([case.wall_stress(t) for t in times])
        assert_within_rounding(stresses, *want_walls[3])
        for t, s_v, s_u, s_theta, stress in zip(times, *rows, stresses):
            at_centers, at_nodes = case.sources(grid.centers, t), case.sources(grid.nodes, t)
            assert_bits_equal(s_v, at_centers[0])
            assert_bits_equal(s_u, at_nodes[1])
            assert_bits_equal(s_theta, at_centers[2])
            assert_bits_equal(stress, case.sources(walls, t)[3])

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(AD_HOC)),
        params=material,
        t=st.floats(0.0, 1.0),
    )
    def test_ad_hoc_jets_match_plain_lambdify(self, name, params, t):
        x = Grid(16).nodes
        got = ad_hoc_sources(name, params, x, t)
        want = oracle(*AD_HOC[name])(x, t, 0.0, params)
        for value, (expected, scale) in zip(got, want):
            assert np.shape(value) == x.shape
            assert_within_rounding(value, expected, scale)

    def test_family_jets_match_sympy_jets(self, monkeypatch):
        # the jets that a case hands to jet_sources are the derivatives of
        # its fields: each matches sympy's to a few ulp of its magnitude
        seen = []

        def recording(params, *jets):
            seen.append(jets)
            return jet_sources(params, *jets)

        monkeypatch.setattr(lagns.mms, "jet_sources", recording)
        case = manufactured_case("default", MaterialParams())
        tenth = {A: sp.Rational(1, 10), B: sp.Rational(1, 10)}
        fields = [expr.subs(tenth) for expr in (FAMILY_V, FAMILY_U, FAMILY_THETA)]
        x = Grid(16).nodes
        for t in (0.0, 0.3, 0.95):
            case.sources(x, t)
            for got, expr in zip(seen.pop(), fields):
                for part, want in zip(got, jet(expr, x, t)):
                    assert_within_rounding(part, want, float(np.max(np.abs(want))))

    def test_fields_are_the_value_parts_of_the_jets(self, monkeypatch):
        # v, u and theta form only their value part, with the bits of the
        # value parts of the jets that sources hands to jet_sources and of
        # the family's formulas, products in the same order
        seen = []

        def recording(params, *jets):
            seen.append(jets)
            return jet_sources(params, *jets)

        monkeypatch.setattr(lagns.mms, "jet_sources", recording)
        for name in ("default", "deep", "constant"):
            case = manufactured_case(name, MaterialParams())
            for x in (Grid(16).centers, Grid(16).nodes, np.zeros((2, 3)), 0.3):
                for t in (0.0, 0.3, 0.95, 2.5):
                    case.sources(x, t)
                    v, u, theta = seen.pop()
                    assert_bits_equal(case.v(x, t), v[0])
                    assert_bits_equal(case.u(x, t), u[0])
                    assert_bits_equal(case.theta(x, t), theta[0])
                    decay = case.amplitude * math.exp(-t)
                    swing = case.amplitude * math.sin(math.pi * t)
                    assert_bits_equal(case.v(x, t), 1.0 + decay * np.cos(np.pi * x))
                    assert_bits_equal(case.u(x, t), swing * np.sin(np.pi * x))

    def test_constant_and_t_only_sources_take_the_shape_of_x(self):
        grid = Grid(8)
        s_v, s_u, s_theta, _ = ad_hoc_sources("heating", MaterialParams(), grid.nodes, 0.25)
        assert_bits_equal(s_v, np.zeros(9))
        assert_bits_equal(s_u, np.zeros(9))
        assert_bits_equal(s_theta, np.full(9, 0.5))
        case = manufactured_case("constant", MaterialParams())
        for source, n in zip(mms_sources(case, grid, [0.25, 0.5]), (8, 9, 8)):
            assert source.shape == (2, n)
        assert case.sources(np.zeros((2, 3)), 0.5)[2].shape == (2, 3)
        assert case.sources(0.3, 0.5)[2].shape == ()

    def test_grid_order_gives_fresh_values(self):
        case = manufactured_case("default", MaterialParams())
        for n, t in ((16, 0.1), (32, 0.2), (16, 0.3)):
            grid = Grid(n)
            (s_v,), (s_u,), (s_theta,) = mms_sources(case, grid, [t])
            assert_bits_equal(s_v, case.sources(grid.centers, t)[0])
            assert_bits_equal(s_u, case.sources(grid.nodes, t)[1])
            assert_bits_equal(s_theta, case.sources(grid.centers, t)[2])

    def test_x_only_outputs_are_fresh_arrays(self):
        # no array a case returns may share memory with an earlier result
        case = manufactured_case("default", MaterialParams())
        grid = Grid(8)
        first = (case.wall_stress(0.5), *mms_sources(case, grid, [0.5]))
        want = [array.copy() for array in first]
        for array in first:
            array[:] = 0.0
        again = (case.wall_stress(0.5), *mms_sources(case, grid, [0.5]))
        for got, expected in zip(again, want):
            assert_bits_equal(got, expected)


class TestStressFreeForcing:
    def test_per_step_wall_stress_matches_one_shot(self, monkeypatch):
        imposed = []
        real_step = driver.step

        def recording_step(state, dt, params, bc, grid, forcing, stress_bc, *args):
            imposed.append((state.t + dt, stress_bc))
            return real_step(state, dt, params, bc, grid, forcing, stress_bc, *args)

        monkeypatch.setattr(driver, "step", recording_step)
        scenario = Scenario(
            bc=BoundaryKind.STRESS_FREE, n_cells=16, t_end=0.05,
            output_every=0.025, mms="default", dt_max=1.0 / 16**2,
        )
        params = run(scenario).scenario.params
        case = manufactured_case("default", params)
        walls = np.array([0.0, 1.0])
        assert len(imposed) > 10
        for t, stress_bc in imposed:
            one_shot = case.sources(walls, t)[3]
            assert_bits_equal(np.array(stress_bc), one_shot)
            assert_within_rounding(one_shot, *family_oracle(case, walls, t)[3])

    def test_error_shrinks_under_refinement(self):
        # stress-free walls with the manufactured wall stress imposed as
        # boundary data; quartering dx should shrink the error by about 4x
        errors = []
        for n in (32, 64):
            scenario = Scenario(
                bc=BoundaryKind.STRESS_FREE, n_cells=n, t_end=0.1,
                output_every=0.1, mms="default", dt_max=1.0 / n**2,
            )
            result = run(scenario)
            case = manufactured_case("default", result.scenario.params)
            err = np.max(np.abs(result.state.theta - case.theta(result.grid.centers, result.state.t)))
            errors.append(float(err))
        assert errors[0] / errors[1] >= 3.0


class TestDeepCase:
    def test_degenerate_conductivity_converges_at_cfl_dt(self):
        # theta* of the deep case falls to 0.1, where kappa = theta^8 is
        # 1e-8, so an extrapolated temperature that overshoots where theta
        # changes fast is amplified by the power and can collapse theta; at
        # dt = dx/4 every level completes and the temperature error falls
        # with N (measured 0.298, 0.209, 0.092, 0.049)
        params = MaterialParams(beta=8.0)
        case = manufactured_case("deep", params)
        errors = []
        for n in (32, 64, 128, 256):
            result = run(Scenario(
                params=params, bc=BoundaryKind.NO_SLIP, n_cells=n, t_end=0.25,
                output_every=0.25, mms="deep", dt_max=0.25 / n,
            ))
            assert result.report.status == "completed", (n, result.report.abort_reason)
            state = result.state
            errors.append(
                float(np.max(np.abs(state.theta - case.theta(result.grid.centers, state.t))))
            )
        assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), errors
