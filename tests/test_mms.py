import functools

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
    build_case,
    manufactured_case,
    mms_sources,
    run,
)
from lagns.mms import T, X


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBuildCase:
    def test_rest_state_with_heating_source(self):
        # u* = 0, v* = 1, theta* = 1 + t: every flux term dies and the
        # energy equation reduces to c_v * dtheta/dt = S_theta
        params = MaterialParams(c_v=2.0)
        case = build_case("heating", sp.Integer(1), sp.Integer(0), 1 + T, params)
        x = np.linspace(0.1, 0.9, 5)
        np.testing.assert_allclose(case.source_v(x, 0.3), 0.0, atol=1e-15)
        np.testing.assert_allclose(case.source_u(x, 0.3), 0.0, atol=1e-15)
        np.testing.assert_allclose(case.source_theta(x, 0.3), 2.0, atol=1e-14)

    def test_constant_case_is_exact(self):
        params = MaterialParams()
        case = manufactured_case("constant", params)
        x = np.linspace(0.0, 1.0, 7)
        for t in (0.0, 0.4):
            np.testing.assert_allclose(case.source_v(x, t), 0.0, atol=1e-15)
            np.testing.assert_allclose(case.source_u(x, t), 0.0, atol=1e-15)
            np.testing.assert_allclose(case.source_theta(x, t), 0.0, atol=1e-15)

    def test_default_case_satisfies_no_slip_walls(self):
        params = MaterialParams()
        case = manufactured_case("default", params)
        # not an exact solution: every source is non-zero at a probe point
        probe = np.array([0.3])
        for source in (case.source_v, case.source_u, case.source_theta):
            assert source(probe, 0.37)[0] != 0.0
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
        with pytest.raises(ValueError, match="unknown"):
            manufactured_case("vortex", MaterialParams())

    def test_cache_returns_same_object(self):
        params = MaterialParams()
        assert manufactured_case("default", params) is manufactured_case("default", params)


class TestLazySymbols:
    """X and T are made on first access, once; see the module docstring."""

    def test_repeated_access_returns_identical_symbols(self):
        from lagns.mms import T as t_again, X as x_again

        assert x_again is X and t_again is T
        assert lagns.mms.X is X and lagns.mms.T is T
        assert (X.name, T.name) == ("x", "t") and X.is_real and T.is_real

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="nope"):
            lagns.mms.nope
        assert not hasattr(lagns.mms, "nope")

    def test_case_from_module_symbols_matches_named_case(self):
        params = MaterialParams()
        tenth = sp.Rational(1, 10)
        v = 1 + tenth * sp.exp(-T) * sp.cos(sp.pi * X)
        u = tenth * sp.sin(sp.pi * T) * sp.sin(sp.pi * X)
        built = build_case("default", v, u, v, params)
        named = manufactured_case("default", params)
        x, t = np.linspace(0.0, 1.0, 9), 0.37
        for fn in ("v", "u", "theta", "stress", "source_v", "source_u", "source_theta"):
            assert_bits_equal(getattr(built, fn)(x, t), getattr(named, fn)(x, t))
        grid = Grid(8)
        for got, want in zip(mms_sources(built, grid, t), mms_sources(named, grid, t)):
            assert_bits_equal(got, want)


class TestSourcesAgainstFiniteDifferences:
    """Check the symbolic sources against a brute-force residual evaluation.

    The sources are defined so that the manufactured fields satisfy the
    forced PDE system exactly. Re-deriving each residual from the field
    callables with nested central differences gives an independent check
    that the sympy pipeline encodes the intended equations.
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
            v_t = self._fd(lambda t: case.v(x0, t), t0, ht)
            u_x = self._fd(lambda x: case.u(x, t0), x0, hx)
            expect_sv = v_t - u_x
            assert case.source_v(x0, t0) == pytest.approx(expect_sv, abs=1e-6)

            u_t = self._fd(lambda t: case.u(x0, t), t0, ht)
            sigma = lambda x: (
                mu(case.v(x, t0)) * self._fd(lambda y: case.u(y, t0), x, hx)
                / case.v(x, t0)
                - params.R * case.theta(x, t0) / case.v(x, t0)
            )
            expect_su = u_t - self._fd(sigma, x0, 2.0 * hx)
            assert case.source_u(x0, t0) == pytest.approx(expect_su, abs=1e-5)

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
            assert case.source_theta(x0, t0) == pytest.approx(expect_sth, abs=1e-5)

    def test_mms_sources_sampled_on_grid(self):
        params = MaterialParams()
        case = manufactured_case("default", params)
        grid = Grid(2)
        sv, su, sth = mms_sources(case, grid, 0.2)
        assert_bits_equal(sv, case.source_v(grid.centers, 0.2))
        assert_bits_equal(su, case.source_u(grid.nodes, 0.2))
        assert_bits_equal(sth, case.source_theta(grid.centers, 0.2))


@functools.cache
def compiled_case(name: str):
    params = MaterialParams()
    if name == "heating":
        # v* = 1 and u* = 0 leave constant continuity and momentum sources;
        # theta* = 1 + t^2 leaves the theta source 2 c_v t, in t alone
        return build_case(name, sp.Integer(1), sp.Integer(0), 1 + T**2, params)
    # a fresh build, so that its first grid is a first use
    return manufactured_case.__wrapped__(name, params)


@functools.cache
def plain_reference(expr):
    """expr lambdified without elimination, and the scale of its rounding.

    The scale is the largest sum of the magnitudes of expr's summands: the
    same sum evaluated in another grouping differs by a few ulp of that,
    not of the result, which may cancel to far less. Do not tighten it to
    max|source|: s_u of the default case is a sum of terms of about 0.3
    that cancel to about 0.018 near t = 0.95, where the compiled and plain
    forms differ by up to 46 ulp of max|s_u| but at most 7 ulp of this
    scale.
    """
    fn = sp.lambdify((X, T), sp.N(expr), "numpy")
    terms = [sp.lambdify((X, T), term, "numpy") for term in sp.Add.make_args(sp.N(expr))]

    def evaluate(x, t):
        value = np.broadcast_to(fn(x, t), x.shape)
        scale = sum(np.abs(np.broadcast_to(term(x, t), x.shape)) for term in terms)
        return value, float(np.max(scale))

    return evaluate


class TestCompiledSources:
    """The per-grid programs against the one-shot path and a plain lambdify."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["default", "constant", "heating"]),
        n_cells=st.integers(8, 256),
        t=st.floats(0.0, 1.0),
    )
    def test_grid_sources_match_one_shot_and_plain_lambdify(self, name, n_cells, t):
        case = compiled_case(name)
        grid = Grid(n_cells)
        s_v, s_u, s_theta = mms_sources(case, grid, t)
        checks = (
            (s_v, grid.centers, case.source_v, case.cells.exprs[0]),
            (s_u, grid.nodes, case.source_u, case.nodes.exprs[0]),
            (s_theta, grid.centers, case.source_theta, case.cells.exprs[1]),
        )
        for got, x, one_shot, expr in checks:
            assert got.shape == x.shape
            assert_bits_equal(got, one_shot(x, t))
            want, scale = plain_reference(expr)(x, t)
            assert np.max(np.abs(got - want)) <= 8 * np.spacing(scale)

    def test_constant_and_t_only_sources_take_the_shape_of_x(self):
        case = compiled_case("heating")
        grid = Grid(8)
        s_v, s_u, s_theta = mms_sources(case, grid, 0.25)
        assert_bits_equal(s_v, np.zeros(8))
        assert_bits_equal(s_u, np.zeros(9))
        assert_bits_equal(s_theta, np.full(8, 0.5))
        assert case.source_theta(np.zeros((2, 3)), 0.5).shape == (2, 3)
        assert case.source_theta(0.3, 0.5).shape == ()

    def test_grid_order_gives_fresh_values(self):
        case = manufactured_case.__wrapped__("default", MaterialParams())
        for n, t in ((16, 0.1), (32, 0.2), (16, 0.3)):
            grid = Grid(n)
            s_v, s_u, s_theta = mms_sources(case, grid, t)
            assert_bits_equal(s_v, case.source_v(grid.centers, t))
            assert_bits_equal(s_u, case.source_u(grid.nodes, t))
            assert_bits_equal(s_theta, case.source_theta(grid.centers, t))

    def test_x_only_outputs_are_fresh_arrays(self):
        # a steady triple: the wall stress -R theta*/v* depends on x alone,
        # so its program returns a factor kept for the case
        v_expr = 1 + sp.Rational(1, 10) * sp.cos(sp.pi * X)
        case = build_case("steady", v_expr, sp.Integer(0), sp.Integer(1), MaterialParams())
        first = case.wall_stress(0.0)
        want = first.copy()
        first[:] = 0.0
        assert_bits_equal(case.wall_stress(0.5), want)


class TestStressFreeForcing:
    def test_per_step_wall_stress_matches_one_shot(self, monkeypatch):
        imposed = []
        real_step = driver.step

        def recording_step(state, dt, params, bc, grid, sources, stress_bc, history):
            imposed.append((state.t + dt, stress_bc))
            return real_step(state, dt, params, bc, grid, sources, stress_bc, history)

        monkeypatch.setattr(driver, "step", recording_step)
        scenario = Scenario(
            bc=BoundaryKind.STRESS_FREE, n_cells=16, t_end=0.05,
            output_every=0.025, mms="default", dt_max=1.0 / 16**2,
        )
        params = run(scenario).scenario.params
        case = manufactured_case("default", params)
        walls = np.array([0.0, 1.0])
        plain = plain_reference(case.walls.exprs[0])
        assert len(imposed) > 10
        for t, stress_bc in imposed:
            one_shot = case.stress(walls, t)
            assert_bits_equal(np.array(stress_bc), one_shot)
            want, scale = plain(walls, t)
            assert np.max(np.abs(one_shot - want)) <= 8 * np.spacing(scale)

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
