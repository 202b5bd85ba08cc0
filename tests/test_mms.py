import numpy as np
import pytest
import sympy as sp

from lagns import (
    BoundaryKind,
    MaterialParams,
    Scenario,
    build_case,
    manufactured_case,
    mms_sources,
    run,
)
from lagns.mms import T


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
        from lagns import Grid

        params = MaterialParams()
        case = manufactured_case("default", params)
        grid = Grid(2)
        sv, su, sth = mms_sources(case, grid, 0.2)
        np.testing.assert_allclose(sv, case.source_v(grid.centers, 0.2))
        np.testing.assert_allclose(su, case.source_u(grid.nodes, 0.2))
        np.testing.assert_allclose(sth, case.source_theta(grid.centers, 0.2))


class TestStressFreeForcing:
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
