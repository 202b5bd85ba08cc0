import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagns import (
    Grid,
    State,
    cell_integral,
    cumulative_u_integral,
    du_dx_cells,
    node_weights,
    total_energy,
)
from lagns.grid import positive_extrema, wall_values
from test_verify import grad_l2_sq


class TestGrid:
    def test_layout(self):
        g = Grid(4)
        assert g.dx == 0.25
        assert g.n_nodes == 5
        np.testing.assert_allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.dx * g.n_cells == 1.0

    @pytest.mark.parametrize("bad", [0, 1, -3, 2.5, "8"])
    def test_rejects_bad_cell_counts(self, bad):
        with pytest.raises(ValueError):
            Grid(bad)

    def test_node_weights_sum_to_one(self):
        g = Grid(7)
        w = node_weights(g)
        assert w[0] == w[-1] == g.dx / 2
        assert w.sum() == pytest.approx(1.0)


class TestPositiveExtrema:
    """The one positivity rule of a state. It reduces by arg-reductions
    (f[f.argmin()]), which must keep the values and the NaN rule of
    np.min and np.max."""

    @pytest.mark.parametrize("where", [0, 7, -1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
    def test_rejects_a_bad_value_anywhere(self, value, where):
        f = np.linspace(0.5, 2.0, 15)
        f[where] = value
        with pytest.raises(ZeroDivisionError, match="^bad f$"):
            positive_extrema(f, "bad f", ZeroDivisionError)

    @given(f=hnp.arrays(
        np.float64, st.integers(1, 300),
        elements=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    ))
    def test_returns_the_plain_reductions(self, f):
        got = positive_extrema(f, "bad f")
        assert repr(got) == repr((float(np.min(f)), float(np.max(f))))


class TestStateValidation:
    def test_accepts_consistent_state(self, grid, uniform_state):
        uniform_state.validate(grid)

    def test_shape_mismatches(self, grid):
        with pytest.raises(ValueError, match="shape"):
            State(0.0, np.ones(3), np.zeros(grid.n_nodes), np.ones(grid.n_cells)).validate(grid)
        with pytest.raises(ValueError, match="shape"):
            State(0.0, np.ones(grid.n_cells), np.zeros(2), np.ones(grid.n_cells)).validate(grid)

    def test_positivity(self, grid, uniform_state):
        uniform_state.v[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            uniform_state.validate(grid)

    def test_non_finite(self, grid, uniform_state):
        uniform_state.theta[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            uniform_state.validate(grid)

    @pytest.mark.parametrize("field", ["v", "u", "theta"])
    def test_infinite_value(self, grid, uniform_state, field):
        getattr(uniform_state, field)[1] = np.inf
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            uniform_state.validate(grid)

    def test_copy_is_deep(self, grid, uniform_state):
        clone = uniform_state.copy()
        clone.v[0] = 5.0
        assert uniform_state.v[0] == 1.0


class TestCellIntegral:
    def test_constant_and_zero(self):
        g = Grid(10)
        assert cell_integral(np.ones(10), g) == pytest.approx(1.0)
        assert cell_integral(np.zeros(10), g) == 0.0

    def test_linear_exact_at_two_cells(self):
        g = Grid(2)
        assert cell_integral(g.centers, g) == pytest.approx(0.5)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linearity(self, a, b):
        g = Grid(16)
        f1 = np.sin(3 * g.centers)
        f2 = np.cos(2 * g.centers)
        combined = cell_integral(a * f1 + b * f2, g)
        assert combined == pytest.approx(
            a * cell_integral(f1, g) + b * cell_integral(f2, g), rel=1e-12, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cell_integral(np.ones(5), Grid(10))


class TestDuDxCells:
    def test_constant_velocity(self):
        g = Grid(8)
        assert np.all(du_dx_cells(np.full(9, 3.0), g) == 0.0)

    def test_linear_velocity(self):
        g = Grid(8)
        np.testing.assert_allclose(du_dx_cells(g.nodes, g), np.ones(8))

    def test_quadratic_at_two_cells(self):
        g = Grid(2)
        np.testing.assert_allclose(du_dx_cells(g.nodes**2, g), [0.5, 1.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            du_dx_cells(np.zeros(5), Grid(8))


class TestGradL2Sq:
    # grad_l2_sq is the tracker's test oracle, kept in tests/test_verify.py
    def test_constant_is_zero(self):
        assert grad_l2_sq(np.full(12, 2.5), Grid(12)) == 0.0

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_linear_profile(self, n):
        g = Grid(n)
        assert grad_l2_sq(g.centers, g) == pytest.approx((n - 1) / n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            grad_l2_sq(np.ones(3), Grid(4))


class TestTotalEnergy:
    def test_thermal_only(self, grid):
        s = State(0.0, np.ones(grid.n_cells), np.zeros(grid.n_nodes), np.full(grid.n_cells, 0.7))
        assert total_energy(s, grid, 1.0) == pytest.approx(0.7)

    def test_kinetic_only(self, grid):
        s = State(0.0, np.ones(grid.n_cells), np.full(grid.n_nodes, 2.0), np.full(grid.n_cells, 1e-300))
        assert total_energy(s, grid, 1.0) == pytest.approx(2.0)

    def test_unit_rest_state_has_unit_energy(self, grid, uniform_state):
        assert total_energy(uniform_state, grid, 1.0) == pytest.approx(1.0)

    def test_even_in_velocity(self, grid):
        rng = np.random.default_rng(7)
        u = rng.normal(size=grid.n_nodes)
        s1 = State(0.0, np.ones(grid.n_cells), u, np.ones(grid.n_cells))
        s2 = State(0.0, np.ones(grid.n_cells), -u, np.ones(grid.n_cells))
        assert total_energy(s1, grid, 1.0) == total_energy(s2, grid, 1.0)


class TestCumulativeUIntegral:
    def test_zero_difference(self, grid):
        u = np.sin(grid.nodes)
        assert np.all(cumulative_u_integral(u, u, grid) == 0.0)

    def test_constant_difference(self, grid):
        out = cumulative_u_integral(np.ones(grid.n_nodes), np.zeros(grid.n_nodes), grid)
        np.testing.assert_allclose(out, grid.nodes, atol=1e-15)

    def test_linear_difference_two_cells(self):
        g = Grid(2)
        out = cumulative_u_integral(g.nodes, np.zeros(3), g)
        np.testing.assert_allclose(out, [0.0, 0.125, 0.5])

    def test_endpoint_matches_full_trapezoid(self, grid):
        rng = np.random.default_rng(3)
        u = rng.normal(size=grid.n_nodes)
        u0 = rng.normal(size=grid.n_nodes)
        out = cumulative_u_integral(u, u0, grid)
        assert out[-1] == pytest.approx(np.trapezoid(u - u0, dx=grid.dx))

    def test_length_mismatch(self, grid):
        with pytest.raises(ValueError):
            cumulative_u_integral(np.zeros(3), np.zeros(3), grid)


class TestWallValues:
    def test_linear_field_extrapolates_exactly(self, grid):
        left, right = wall_values(3.0 - 2.0 * grid.centers)
        assert left == pytest.approx(3.0, abs=1e-14)
        assert right == pytest.approx(1.0, abs=1e-14)
