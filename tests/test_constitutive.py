import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagns import (
    MaterialParams,
    branch_weight,
    conductivity,
    pressure,
    sound_speed,
    stress,
    viscosity,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


class TestMaterialParams:
    def test_defaults_are_unit_normalization(self):
        p = MaterialParams()
        assert (p.R, p.c_v, p.mu_tilde, p.kappa_tilde) == (1.0, 1.0, 1.0, 1.0)
        assert p.alpha == 1.0 and p.beta == 1.0

    def test_gamma(self):
        assert MaterialParams().gamma == 2.0
        assert MaterialParams(R=1.0, c_v=1.5).gamma == pytest.approx(5.0 / 3.0)

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0},
        {"beta": -1.0},
        {"alpha": -0.5},
        {"R": 0.0},
        {"c_v": -1.0},
        {"mu_tilde": 0.0},
        {"kappa_tilde": -2.0},
        {"alpha": float("nan")},
        {"beta": float("inf")},
    ])
    def test_out_of_regime_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MaterialParams(**kwargs)


class TestViscosity:
    def test_point_values(self):
        assert viscosity(np.array([1.0]), MaterialParams(alpha=2.0))[0] == 2.0
        assert viscosity(np.array([5.0]), MaterialParams(alpha=0.0))[0] == 2.0
        assert viscosity(np.array([2.0]), MaterialParams(alpha=1.0))[0] == 1.5

    @given(v=positive, alpha=st.floats(min_value=0.0, max_value=5.0))
    def test_exceeds_scale(self, v, alpha):
        mu = viscosity(np.array([v]), MaterialParams(alpha=alpha))[0]
        assert mu > 1.0
        assert mu >= np.exp(-alpha * np.log(v))

    @given(v=positive)
    def test_alpha_zero_is_constant(self, v):
        p = MaterialParams(alpha=0.0, mu_tilde=3.0)
        assert viscosity(np.array([v]), p)[0] == 6.0

    def test_non_increasing_in_v(self):
        v = np.linspace(0.1, 10.0, 50)
        mu = viscosity(v, MaterialParams(alpha=1.5))
        assert np.all(np.diff(mu) <= 0.0)

    @given(v=positive, alpha=st.floats(min_value=0.0, max_value=3.0))
    def test_mu_v_product_identity(self, v, alpha):
        # mu(v)*v = mu_tilde*(v + v**(1-alpha)) > mu_tilde*v
        p = MaterialParams(alpha=alpha)
        lhs = viscosity(np.array([v]), p)[0] * v
        assert lhs == pytest.approx(v + v ** (1.0 - alpha), rel=1e-12)
        assert lhs > v


class TestConductivity:
    def test_point_values(self):
        assert conductivity(np.array([1.0]), MaterialParams(beta=3.0))[0] == 1.0
        assert conductivity(np.array([4.0]), MaterialParams(beta=0.5))[0] == pytest.approx(2.0)
        assert conductivity(
            np.array([2.0]), MaterialParams(kappa_tilde=3.0, beta=1.0)
        )[0] == pytest.approx(6.0)

    @given(theta=positive, beta=st.floats(min_value=1e-3, max_value=5.0))
    def test_positive(self, theta, beta):
        assert conductivity(np.array([theta]), MaterialParams(beta=beta))[0] > 0.0


class TestPressure:
    def test_point_values(self):
        p = MaterialParams()
        assert pressure(np.array([1.0]), np.array([1.0]), p)[0] == 1.0
        assert pressure(np.array([2.0]), np.array([1.0]), p)[0] == 0.5
        heavy = MaterialParams(R=287.0)
        assert pressure(np.array([0.5]), np.array([300.0]), heavy)[0] == pytest.approx(172_200.0)


class TestStress:
    def test_point_values(self):
        p = MaterialParams()
        assert stress(np.array([1.0]), np.array([1.0]), np.array([0.0]), p)[0] == -1.0
        assert stress(np.array([1.0]), np.array([1.0]), np.array([1.0]), p)[0] == 1.0

    @given(v=positive, theta=positive)
    def test_compatibility_balance(self, v, theta):
        # strain rate R*theta/mu(v) balances the pressure exactly
        p = MaterialParams()
        g = p.R * theta / viscosity(np.array([v]), p)[0]
        # the two terms cancel, so rounding leaves a few ulps of R*theta/v
        assert stress(np.array([v]), np.array([theta]), np.array([g]), p)[0] == pytest.approx(
            0.0, abs=4 * np.spacing(p.R * theta / v)
        )

    @given(v=positive, theta=positive, g1=st.floats(-10, 10), g2=st.floats(-10, 10))
    def test_affine_in_strain_rate(self, v, theta, g1, g2):
        p = MaterialParams(alpha=0.7)
        va, ta = np.array([v]), np.array([theta])
        s1 = stress(va, ta, np.array([g1]), p)[0]
        s2 = stress(va, ta, np.array([g2]), p)[0]
        slope = viscosity(va, p)[0] / v
        # the viscous and pressure terms cancel in s2 - s1, so rounding leaves
        # a few ulps of the largest of them
        tol = 8 * np.spacing(max(abs(slope * g1), abs(slope * g2), p.R * theta / v))
        assert s2 - s1 == pytest.approx(slope * (g2 - g1), rel=1e-9, abs=tol)


class TestBranchWeight:
    def test_two_point_function(self):
        assert branch_weight(0.0) == 0.5
        assert branch_weight(1.0) == 1.0
        assert branch_weight(0.3) == 1.0

    @given(alpha=st.floats(min_value=1e-12, max_value=100.0))
    def test_positive_alpha_always_one(self, alpha):
        assert branch_weight(alpha) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            branch_weight(-0.1)


class TestSoundSpeed:
    def test_point_values(self):
        p = MaterialParams()
        assert sound_speed(np.array([1.0]), p)[0] == pytest.approx(np.sqrt(2.0))
        q = MaterialParams(c_v=1.5)
        assert sound_speed(np.array([2.0]), q)[0] == pytest.approx(
            np.sqrt(10.0 / 3.0)
        )

    def test_vanishes_with_theta(self):
        p = MaterialParams()
        tiny = sound_speed(np.array([1e-30]), p)[0]
        assert tiny == pytest.approx(0.0, abs=1e-14)
