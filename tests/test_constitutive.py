import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagns import (
    Grid,
    MaterialParams,
    conductivity,
    du_dx_cells,
    pressure,
    sound_speed,
    stress,
    viscosity,
)
from lagns import constitutive, scheme
from lagns.constitutive import volume_power, volume_terms

positive = st.floats(min_value=1e-3, max_value=1e3)
# arguments whose powers up to the 8th stay finite and normal
admissible = hnp.arrays(
    np.float64, st.integers(1, 40), elements=st.floats(min_value=1e-30, max_value=1e30)
)


class TestPowers:
    """volume_power and conductivity take x**c in one pass: exact at the
    exponents every shipped config uses, within an ulp elsewhere."""

    @given(v=admissible)
    def test_exact_exponents(self, v):
        # v**c at c = 0, 1, -1, 2 is volume_power(v, -c)
        assert volume_power(v, 0.0).tobytes() == np.ones_like(v).tobytes()
        assert volume_power(v, -1.0).tobytes() == v.tobytes()
        assert volume_power(v, 1.0).tobytes() == (1.0 / v).tobytes()
        assert volume_power(v, -2.0).tobytes() == (v * v).tobytes()
        for beta, want in ((1.0, v), (2.0, v * v)):
            got = conductivity(v, MaterialParams(beta=beta))
            assert got.tobytes() == want.tobytes()

    @given(v=admissible, c=st.floats(min_value=-8.0, max_value=8.0))
    def test_within_an_ulp_of_math_pow(self, v, c):
        want = np.array([math.pow(x, c) for x in v])
        powers = [volume_power(v, -c)]
        if c > 0.0:  # an admissible conductivity exponent
            powers.append(conductivity(v, MaterialParams(beta=c)))
        for got in powers:
            assert np.all(np.abs(got - want) <= np.spacing(want))


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
        assert mu >= v**-alpha

    @given(v=positive)
    def test_alpha_zero_is_constant(self, v):
        p = MaterialParams(alpha=0.0, mu_tilde=3.0)
        assert viscosity(np.array([v]), p)[0] == 6.0

    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 0.5, 1.0, 8.0, 1e300])
    def test_infinite_volume_limit(self, alpha):
        # mu(inf) is the volume representation's mu_eff: mu_tilde once the
        # volume term decays (alpha > 0), and 2*mu_tilde when it is constant;
        # the global filter makes any overflow or invalid warning an error
        p = MaterialParams(alpha=alpha, mu_tilde=3.0)
        assert viscosity(np.inf, p) == (3.0 if alpha > 0.0 else 6.0)

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


materials = st.builds(
    MaterialParams,
    R=positive,
    c_v=positive,
    mu_tilde=positive,
    kappa_tilde=positive,
    alpha=st.floats(min_value=0.0, max_value=8.0),
    beta=st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
)


@st.composite
def fields(draw):
    """v, theta and a strain rate on n cells, and a velocity on n + 1
    nodes."""
    n = draw(st.integers(2, 40))
    values = st.floats(min_value=1e-6, max_value=1e6)
    v, theta = (draw(hnp.arrays(np.float64, n, elements=values)) for _ in range(2))
    signed = st.floats(min_value=-1e6, max_value=1e6)
    g = draw(hnp.arrays(np.float64, n, elements=signed))
    u = draw(hnp.arrays(np.float64, n + 1, elements=signed))
    return v, theta, g, u


class TestScalarOperands:
    """The laws and du_dx_cells pass their per-run scalars to ufuncs as
    read-only 0-d float64 arrays; the bits are those of the Python-float
    formulas written out here."""

    @given(params=materials, arrays=fields())
    def test_bits_of_the_float_formulas(self, params, arrays):
        v, theta, g, u = arrays
        power = v**-params.alpha
        mu = params.mu_tilde * (1.0 + power)
        p = params.R * theta / v
        cases = [
            (pressure(v, theta, params), p),
            (volume_terms(v, params)[0], power),
            (volume_terms(v, params)[1], mu),
            (conductivity(theta, params), params.kappa_tilde * theta**params.beta),
            (stress(v, theta, g, params), mu * g / v - p),
            (du_dx_cells(u, Grid(len(v))), (u[1:] - u[:-1]) / (1.0 / len(v))),
        ]
        for got, want in cases:
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @given(params=materials, n=st.integers(2, 10**6))
    def test_operands_are_read_only_float64(self, params, n):
        grid = Grid(n)
        operands = [
            (params.R_0d, params.R),
            (params.c_v_0d, params.c_v),
            (params.mu_tilde_0d, params.mu_tilde),
            (params.kappa_tilde_0d, params.kappa_tilde),
            (grid.dx_0d, grid.dx),
            (constitutive._ONE, 1.0),
            (scheme._ONE, 1.0),
        ]
        for operand, value in operands:
            assert operand.shape == () and operand.dtype == np.float64
            assert operand.item() == value
            with pytest.raises(ValueError, match="read-only"):
                np.add(operand, 1.0, out=operand)
            with pytest.raises(ValueError, match="read-only"):
                operand[()] = 0.0
