"""Material laws for a viscous heat-conducting ideal gas in mass coordinates.

The gas carries a density-dependent shear viscosity mu(v) = mu_tilde*(1 + v**-alpha)
and a temperature-power conductivity kappa(theta) = kappa_tilde*theta**beta.

The laws are plain formulas: they assume specific volume v and temperature
theta are positive and finite and do not check it. States guarantee it where
they are made: State.validate checks initial data, and the gates of
scheme.continuity_step (v) and scheme.temperature_step (theta) check every
stepped state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import scalar_operand

__all__ = [
    "MaterialParams",
    "volume_power",
    "volume_terms",
    "viscosity",
    "conductivity",
    "pressure",
    "stress",
    "sound_speed",
]

_ONE = scalar_operand(1.0)


@dataclass(frozen=True)
class MaterialParams:
    """Gas constants and constitutive exponents.

    Admissible regime: alpha >= 0 (volume exponent in the viscosity) and
    beta > 0 (temperature exponent in the conductivity). All four scale
    constants must be positive. R_0d, c_v_0d, mu_tilde_0d and
    kappa_tilde_0d are the scale constants as grid.scalar_operand values,
    made once per instance, for the laws and the step to pass to ufuncs.
    """

    R: float = 1.0
    c_v: float = 1.0
    mu_tilde: float = 1.0
    kappa_tilde: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("R", "c_v", "mu_tilde", "kappa_tilde"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (0.0 <= self.alpha < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError(
                f"exponents alpha = {self.alpha}, beta = {self.beta} violate the "
                "admissible regime (alpha >= 0 and beta > 0)"
            )
        for name in ("R", "c_v", "mu_tilde", "kappa_tilde"):
            object.__setattr__(self, f"{name}_0d", scalar_operand(getattr(self, name)))

    @property
    def gamma(self) -> float:
        """Adiabatic index 1 + R/c_v of the ideal gas."""
        return 1.0 + self.R / self.c_v


def volume_power(v: np.ndarray, alpha: float) -> np.ndarray:
    """The volume power v**-alpha of the viscosity, in one pass and within
    an ulp of the exact value; exactly ones when alpha = 0 and 1/v when
    alpha = 1."""
    return v**-alpha


def volume_terms(
    v: np.ndarray, params: MaterialParams
) -> tuple[np.ndarray, np.ndarray]:
    """The volume power v**-alpha and the viscosity mu_tilde*(1 + v**-alpha)
    built from it, so a caller that needs both evaluates the power once.
    The viscosity is exactly 2*mu_tilde when alpha = 0."""
    power = volume_power(v, params.alpha)
    return power, params.mu_tilde_0d * (_ONE + power)


def viscosity(v: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Viscosity mu_tilde*(1 + v**-alpha); exactly 2*mu_tilde when alpha = 0."""
    return volume_terms(v, params)[1]


def conductivity(theta: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Conductivity kappa_tilde*theta**beta, the power in one pass and
    within an ulp of the exact value; the power is exactly theta when
    beta = 1 and theta*theta when beta = 2."""
    return params.kappa_tilde_0d * theta**params.beta


def pressure(v: np.ndarray, theta: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Ideal-gas pressure R*theta/v."""
    return params.R_0d * theta / v


def stress(
    v: np.ndarray,
    theta: np.ndarray,
    du_dx: np.ndarray,
    params: MaterialParams,
) -> np.ndarray:
    """Total stress mu(v)*u_x/v - p(v, theta); affine in the strain rate."""
    return viscosity(v, params) * du_dx / v - pressure(v, theta, params)


def sound_speed(theta: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Adiabatic sound speed sqrt(gamma*R*theta) per cell."""
    return np.sqrt(params.gamma * params.R * theta)

