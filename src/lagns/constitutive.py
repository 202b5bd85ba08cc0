"""Material laws for a viscous heat-conducting ideal gas in mass coordinates.

The gas carries a density-dependent shear viscosity mu(v) = mu_tilde*(1 + v**-alpha)
and a temperature-power conductivity kappa(theta) = kappa_tilde*theta**beta.

The laws are plain formulas: they assume specific volume v and temperature
theta are strictly positive and do not check it. States guarantee it where
they are made: State.validate checks initial data, and the gates of
scheme.continuity_step (v) and of the Picard loop of scheme.temperature_step
(theta) check every stepped state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaterialParams",
    "viscosity",
    "conductivity",
    "pressure",
    "stress",
    "sound_speed",
    "branch_weight",
]


@dataclass(frozen=True)
class MaterialParams:
    """Gas constants and constitutive exponents.

    Admissible regime: alpha >= 0 (volume exponent in the viscosity) and
    beta > 0 (temperature exponent in the conductivity). All four scale
    constants must be positive.
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

    @property
    def gamma(self) -> float:
        """Adiabatic index 1 + R/c_v of the ideal gas."""
        return 1.0 + self.R / self.c_v


def viscosity(v: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Viscosity mu_tilde*(1 + v**-alpha); exactly 2*mu_tilde when alpha = 0."""
    if params.alpha == 0.0:
        return np.full_like(v, 2.0 * params.mu_tilde)
    # exp/log form keeps fractional alpha well-defined for all v > 0
    return params.mu_tilde * (1.0 + np.exp(-params.alpha * np.log(v)))


def conductivity(theta: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Conductivity kappa_tilde*theta**beta."""
    return params.kappa_tilde * np.exp(params.beta * np.log(theta))


def pressure(v: np.ndarray, theta: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Ideal-gas pressure R*theta/v."""
    return params.R * theta / v


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


def branch_weight(alpha: float) -> float:
    """Weight of the time integral in the closed-form volume representation.

    1 when the viscosity actually depends on volume (alpha > 0), 1/2 when it
    is constant (alpha = 0).
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must satisfy alpha >= 0, got {alpha}")
    return 1.0 if alpha > 0.0 else 0.5
