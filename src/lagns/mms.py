"""Manufactured solutions: one closed-form field family and its sources.

A case prescribes smooth v*(x,t) > 0, u*(x,t), theta*(x,t) > 0 and carries
the residuals of the three evolution equations as additive sources. Feeding
the sources back into the scheme makes the manufactured triple the exact
solution, which turns grid refinement into an order-of-accuracy measurement.

The named cases are one family with amplitude a:

    v* = theta* = 1 + a exp(-t) cos(pi x),    u* = a sin(pi t) sin(pi x)

u* vanishes at both walls (exact no-slip data) and theta* has zero wall
slope. "default" is a = 1/10; "constant" is a = 0, the uniform rest state,
an exact solution whose sources are zero; "deep" is a = 9/10, whose theta*
reaches down to 0.1, where kappa = kappa_tilde theta**beta degenerates.

jet_sources turns fields given as jets (value, first and second
x-derivative, t-derivative) into the sources by the chain rule. For the
family, each part of a jet is an x-only factor, cos(pi x) or sin(pi x),
times a coefficient made from three t-scalars. mms_sources keeps the
factors per grid and MmsCase.wall_stress keeps them at the walls.

One mms_sources call covers many times, one row per time: the coefficients
are computed with math one time at a time and stacked into columns, and the
arithmetic that follows runs once on the rows. math.exp and a vectorized
np.exp can differ in the last bit, so the t-scalars are never vectorized;
each row is then bit-identical to a call at its time alone.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .constitutive import MaterialParams, conductivity, pressure, stress, volume_terms
from .grid import Grid

__all__ = [
    "MmsCase", "check_case_name", "jet_sources", "manufactured_case", "mms_sources"
]

# the amplitude a of each named case of the family
_AMPLITUDES = {"default": 0.1, "constant": 0.0, "deep": 0.9}


def jet_sources(params: MaterialParams, v, u, theta):
    """The sources (s_v, s_u, s_theta) of fields given as jets, and their
    stress sigma.

    Each of v, u and theta is a jet (f, f_x, f_xx, f_t): the field and its
    derivatives at the same points, as arrays or scalars. With
    mu(v) = mu_tilde*(1 + v**-alpha), kappa(theta) = kappa_tilde*theta**beta
    and p = R theta / v,

        sigma   = mu u_x / v - p                  (constitutive.stress)
        s_v     = v_t - u_x
        s_u     = u_t - sigma_x
        s_theta = c_v theta_t + p u_x - q_x - mu u_x**2 / v
                = c_v theta_t - sigma u_x - q_x,   q = kappa theta_x / v,

    where the chain rule gives

        sigma_x = (mu' v_x u_x + mu u_xx - R theta_x - sigma v_x) / v
        q_x     = (kappa' theta_x**2 + kappa theta_xx - q v_x) / v.
    """
    v, v_x, v_xx, v_t = v
    u, u_x, u_xx, u_t = u
    theta, theta_x, theta_xx, theta_t = theta
    power, mu = volume_terms(v, params)
    mu_prime = -params.alpha * params.mu_tilde * power / v
    kappa = conductivity(theta, params)
    kappa_prime = params.beta * kappa / theta
    sigma = mu * u_x / v - pressure(v, theta, params)
    sigma_x = (mu_prime * v_x * u_x + mu * u_xx - params.R * theta_x - sigma * v_x) / v
    q = kappa * theta_x / v
    q_x = (kappa_prime * theta_x**2 + kappa * theta_xx - q * v_x) / v
    s_v = v_t - u_x
    s_u = u_t - sigma_x
    s_theta = params.c_v * theta_t - sigma * u_x - q_x
    return s_v, s_u, s_theta, sigma


def _factors(x) -> tuple[np.ndarray, np.ndarray]:
    """The x-only factors cos(pi x) and sin(pi x) of the family."""
    return np.cos(np.pi * x), np.sin(np.pi * x)


@dataclass(frozen=True)
class MmsCase:
    """A named case of the family: its fields and their sources."""

    name: str
    amplitude: float
    params: MaterialParams
    # the factors at each grid's centers then nodes, kept by mms_sources
    _on_grid: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def v(self, x: np.ndarray, t: float) -> np.ndarray:
        return 1.0 + self.amplitude * math.exp(-t) * np.cos(np.pi * x)

    def u(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.amplitude * math.sin(math.pi * t) * np.sin(np.pi * x)

    def theta(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.v(x, t)

    def sources(self, x: np.ndarray, t: float):
        """(s_v, s_u, s_theta, sigma) at any points x."""
        return self._sources(_factors(x), self._coefficients(t))

    def wall_stress(self, t: float) -> np.ndarray:
        """The stress at x = 0 and x = 1, from factors evaluated once."""
        v, u = self._jets(self._at_walls, self._coefficients(t))
        return stress(v[0], v[0], u[1], self.params)

    @functools.cached_property
    def _at_walls(self) -> tuple[np.ndarray, np.ndarray]:
        return _factors(np.array([0.0, 1.0]))

    def _sources(self, factors: tuple[np.ndarray, np.ndarray], coefficients):
        v, u = self._jets(factors, coefficients)
        return jet_sources(self.params, v, u, v)

    def _coefficients(self, t: float) -> tuple[float, ...]:
        """The coefficients at t of the factors in the jets of v* and of
        u*, in the order _jets reads them, from the t-scalars decay, swing
        and the u_t factor."""
        decay = self.amplitude * math.exp(-t)
        swing = self.amplitude * math.sin(math.pi * t)
        return (
            decay,
            -math.pi * decay,
            -math.pi**2 * decay,
            -decay,
            swing,
            math.pi * swing,
            -math.pi**2 * swing,
            math.pi * self.amplitude * math.cos(math.pi * t),
        )

    @staticmethod
    def _jets(factors: tuple[np.ndarray, np.ndarray], coefficients):
        """The jets of v* (which are theta*'s) and of u* at the points of
        the factors. The coefficients are floats, or columns with a row per
        time that multiply the factor rows."""
        cos, sin = factors
        c = coefficients
        return (
            (1.0 + c[0] * cos, c[1] * sin, c[2] * cos, c[3] * cos),
            (c[4] * sin, c[5] * cos, c[6] * sin, c[7] * sin),
        )


def check_case_name(name: object) -> None:
    """Raise ValueError unless name is a str naming a case of the family; a
    name of another type is never looked up, so it cannot be unhashable."""
    if not isinstance(name, str) or name not in _AMPLITUDES:
        raise ValueError(
            f"unknown mms case {name!r}; expected one of {tuple(_AMPLITUDES)}"
        )


def manufactured_case(name: str, params: MaterialParams) -> MmsCase:
    """The named case of the family (see the module docstring)."""
    check_case_name(name)
    return MmsCase(name, _AMPLITUDES[name], params)


def mms_sources(
    case: MmsCase, grid: Grid, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources at each of the times: (cells, nodes, cells) for (v, u,
    theta), one row per time.

    One evaluation covers every time, and the cell centers followed by the
    nodes; their x-only factors are evaluated on a grid's first use and
    kept. Each row has the bits of a call at its time alone.
    """
    factors = case._on_grid.get(grid)
    if factors is None:
        points = np.concatenate((grid.centers, grid.nodes))
        factors = case._on_grid[grid] = _factors(points)
    columns = np.array([case._coefficients(t) for t in times]).T[..., None]
    s_v, s_u, s_theta, _ = case._sources(factors, columns)
    n = grid.n_cells
    return s_v[:, :n], s_u[:, n:], s_theta[:, :n]
