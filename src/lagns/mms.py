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
x-derivative, t-derivative) into the sources by the chain rule, in two
halves: s_v and s_theta (_cell_sources), which need no mu' or sigma_x, and
s_u and sigma (_node_sources), which need no kappa, kappa', q or q_x. For
the family, each part of a jet is an x-only factor, cos(pi x) or sin(pi x),
times a coefficient made from three t-scalars (_jet_part). A step reads
s_v and s_theta at the N cell centers and s_u at the N + 1 nodes, so
mms_sources evaluates the cell half at the centers and the node half at
the nodes, each from only the parts of the jets it reads, with the factors
evaluated on each call. MmsCase.v and MmsCase.u form only their value
part, and MmsCase.wall_stress, called once per step attempt of a forced
stress-free run, only v* and u*_x at the two walls. Every path runs the
same formulas, so a value has the same bits whichever computed it.

One mms_sources call covers many times, one row per time: the coefficients
are computed with math one time at a time and stacked into columns, and the
arithmetic that follows runs once on the rows. math.exp and a vectorized
np.exp can differ in the last bit, so the t-scalars are never vectorized;
each row is then bit-identical to a call at its time alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constitutive import MaterialParams, conductivity, pressure, stress, volume_terms
from .grid import Grid

__all__ = ["MmsCase", "jet_sources", "manufactured_case", "mms_sources"]

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

    s_v and s_theta come from _cell_sources and s_u and sigma from
    _node_sources, each with only the terms it needs.
    """
    v, v_x, _, v_t = v
    _, u_x, u_xx, u_t = u
    theta, theta_x, theta_xx, theta_t = theta
    s_v, s_theta = _cell_sources(
        params, v, v_x, v_t, u_x, theta, theta_x, theta_xx, theta_t
    )
    s_u, sigma = _node_sources(params, v, v_x, u_x, u_xx, u_t, theta, theta_x)
    return s_v, s_u, s_theta, sigma


def _cell_sources(params, v, v_x, v_t, u_x, theta, theta_x, theta_xx, theta_t):
    """(s_v, s_theta) of jet_sources, from the parts of the jets they read:
    no mu' or sigma_x."""
    kappa = conductivity(theta, params)
    kappa_prime = params.beta * kappa / theta
    sigma = stress(v, theta, u_x, params)
    q = kappa * theta_x / v
    q_x = (kappa_prime * theta_x**2 + kappa * theta_xx - q * v_x) / v
    return v_t - u_x, params.c_v * theta_t - sigma * u_x - q_x


def _node_sources(params, v, v_x, u_x, u_xx, u_t, theta, theta_x):
    """(s_u, sigma) of jet_sources, from the parts of the jets they read: no
    kappa, kappa', q or q_x. sigma has the bits of constitutive.stress."""
    power, mu = volume_terms(v, params)
    mu_prime = -params.alpha * params.mu_tilde * power / v
    sigma = mu * u_x / v - pressure(v, theta, params)
    sigma_x = (mu_prime * v_x * u_x + mu * u_xx - params.R * theta_x - sigma * v_x) / v
    return u_t - sigma_x, sigma


# part k of the family's jets, (v, v_x, v_xx, v_t) of v* (theta*'s) and then
# (u, u_x, u_xx, u_t) of u*, is coefficient k of MmsCase._coefficients times
# sin(pi x) when k is in _ON_SIN and cos(pi x) otherwise; v* itself adds 1
_ON_SIN = frozenset((1, 4, 6, 7))


def _factors(x):
    """The x-only factors cos(pi x) and sin(pi x) of the jets at x."""
    pi_x = np.pi * x
    return np.cos(pi_x), np.sin(pi_x)


def _jet_part(c, k, cos, sin):
    """Part k of the family's jets from the coefficients c (floats, or
    columns with a row per time that multiply the factor rows) and the
    factors; a factor the part does not read may be None."""
    if k == 0:
        return 1.0 + c[0] * cos
    return c[k] * (sin if k in _ON_SIN else cos)


@dataclass(frozen=True)
class MmsCase:
    """A named case of the family: its fields and their sources."""

    name: str
    amplitude: float
    params: MaterialParams

    def v(self, x: np.ndarray, t: float) -> np.ndarray:
        return _jet_part(self._coefficients(t), 0, np.cos(np.pi * x), None)

    def u(self, x: np.ndarray, t: float) -> np.ndarray:
        return _jet_part(self._coefficients(t), 4, None, np.sin(np.pi * x))

    def theta(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.v(x, t)

    def sources(self, x: np.ndarray, t: float):
        """(s_v, s_u, s_theta, sigma) at any points x."""
        c, (cos, sin) = self._coefficients(t), _factors(x)
        parts = [_jet_part(c, k, cos, sin) for k in range(8)]
        return jet_sources(self.params, parts[:4], parts[4:], parts[:4])

    def wall_stress(self, t: float) -> np.ndarray:
        """The stress at x = 0 and x = 1."""
        c, cos = self._coefficients(t), np.cos(np.pi * np.array([0.0, 1.0]))
        v = _jet_part(c, 0, cos, None)
        return stress(v, v, _jet_part(c, 5, cos, None), self.params)

    def _coefficients(self, t: float) -> tuple[float, ...]:
        """The coefficients at t of the factors in the jets of v* and of
        u*, in the order of their parts (see _jet_part), from the t-scalars
        decay, swing and the u_t factor."""
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


def manufactured_case(name: str, params: MaterialParams) -> MmsCase:
    """The named case of the family (see the module docstring); the one
    rule for case names. ValueError unless name is a str naming a case: a
    name of another type is never looked up, so it cannot be unhashable."""
    if not isinstance(name, str) or name not in _AMPLITUDES:
        raise ValueError(
            f"unknown mms case {name!r}; expected one of {tuple(_AMPLITUDES)}"
        )
    return MmsCase(name, _AMPLITUDES[name], params)


def mms_sources(
    case: MmsCase, grid: Grid, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources at each of the times: (cells, nodes, cells) for (v, u,
    theta), one row per time.

    One evaluation covers every time: s_v and s_theta at the cell centers,
    s_u at the nodes, each from only the parts of the jets it reads. Each
    row has the bits of a call at its time alone.
    """
    c = np.array([case._coefficients(t) for t in times]).T[..., None]
    # theta*'s jet is v*'s
    cos, sin = _factors(grid.centers)
    v, v_x, v_xx, v_t, u_x = (_jet_part(c, k, cos, sin) for k in (0, 1, 2, 3, 5))
    s_v, s_theta = _cell_sources(case.params, v, v_x, v_t, u_x, v, v_x, v_xx, v_t)
    cos, sin = _factors(grid.nodes)
    v, v_x, u_x, u_xx, u_t = (_jet_part(c, k, cos, sin) for k in (0, 1, 5, 6, 7))
    s_u, _ = _node_sources(case.params, v, v_x, u_x, u_xx, u_t, v, v_x)
    return s_v, s_u, s_theta
