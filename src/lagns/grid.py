"""Staggered mass-coordinate grid and the evolved state.

Layout on the fixed interval (0, 1) of Lagrangian mass coordinate x::

    node:   0       1       2      ...      N        velocity u
            |---+---|---+---|---+-- ... ---+---|
    cell:       0       1       2  ...   N-1         volume v, temperature theta

Cells have uniform width dx = 1/N; cell centers sit at (i + 1/2)*dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "State",
    "DerivedFields",
    "Extrema",
    "scalar_operand",
    "positive_extrema",
    "state_extrema",
    "node_weights",
    "cell_integral",
    "du_dx_cells",
    "total_energy",
    "cumulative_u_integral",
    "wall_values",
]


def scalar_operand(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, the form in which a per-run
    scalar enters a ufunc: numpy 2 converts a Python float operand anew on
    every call, while a 0-d array is used as it is, to the same bits. It is
    read-only because every state of a run shares it."""
    operand = np.array(value, dtype=np.float64)
    operand.flags.writeable = False
    return operand


@dataclass(frozen=True)
class Grid:
    """Uniform staggered grid with n_cells cells and n_cells + 1 nodes.

    dx_0d is dx as a scalar_operand, made once per grid."""

    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        object.__setattr__(self, "dx_0d", scalar_operand(self.dx))

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dx


@dataclass
class DerivedFields:
    """Cell fields of a state that the material laws derive from it: the
    strain rate u_x, the volume power v**-alpha, the viscosity mu(v) and the
    pressure p = R theta / v. scheme.step makes them for the states it
    returns and scheme.with_derived for a given state; they are never
    updated in place."""

    u_x: np.ndarray
    v_power: np.ndarray
    mu: np.ndarray
    p: np.ndarray


class Extrema(NamedTuple):
    """The least and largest values of a state's v and theta."""

    v_min: float
    v_max: float
    theta_min: float
    theta_max: float


def positive_extrema(
    f: np.ndarray, message: str, error: type[Exception] = ValueError
) -> tuple[float, float]:
    """(min f, max f) when every value of f lies in (0, inf); otherwise
    raise error(message). A NaN anywhere fails. This is the one positivity
    rule of a state: State.validate applies it to initial data and the
    gates of scheme.step to every stepped state, which keep the extremes."""
    # f[f.argmin()] is the value f.min() returns, or a NaN when f holds
    # one, for a third of the cost at N = 257: numpy 2 sets up every
    # ufunc.reduce through its generic machinery; four calls per step
    low, high = float(f[f.argmin()]), float(f[f.argmax()])
    if not (0.0 < low and high < math.inf):
        raise error(message)
    return low, high


def state_extrema(v: np.ndarray, theta: np.ndarray) -> Extrema:
    """The Extrema of a state's v and theta, which must be positive and
    finite; the ValueError names the field that is not."""
    return Extrema(
        *positive_extrema(v, "v must be positive and finite"),
        *positive_extrema(theta, "theta must be positive and finite"),
    )


@dataclass
class State:
    """Evolved fields at one time level: u on nodes, v and theta on cells.

    In every state a run holds, v and theta are positive and finite and u
    is finite: validate checks initial data, and the gates of scheme.step
    check every stepped state.

    derived holds the state's DerivedFields, and extrema the Extrema of its
    v and theta, or None for a state that does not carry them: initial data
    before scheme.with_derived, a copy, and the final state of a run's
    result. Both describe the arrays as they were made, and a state is
    never changed in place.
    """

    t: float
    v: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    derived: DerivedFields | None = None
    extrema: Extrema | None = None

    def copy(self) -> "State":
        """A bare state (no derived fields or extrema) with copies of the
        arrays, free to be written in place; scheme.with_derived measures
        it again."""
        return State(self.t, self.v.copy(), self.u.copy(), self.theta.copy())

    def validate(self, grid: Grid) -> None:
        """Check shapes against the grid, that u is finite, and that v and
        theta are positive and finite."""
        n_cells, n_nodes = grid.n_cells, grid.n_nodes
        for name, n in (("v", n_cells), ("theta", n_cells), ("u", n_nodes)):
            shape = getattr(self, name).shape
            if shape != (n,):
                raise ValueError(f"{name} has shape {shape}, expected ({n},)")
        if not np.isfinite(self.u).all():
            raise ValueError("u must be finite")
        state_extrema(self.v, self.theta)


def node_weights(grid: Grid) -> np.ndarray:
    """Trapezoid quadrature weights on nodes: dx everywhere, dx/2 at the ends."""
    w = np.full(grid.n_nodes, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def cell_integral(f: np.ndarray, grid: Grid) -> float:
    """Midpoint-rule integral of a cell-centered field over (0, 1)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_cells,):
        raise ValueError(f"field has shape {f.shape}, expected ({grid.n_cells},)")
    return float(grid.dx * f.sum())


def du_dx_cells(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell-centered strain rate (u[i+1] - u[i]) / dx."""
    if u.shape != (grid.n_nodes,):
        raise ValueError(f"u has shape {u.shape}, expected ({grid.n_nodes},)")
    return (u[1:] - u[:-1]) / grid.dx_0d


def total_energy(state: State, grid: Grid, c_v: float) -> float:
    """Total energy c_v*int(theta) + (1/2)*int(u^2).

    Kinetic part uses trapezoid node weights; this is the quadrature under
    which the semi-discrete scheme conserves the sum exactly.
    """
    kinetic = 0.5 * float(node_weights(grid) @ (state.u * state.u))
    return c_v * cell_integral(state.theta, grid) + kinetic


def cumulative_u_integral(
    u: np.ndarray, u0: np.ndarray | float, grid: Grid
) -> np.ndarray:
    """Trapezoid antiderivative of (u - u0) from 0 to each node.

    The integral runs along the last axis, so u may hold one state per row.
    u0 may be a scalar; u0 = 0.0 integrates u itself, bit for bit.
    """
    d = np.subtract(u, u0, dtype=float)
    if d.shape[-1:] != (grid.n_nodes,):
        raise ValueError(f"u has shape {np.shape(u)}, expected (..., {grid.n_nodes})")
    step = d[..., :-1] + d[..., 1:]
    step *= 0.5 * grid.dx
    out = np.empty(d.shape)
    out[..., 0] = 0.0
    np.cumsum(step, axis=-1, out=out[..., 1:])
    return out


def wall_values(f: np.ndarray) -> tuple[float, float]:
    """Two-cell linear extrapolation of a cell-centered field to both walls.

    1.5*f[0] - 0.5*f[1] at x = 0 and its mirror at x = 1; second-order in dx.
    """
    return 1.5 * f[0] - 0.5 * f[1], 1.5 * f[-1] - 0.5 * f[-2]
