"""Staggered mass-coordinate grid and the evolved state.

Layout on the fixed interval (0, 1) of Lagrangian mass coordinate x::

    node:   0       1       2      ...      N        velocity u
            |---+---|---+---|---+-- ... ---+---|
    cell:       0       1       2  ...   N-1         volume v, temperature theta

Cells have uniform width dx = 1/N; cell centers sit at (i + 1/2)*dx.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Grid",
    "State",
    "node_weights",
    "cell_integral",
    "du_dx_cells",
    "grad_l2_sq",
    "total_energy",
    "cumulative_u_integral",
    "wall_values",
]


@dataclass(frozen=True)
class Grid:
    """Uniform staggered grid with n_cells cells and n_cells + 1 nodes."""

    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")

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
class State:
    """Evolved fields at one time level: u on nodes, v and theta on cells."""

    t: float
    v: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def copy(self) -> "State":
        return replace(
            self, v=self.v.copy(), u=self.u.copy(), theta=self.theta.copy()
        )

    def validate(self, grid: Grid) -> None:
        """Check shapes against the grid and positivity of v and theta."""
        if self.v.shape != (grid.n_cells,):
            raise ValueError(f"v has shape {self.v.shape}, expected ({grid.n_cells},)")
        if self.theta.shape != (grid.n_cells,):
            raise ValueError(
                f"theta has shape {self.theta.shape}, expected ({grid.n_cells},)"
            )
        if self.u.shape != (grid.n_nodes,):
            raise ValueError(f"u has shape {self.u.shape}, expected ({grid.n_nodes},)")
        if not np.all(np.isfinite(self.v)) or not np.all(np.isfinite(self.u)):
            raise ValueError("state contains non-finite values")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("state contains non-finite values")
        if np.any(self.v <= 0.0):
            raise ValueError("v must be strictly positive")
        if np.any(self.theta <= 0.0):
            raise ValueError("theta must be strictly positive")


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
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_nodes,):
        raise ValueError(f"u has shape {u.shape}, expected ({grid.n_nodes},)")
    return np.diff(u) / grid.dx


def grad_l2_sq(f: np.ndarray, grid: Grid) -> float:
    """Squared L2 norm of the discrete gradient of a cell-centered field.

    Uses interior-node differences only: dx * sum_i ((f[i+1] - f[i]) / dx)**2.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_cells,):
        raise ValueError(f"field has shape {f.shape}, expected ({grid.n_cells},)")
    d = np.diff(f)
    return float(d @ d / grid.dx)


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

    u0 may be a scalar; u0 = 0.0 integrates u itself, bit for bit.
    """
    d = np.asarray(u, dtype=float) - np.asarray(u0, dtype=float)
    if d.shape != (grid.n_nodes,):
        raise ValueError(f"u has shape {np.shape(u)}, expected ({grid.n_nodes},)")
    out = np.empty(grid.n_nodes)
    out[0] = 0.0
    np.cumsum(0.5 * grid.dx * (d[:-1] + d[1:]), out=out[1:])
    return out


def wall_values(f: np.ndarray) -> tuple[float, float]:
    """Two-cell linear extrapolation of a cell-centered field to both walls.

    1.5*f[0] - 0.5*f[1] at x = 0 and its mirror at x = 1; second-order in dx.
    """
    return 1.5 * f[0] - 0.5 * f[1], 1.5 * f[-1] - 0.5 * f[-2]
