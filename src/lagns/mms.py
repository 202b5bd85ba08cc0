"""Manufactured solutions: closed-form fields and their symbolic sources.

A case prescribes smooth v*(x,t) > 0, u*(x,t), theta*(x,t) > 0 and carries
the residuals of the three evolution equations as additive sources, derived
symbolically and compiled to numpy callables. Feeding the sources back into
the scheme makes the manufactured triple the exact solution, which turns
grid refinement into an order-of-accuracy measurement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import sympy as sp

from .constitutive import MaterialParams
from .grid import Grid

__all__ = ["X", "T", "MmsCase", "build_case", "manufactured_case", "mms_sources"]

X, T = sp.symbols("x t", real=True)

FieldFn = Callable[[np.ndarray, float], np.ndarray]

_CASE_NAMES = ("default", "constant")


@dataclass(frozen=True)
class MmsCase:
    """Compiled manufactured case: field, source, and stress evaluators."""

    name: str
    v: FieldFn
    u: FieldFn
    theta: FieldFn
    source_v: FieldFn
    source_u: FieldFn
    source_theta: FieldFn
    stress: FieldFn


def _compile(expr: sp.Expr) -> FieldFn:
    # sp.N folds the exact coefficients into Floats first; left exact, the
    # order in which the printed source adds its terms followed string
    # hashing, so the float sums differed between processes
    fn = sp.lambdify((X, T), sp.N(expr), "numpy")

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        out = np.asarray(fn(x, t), dtype=float)
        # constant expressions lambdify to scalars; match the x shape
        return np.broadcast_to(out, np.shape(x)).copy() if out.shape == () else out

    return evaluate


def build_case(
    name: str,
    v_expr: sp.Expr,
    u_expr: sp.Expr,
    theta_expr: sp.Expr,
    params: MaterialParams,
) -> MmsCase:
    """Derive sources for an arbitrary smooth manufactured triple.

    The sources are the defects of the continuity, momentum, and
    temperature equations evaluated on the triple; an exact solution yields
    zero sources.
    """
    mu = params.mu_tilde * (1 + v_expr ** (-sp.Float(params.alpha)))
    kappa = params.kappa_tilde * theta_expr ** sp.Float(params.beta)
    pressure = params.R * theta_expr / v_expr
    sigma = mu * sp.diff(u_expr, X) / v_expr - pressure

    s_v = sp.diff(v_expr, T) - sp.diff(u_expr, X)
    s_u = sp.diff(u_expr, T) - sp.diff(sigma, X)
    s_theta = (
        params.c_v * sp.diff(theta_expr, T)
        + pressure * sp.diff(u_expr, X)
        - sp.diff(kappa * sp.diff(theta_expr, X) / v_expr, X)
        - mu * sp.diff(u_expr, X) ** 2 / v_expr
    )

    fields = {
        "v": _compile(v_expr),
        "u": _compile(u_expr),
        "theta": _compile(theta_expr),
        "source_v": _compile(s_v),
        "source_u": _compile(s_u),
        "source_theta": _compile(s_theta),
        "stress": _compile(sigma),
    }
    return MmsCase(name=name, **fields)


@functools.lru_cache(maxsize=None)
def manufactured_case(name: str, params: MaterialParams) -> MmsCase:
    """Named manufactured cases.

    "default": decaying cosine/sine triple whose u* vanishes at both walls
    (exact no-slip data) and whose theta* has zero wall slope. "constant":
    the uniform steady state, an exact solution with zero sources.
    """
    if name == "default":
        v_expr = 1 + sp.Rational(1, 10) * sp.exp(-T) * sp.cos(sp.pi * X)
        u_expr = sp.Rational(1, 10) * sp.sin(sp.pi * T) * sp.sin(sp.pi * X)
        theta_expr = 1 + sp.Rational(1, 10) * sp.exp(-T) * sp.cos(sp.pi * X)
    elif name == "constant":
        v_expr = sp.Integer(1)
        u_expr = sp.Integer(0)
        theta_expr = sp.Integer(1)
    else:
        raise ValueError(
            f"unknown manufactured case {name!r}; expected one of {_CASE_NAMES}"
        )
    return build_case(name, v_expr, u_expr, theta_expr, params)


def mms_sources(
    case: MmsCase, grid: Grid, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources at one time level: (cells, nodes, cells) for (v, u, theta)."""
    return (
        case.source_v(grid.centers, t),
        case.source_u(grid.nodes, t),
        case.source_theta(grid.centers, t),
    )
