"""Manufactured solutions: closed-form fields and their symbolic sources.

A case prescribes smooth v*(x,t) > 0, u*(x,t), theta*(x,t) > 0 and carries
the residuals of the three evolution equations as additive sources, derived
symbolically and compiled to numpy callables. Feeding the sources back into
the scheme makes the manufactured triple the exact solution, which turns
grid refinement into an order-of-accuracy measurement.

The sources are compiled by location, one program per set of points: the
cell centers (s_v and s_theta), the nodes (s_u) and the two walls (the
stress that stress-free walls impose; the case's stress at any x runs the
same program). Each program runs sympy's common-subexpression elimination
once over its expressions. What depends on x alone (the cos(pi x) and
sin(pi x) factors) is evaluated once per grid, or once per case at the
walls, and kept with the case; a call at t evaluates only the rest. Every
expression is folded with sp.N first: left exact, the order in which the
printed code adds its terms followed string hashing, so the float sums
differed between processes.

sympy is imported on the first case build (build_case or
manufactured_case) or the first use of the symbols X and T, not with the
module: the case names, MmsCase and mms_sources run without it, so a
physical run never loads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .constitutive import MaterialParams
from .grid import Grid

if TYPE_CHECKING:
    import sympy as sp

__all__ = ["X", "T", "MmsCase", "build_case", "manufactured_case", "mms_sources"]

FieldFn = Callable[[np.ndarray, float], np.ndarray]

_CASE_NAMES = ("default", "constant")


@functools.cache
def _symbols() -> tuple[sp.Symbol, sp.Symbol]:
    """The symbols x and t of every case, made on first use."""
    import sympy as sp

    return sp.symbols("x t", real=True)


def __getattr__(name: str):
    # X and T are made with sympy, so the module resolves them on access
    if name in ("X", "T"):
        return _symbols()["XT".index(name)]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _shaped(value, shape: tuple[int, ...]) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    # constant and t-only expressions evaluate to scalars; match the x shape
    return np.broadcast_to(out, shape).copy() if out.shape == () else out


def _compile(expr: sp.Expr) -> FieldFn:
    import sympy as sp

    X, T = _symbols()
    fn = sp.lambdify((X, T), sp.N(expr), "numpy")

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        return _shaped(fn(x, t), np.shape(x))

    return evaluate


def _hoist_x_only(reps, outs):
    """Split the output of sp.cse into what depends on x alone and the rest.

    Returns (hoisted, per_call, outs). hoisted holds (symbol, expression)
    pairs in x alone, in evaluation order: the x-only replacements of the
    elimination, then each largest x-only subexpression left inside the
    other replacements or the outputs, which per_call and outs now name by
    its symbol.
    """
    import sympy as sp

    X, _ = _symbols()
    x_only = {X}
    hoisted, per_call = [], []
    for sym, expr in reps:
        if expr.free_symbols <= x_only:
            hoisted.append((sym, expr))
            x_only.add(sym)
        else:
            per_call.append((sym, expr))
    named = x_only - {X}
    lifted: dict[sp.Expr, sp.Symbol] = {}
    names = sp.numbered_symbols("h")

    def lift(expr: sp.Expr) -> sp.Expr:
        free = expr.free_symbols
        if free and free <= x_only and expr not in named:
            if expr not in lifted:
                lifted[expr] = next(names)
            return lifted[expr]
        args = tuple(lift(arg) for arg in expr.args)
        return expr.func(*args) if args != expr.args else expr

    per_call = [(sym, lift(expr)) for sym, expr in per_call]
    outs = [lift(expr) for expr in outs]
    hoisted += [(sym, expr) for expr, sym in lifted.items()]
    return hoisted, per_call, outs


class _Program:
    """Expressions compiled as one program over a set of points.

    at(x) evaluates the x-only factors on x once and returns the program at
    those points as a function of t, which evaluates only the rest.
    """

    def __init__(self, exprs: list[sp.Expr]) -> None:
        import sympy as sp

        X, T = _symbols()
        self.exprs = tuple(sp.N(expr) for expr in exprs)
        reps, outs = sp.cse(self.exprs)
        hoisted, per_call, outs = _hoist_x_only(reps, outs)
        factors = [sym for sym, _ in hoisted]
        self._factors = sp.lambdify(
            (X,), factors, "numpy", cse=lambda _: (hoisted, factors)
        )
        self._outputs = sp.lambdify(
            (T, *factors), outs, "numpy", cse=lambda _: (per_call, outs)
        )
        # an output reduced to a bare symbol is a kept factor or another
        # output's array; it is copied so that no caller writes into those
        self._copy = tuple(out.is_Symbol for out in outs)

    def __call__(self, x: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
        """The expressions at any points x, their factors evaluated now."""
        return self.at(x)(t)

    def at(self, x: np.ndarray) -> Callable[[float], tuple[np.ndarray, ...]]:
        """The expressions at the fixed points x as a function of t."""
        return functools.partial(self._run, self._factors(x), np.shape(x))

    def _run(
        self, factors: list, shape: tuple[int, ...], t: float
    ) -> tuple[np.ndarray, ...]:
        return tuple(
            _shaped(np.array(value) if copy else value, shape)
            for value, copy in zip(self._outputs(t, *factors), self._copy)
        )


@dataclass(frozen=True)
class MmsCase:
    """Compiled manufactured case: fields and the source programs."""

    name: str
    v: FieldFn
    u: FieldFn
    theta: FieldFn
    cells: _Program  # (s_v, s_theta), sampled at the cell centers
    nodes: _Program  # (s_u,), sampled at the nodes
    walls: _Program  # (stress,), sampled at x = 0 and x = 1
    # the cell and node programs at each grid's points, kept by mms_sources
    _on_grid: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def stress(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.walls(x, t)[0]

    def source_v(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.cells(x, t)[0]

    def source_u(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.nodes(x, t)[0]

    def source_theta(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.cells(x, t)[1]

    def wall_stress(self, t: float) -> np.ndarray:
        """The stress at x = 0 and x = 1, from factors evaluated once."""
        return self._at_walls(t)[0]

    @functools.cached_property
    def _at_walls(self) -> Callable[[float], tuple[np.ndarray, ...]]:
        return self.walls.at(np.array([0.0, 1.0]))


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
    import sympy as sp

    X, T = _symbols()
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

    return MmsCase(
        name=name,
        v=_compile(v_expr),
        u=_compile(u_expr),
        theta=_compile(theta_expr),
        cells=_Program([s_v, s_theta]),
        nodes=_Program([s_u]),
        walls=_Program([sigma]),
    )


@functools.lru_cache(maxsize=None)
def manufactured_case(name: str, params: MaterialParams) -> MmsCase:
    """Named manufactured cases.

    "default": decaying cosine/sine triple whose u* vanishes at both walls
    (exact no-slip data) and whose theta* has zero wall slope. "constant":
    the uniform steady state, an exact solution with zero sources.
    """
    import sympy as sp

    X, T = _symbols()
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
    """Sources at one time level: (cells, nodes, cells) for (v, u, theta).

    The x-only factors of a grid are evaluated on its first use and kept.
    """
    kept = case._on_grid.get(grid)
    if kept is None:
        kept = case._on_grid[grid] = (
            case.cells.at(grid.centers),
            case.nodes.at(grid.nodes),
        )
    cells, nodes = kept
    s_v, s_theta = cells(t)
    (s_u,) = nodes(t)
    return s_v, s_u, s_theta
