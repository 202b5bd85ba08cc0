"""Semi-implicit time advancement of the 1-D viscous gas in mass coordinates.

Evolved system, per unit mass on the fixed interval (0, 1):

    v_t = u_x
    u_t = sigma_x,            sigma = mu(v) u_x / v - R theta / v
    c_v theta_t + (R theta / v) u_x = ((kappa(theta) theta_x) / v)_x + mu(v) u_x^2 / v

Each step advances u, then v, then theta. The diffusive parts of the
momentum and temperature updates are backward Euler, pressure coupling is
explicit, and the compression-work term is implicit in theta. The
conductivity is linearly implicit: it is evaluated once, at the
temperature extrapolated linearly to the end of the step through the last
two accepted states, so the temperature update is one linear solve
(Akrivis & Crouzeix, Math. Comp. 73, 2004).
Both systems are symmetric positive-definite tridiagonals, solved through
their LDL^T factor by LAPACK ptsv: the dptsv of the LAPACK that numpy
itself links (the scipy_dptsv_64_ symbol of numpy's OpenBLAS, ILP64),
bound through ctypes once, at import, so lagns needs no other library.
Under a numpy whose LAPACK lacks that symbol, the import raises
ImportError.

Each thread keeps, for each system size it solves, one set of buffers:
the diagonal, the off-diagonal and the right-hand side, which ptsv
overwrites with the solution. ptsv's seven arguments are bound to them
once, when the buffers are made. momentum_step and temperature_step build
their bands and right-hand sides straight into those buffers, so a solve
is one prebound call and one copy of the solution out; tridiagonal_solve
copies its inputs into them.

A step whose v or theta would not be positive and finite, or whose
momentum or temperature matrix is not positive definite, is rejected so
the driver can retry with a halved dt; the rejection names the field or
the system that refused it. The step-size limits cfl and dt_max arrive
as plain floats; Scenario is where they are range-checked.

A manufactured step reads its sources as a ready-made forcing, made by
forcing: dt * s_v, dt * s_u with (0.5 * dt) * s_u at the two walls, and
(dt / c_v) * s_theta. Each sub-step only adds its entry. Each entry is the
product a sub-step scaling its source itself would form, with the same
operands: a float64 source entry times dt, 0.5 * dt or dt / c_v, each
rounded once as a Python float. An elementwise product does not depend on
the shape of the array it is taken over, so the row of a forcing made for
many steps in one call has the bits of one made for its step alone. A
forcing holds only for the dt it was made at.

Each state that step returns carries its derived fields (grid.DerivedFields),
made once where the state is made: the strain rate u_x for continuity and
temperature, the volume power v**-alpha and mu(v) for temperature (both
from constitutive.volume_terms), and the pressure last. The next momentum
update, each retry of it at a halved dt, and the instruments of
lagns.verify read them instead of evaluating the laws again. with_derived
gives initial data the same fields.

Each such state also carries the extrema of its v and theta
(grid.Extrema). They are made where the state is admitted: the gates of
continuity_step and temperature_step reduce v' and theta' to their min
and max to check them (grid.positive_extrema) and return both, and
with_derived finds them for a given state. Three readers take them
instead of reducing the arrays again: dt_control, which skips the
sound-speed pass when the cap binds, and the bound tracker (lagns.verify)
and the output rows (lagns.driver), which copy them.
"""

from __future__ import annotations

import ctypes
import enum
import math
import threading
from dataclasses import replace

import numpy as np
from numpy.linalg import _umath_linalg

from .constitutive import (
    MaterialParams,
    conductivity,
    pressure,
    sound_speed,
    stress,  # noqa: F401  (bench/spans.py traces lagns.scheme.stress)
    viscosity,  # noqa: F401  (bench/spans.py traces lagns.scheme.viscosity)
    volume_terms,
)
from .grid import (
    DerivedFields,
    Extrema,
    Grid,
    State,
    du_dx_cells,
    positive_extrema,
    scalar_operand,
    state_extrema,
)

__all__ = [
    "BoundaryKind",
    "StepRejected",
    "tridiagonal_solve",
    "dt_control",
    "forcing",
    "momentum_step",
    "continuity_step",
    "temperature_step",
    "step",
    "with_derived",
]

try:
    # numpy's linalg extension is linked to its LAPACK, so dlsym on it finds
    # that library's symbols. PyDLL keeps the interpreter lock held during a
    # solve, as the f2py wrappers do.
    _dptsv = ctypes.PyDLL(_umath_linalg.__file__).scipy_dptsv_64_
except (OSError, AttributeError) as exc:
    raise ImportError(
        "lagns needs a numpy whose LAPACK exports scipy_dptsv_64_ "
        "(the ILP64 dptsv of numpy's OpenBLAS)"
    ) from exc
_dptsv.restype = None
# argtypes stays undeclared: every call passes the arguments _System binds,
# and checking them would add about 1.3 us to a 4 us call at n = 257
_NRHS = ctypes.c_int64(1)  # read, never written, by dptsv
_ONE = scalar_operand(1.0)


def _double_ref(array: np.ndarray):
    """A Fortran double* to the first entry of a contiguous, writable array."""
    return ctypes.byref(ctypes.c_double.from_buffer(array))


class _System:
    """The reused buffers of one system size n, and ptsv's arguments bound
    to them: diag (n), off (n - 1) and x, the right-hand side that ptsv
    overwrites with the solution. The arguments keep the buffers alive.
    diag_inner and x_inner view the rows 1 to n - 2 of diag and x, and
    diag_head and diag_tail all of diag but its last and its first entry,
    made once so that a step does not slice them again. scale is a 0-d
    buffer into which a step writes each dt-dependent scalar just before a
    ufunc reads it: as an operand it costs about 0.15 us less than a Python
    float (see grid.scalar_operand), to the same bits."""

    def __init__(self, n: int):
        self.diag = np.empty(n)
        # ptsv never reads off when n = 1, but a Fortran pointer needs an
        # entry to point at
        bands = np.empty(max(n - 1, 1))
        self.off = bands[: n - 1]
        self.x = np.empty(n)
        self.diag_inner, self.x_inner = self.diag[1:-1], self.x[1:-1]
        self.diag_head, self.diag_tail = self.diag[:-1], self.diag[1:]
        self.info = ctypes.c_int64(0)
        self.scale = np.empty(())
        size = ctypes.c_int64(n)
        self.args = (
            ctypes.byref(size), ctypes.byref(_NRHS), _double_ref(self.diag),
            _double_ref(bands), _double_ref(self.x), ctypes.byref(size),
            ctypes.byref(self.info),
        )


class _Systems(threading.local):
    """Each thread's _System per size, so threads never share buffers. A
    step solves at two sizes; the dict keeps the last _KEPT sizes, so a
    run reuses its buffers while a caller solving at many sizes does not
    grow it without bound."""

    _KEPT = 4

    def __init__(self):
        self.by_size: dict[int, _System] = {}

    def get(self, n: int) -> _System:
        system = self.by_size.get(n)
        if system is None:
            if len(self.by_size) >= self._KEPT:
                del self.by_size[next(iter(self.by_size))]
            system = self.by_size[n] = _System(n)
        return system


_SYSTEMS = _Systems()


def _solve(system: _System, name: str) -> np.ndarray:
    """Solve the system whose bands and right-hand side are in system's
    buffers, and return a copy of the solution: the buffers are reused by
    the next solve at this size, and a returned state keeps its arrays."""
    _dptsv(*system.args)
    info = system.info.value
    if info > 0:
        raise StepRejected(f"{name} not positive definite (leading minor {info})")
    if info < 0:
        raise ValueError(f"ptsv rejected argument {-info}")
    return system.x.copy()


class BoundaryKind(enum.Enum):
    """Boundary family; both variants keep the ends thermally insulated."""

    STRESS_FREE = "stress_free"
    NO_SLIP = "no_slip"


class StepRejected(Exception):
    """Raised by a sub-step that cannot be taken at this dt: its system is
    not positive definite, or its v or theta would not be positive and finite."""


def tridiagonal_solve(
    off: np.ndarray, diag: np.ndarray, rhs: np.ndarray, system: str = "system"
) -> np.ndarray:
    """Solve a symmetric positive-definite tridiagonal system.

    off[i] couples rows i and i+1 both ways. Solved by LAPACK ptsv (numpy's
    own; see the module docstring), which factors the bands and solves in
    place. Each input is first copied into this thread's buffers for its
    size, the ones the step's own solves use: none is overwritten, and
    strided views, lists and integer arrays are accepted. The result is a
    new array. A matrix that is not positive definite is a StepRejected,
    whose message starts with the name of the system, so a step that
    builds one is retried with a smaller dt and an abort says which solve
    failed.
    """
    shape = np.shape(diag)
    n = shape[0] if len(shape) == 1 else 0
    if n == 0 or np.shape(off) != (n - 1,) or np.shape(rhs) != (n,):
        raise ValueError(
            f"band shapes {np.shape(off)}/{shape} and rhs {np.shape(rhs)} are "
            "inconsistent"
        )
    buffers = _SYSTEMS.get(n)
    np.copyto(buffers.diag, diag)
    np.copyto(buffers.off, off)
    np.copyto(buffers.x, rhs)
    return _solve(buffers, system)


def dt_control(
    state: State,
    grid: Grid,
    params: MaterialParams,
    cfl: float,
    dt_max: float | None = None,
) -> float:
    """Acoustic step limit cfl * min_i(dx * v_i / c_i), capped at dt_max if
    given; state must be positive and finite. The run floors the limit at
    dt_min (lagns.driver), so this is the limit the state itself allows.

    Diffusion is implicit, so only the sound-crossing scale restricts dt.

    When dt_max is given and the state carries its extrema, the limit is
    first bounded from below without a pass over the cells:

        B = cfl * dx * (v_min / sqrt(gamma R theta_max)),

    with the operations and operand order of the cell-wise limit. Correctly
    rounded *, / and sqrt are monotone in each positive operand, and
    gamma R theta_max >= gamma R theta_i, v_min <= v_i, so each rounded
    step of B is at most the same step for cell i: B is at most the limit
    the cells give, float for float. When B >= dt_max the cap binds either
    way, and the result is dt_max, the bits the cells would give, with no
    sound speed evaluated. Any other case takes the pass.
    """
    extrema = state.extrema
    if dt_max is not None and extrema is not None:
        c_max = math.sqrt(params.gamma * params.R * extrema.theta_max)
        if cfl * grid.dx * (extrema.v_min / c_max) >= dt_max:
            return dt_max
    ratio = state.v / sound_speed(state.theta, params)
    dt = cfl * grid.dx * float(ratio[ratio.argmin()])
    return dt if dt_max is None else min(dt, dt_max)


def forcing(
    sources: tuple[np.ndarray, np.ndarray, np.ndarray],
    dt: float,
    params: MaterialParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forcing of the sources (s_v, s_u, s_theta) on a step of size dt:
    the one rule for how a source enters a step. It is

        (dt * s_v,  dt * s_u,  (dt / c_v) * s_theta),

    except that the two wall entries of the momentum forcing are
    (0.5 * dt) * s_u, the share of the half-mass control volumes. The
    sources may be one row each, or (times, N) arrays with a row per step,
    which give a row of forcing per step. New arrays; the sources are not
    written.
    """
    s_v, s_u, s_theta = sources
    f_u = dt * s_u
    half = 0.5 * dt
    f_u[..., 0] = half * s_u[..., 0]
    f_u[..., -1] = half * s_u[..., -1]
    return dt * s_v, f_u, (dt / params.c_v) * s_theta


def momentum_step(
    state: State,
    dt: float,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
    stress_bc: tuple[float, float] = (0.0, 0.0),
    forcing: np.ndarray | None = None,
) -> np.ndarray:
    """Backward-Euler velocity update with explicit pressure.

    Interior node j: (u'_j - u_j)/dt = (sigma*_j - sigma*_{j-1})/dx with
    sigma* = mu(v) u'_x / v - P(v, theta). Stress-free walls are half-mass
    control volumes fed by the imposed boundary stress (0 unless a
    manufactured value is supplied); no-slip walls are pinned to exactly 0.
    A forcing, the momentum entry of forcing(sources, dt, params), is
    added to the right-hand side as it is. mu(v) and P are read from
    state.derived, so a retry at a halved dt evaluates neither again.
    """
    dx = grid.dx
    a = state.derived.mu / state.v
    p = state.derived.p
    r = dt / dx**2
    # the bands and rhs are built in this size's buffers, every entry by
    # each branch, with the operations and order of fresh arrays, so the
    # bits are the same
    system = _SYSTEMS.get(grid.n_nodes)
    diag, off, rhs, scale = system.diag, system.off, system.x, system.scale

    # out is passed positionally, which numpy parses faster than a keyword
    scale[()] = -r
    np.multiply(scale, a, off)
    diag_in, rhs_in = system.diag_inner, system.x_inner
    np.add(a[:-1], a[1:], diag_in)
    scale[()] = r
    diag_in *= scale
    diag_in += _ONE
    np.subtract(p[1:], p[:-1], rhs_in)
    scale[()] = dt / dx
    rhs_in *= scale
    np.subtract(state.u[1:-1], rhs_in, rhs_in)
    if forcing is not None:
        rhs_in += forcing[1:-1]

    if bc is BoundaryKind.STRESS_FREE:
        # each wall row is the half-mass control volume's balance divided by
        # 2, which is exact and makes the matrix symmetric; its arithmetic
        # is on Python floats (item), cheaper than numpy scalars, same bits
        u = state.u
        diag[0] = 0.5 + r * a.item(0)
        rhs[0] = 0.5 * u.item(0) - (dt / dx) * (p.item(0) + stress_bc[0])
        diag[-1] = 0.5 + r * a.item(-1)
        rhs[-1] = 0.5 * u.item(-1) + (dt / dx) * (stress_bc[1] + p.item(-1))
        if forcing is not None:
            rhs[0] = rhs.item(0) + forcing.item(0)
            rhs[-1] = rhs.item(-1) + forcing.item(-1)
    else:
        # the wall rows are the identity and do not couple to the rows next
        # to them, so the walls come back as exactly 0
        diag[0] = diag[-1] = 1.0
        off[0] = off[-1] = 0.0
        rhs[0] = rhs[-1] = 0.0

    return _solve(system, "momentum system")


def continuity_step(
    state: State,
    u_x: np.ndarray,
    dt: float,
    forcing: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Exact discrete volume update v' = v + dt * u'_x per cell, from the
    end-of-step strain rate u_x = du_dx_cells(u'), plus a forcing (dt * s_v,
    see forcing) if given. Returns v' and its (min, max), which the gate
    that admits it computes."""
    new_v = state.v + dt * u_x
    if forcing is not None:
        new_v += forcing
    # this gate guards u' too: every node bounds a cell, so a u' that is not
    # finite makes some u'_x infinite or NaN, and with it that cell's v'
    return new_v, positive_extrema(
        new_v, "non-positive or non-finite volume", StepRejected
    )


def _extrapolated_temperature(
    state: State, previous: State | None, dt: float
) -> np.ndarray:
    """The temperature at which temperature_step evaluates the conductivity:
    the temperature at state.t + dt extrapolated linearly through state and
    the accepted state before it,

        theta + (-dt / h) * (previous.theta - theta),   h = state.t - previous.t,

    with theta = state.theta, or theta itself when there is no previous
    state. A guess that is not positive everywhere falls back to theta,
    since the conductivity takes a power of it.
    """
    theta = state.theta
    if previous is None:
        return theta
    guess = theta + (-dt / (state.t - previous.t)) * (previous.theta - theta)
    return guess if guess[guess.argmin()] > 0.0 else theta


def temperature_step(
    state: State,
    u_x: np.ndarray,
    new_v: np.ndarray,
    mu: np.ndarray,
    dt: float,
    params: MaterialParams,
    grid: Grid,
    forcing: np.ndarray | None = None,
    previous: State | None = None,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Backward-Euler temperature update with linearly implicit conductivity.

    u_x and mu are the end-of-step strain rate and the viscosity of new_v.
    The compression-work term is implicit in theta (it enters the diagonal
    with a positive sign when the gas expands), viscous heating is explicit
    from the end-of-step velocity, and the conductivity is evaluated at
    theta*, the temperatures of state and of previous (the accepted state
    before it) extrapolated to state.t + dt; see _extrapolated_temperature.
    The step is then one solve of A(theta*) theta' = rhs, where a forcing
    ((dt / c_v) * s_theta, see forcing) adds to rhs. Zero conductive flux
    at both walls falls out of omitting the end interfaces.

    A matrix that is not positive definite, which needs
    1 + dt R u_x / (c_v v) <= 0 in some cell, rejects the step, and so does
    a theta' that is not positive and finite everywhere. Without a forcing a
    non-positive theta' cannot happen: a positive-definite A(theta*) is an
    M-matrix, and rhs >= state.theta > 0. Returns theta' and its
    (min, max), which that gate computes.
    """
    s = dt / (params.c_v * grid.dx**2)
    kv = conductivity(_extrapolated_temperature(state, previous, dt), params) / new_v
    # built in this size's buffers with the operations and order of fresh
    # arrays, as in momentum_step
    system = _SYSTEMS.get(grid.n_cells)
    diag, off, rhs, scale = system.diag, system.off, system.x, system.scale
    # minus s times the interface conductivity: the off-diagonal of A
    np.add(kv[:-1], kv[1:], off)
    scale[()] = -0.5 * s
    off *= scale
    # rhs holds c_v v' until the diagonal is built
    np.multiply(params.c_v_0d, new_v, rhs)
    scale[()] = dt * params.R
    np.multiply(scale, u_x, diag)
    diag /= rhs
    diag += _ONE
    head, tail = system.diag_head, system.diag_tail
    head -= off
    tail -= off
    np.multiply(mu, u_x, rhs)
    rhs *= u_x
    rhs /= new_v
    scale[()] = dt / params.c_v
    rhs *= scale
    rhs += state.theta
    if forcing is not None:
        rhs += forcing
    new_theta = _solve(system, "temperature system")
    return new_theta, positive_extrema(
        new_theta, "non-positive or non-finite temperature", StepRejected
    )


def step(
    state: State,
    dt: float,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
    forcing: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    stress_bc: tuple[float, float] = (0.0, 0.0),
    previous: State | None = None,
) -> State:
    """Advance one accepted step: u first, then v, then theta.

    Momentum sees the old v and theta; continuity uses the end-of-step
    velocity so v' - v = dt * u'_x holds exactly; temperature sees both new
    fields. An optional forcing is forcing(sources, dt, params) of the
    (cells, nodes, cells) sources at the target time state.t + dt, made at
    this step's dt; each sub-step only adds its entry, which is the product
    it would form from its source, so the step has the same bits as one
    that scales its sources itself (see the module docstring). previous,
    the accepted state before
    state, gives the temperature at which the conductivity is evaluated
    (see temperature_step); the driver passes it from the second step on.
    Raises StepRejected if v' or theta' is not positive and finite.

    state must carry its derived fields (see with_derived), and the state
    returned carries its own: u'_x, made once for continuity and
    temperature, the volume power and mu(v'), made once for temperature,
    and P(v', theta'). It also carries the extrema of v' and theta' that
    the two gates found.
    """
    f_v, f_u, f_theta = forcing if forcing is not None else (None, None, None)
    new_u = momentum_step(state, dt, params, bc, grid, stress_bc, f_u)
    u_x = du_dx_cells(new_u, grid)
    new_v, v_range = continuity_step(state, u_x, dt, f_v)
    v_power, mu = volume_terms(new_v, params)
    new_theta, theta_range = temperature_step(
        state, u_x, new_v, mu, dt, params, grid, f_theta, previous
    )
    derived = DerivedFields(u_x, v_power, mu, pressure(new_v, new_theta, params))
    extrema = Extrema(*v_range, *theta_range)
    return State(state.t + dt, new_v, new_u, new_theta, derived, extrema)


def with_derived(state: State, params: MaterialParams, grid: Grid) -> State:
    """The state with its derived fields and its extrema, made as step makes
    them for the states it returns; a run applies it to its initial state.
    v and theta must be positive and finite (ValueError otherwise)."""
    v_power, mu = volume_terms(state.v, params)
    derived = DerivedFields(
        du_dx_cells(state.u, grid), v_power, mu, pressure(state.v, state.theta, params)
    )
    return replace(
        state, derived=derived, extrema=state_extrema(state.v, state.theta)
    )
