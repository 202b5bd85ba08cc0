"""Scenario definition, initial data, config parsing, and result serialization.

ProfileSpec names a closed-form family of initial data and samples it;
compatible_initial_data turns the samples into the initial State for the
chosen walls. Scenario alone decides what a run starts from: the fields of
its manufactured case at t = 0 when mms is set, else its profile's
compatible data (Scenario.initial_state). Configs are flat JSON objects
with one level of nesting for the material and profile blocks. Unknown
keys anywhere, and keys given twice, are rejected so typos cannot silently
fall back to defaults. Every CSV number carries 17 significant digits,
enough to round-trip float64 bit-exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .constitutive import MaterialParams, viscosity
from .grid import Grid, State, cumulative_u_integral
from .mms import manufactured_case
from .scheme import BoundaryKind

__all__ = [
    "ConfigError",
    "ProfileSpec",
    "compatible_initial_data",
    "Scenario",
    "DiagnosticsRow",
    "DiagnosticsReport",
    "TIMESERIES_COLUMNS",
    "parse_config",
    "load_config",
    "write_csv",
    "emit_timeseries",
    "parse_timeseries",
    "emit_snapshot",
    "parse_snapshot",
]


class ConfigError(ValueError):
    """Configuration rejected; the message carries the offending key."""


_PROFILE_DEFAULTS: dict[str, dict[str, float]] = {
    "cosine": {
        "v_base": 1.0,
        "v_amp": 0.2,
        "theta_base": 1.0,
        "theta_amp": 0.1,
        "u_amp": 0.1,
    },
    "constant": {"v": 1.0, "theta": 1.0},
}
# largest |u_amp| of the cosine profile: the squared initial velocity
# gradient, at most (pi u_amp)^2 per cell, then stays finite summed over as
# many cells as an array can hold (2^63), and so does the kinetic energy
_U_AMP_MAX = math.sqrt(sys.float_info.max / 2.0**63) / math.pi


def _reject_unknown(block: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ProfileSpec:
    """Named initial-profile family with its amplitude parameters.

    Made only if the name and amplitude keys are known, the analytic
    infima of v0 and theta0 are positive, their suprema are finite and
    |u_amp| is small enough that the initial kinetic energy and squared
    velocity gradient cannot overflow: this is the one home of the rule
    that initial data stays away from vacuum and inside the float range.
    Constant is the cosine family at zero amplitude (values), so the bounds
    and the samples have one formula. Every profile is compatible with
    either kind of wall by construction: theta0' and the no-slip u0 vanish
    at x = 0 and x = 1.
    """

    name: str = "cosine"
    amplitudes: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or self.name not in _PROFILE_DEFAULTS:
            raise ConfigError(
                f"unknown profile {self.name!r}; "
                f"expected one of {sorted(_PROFILE_DEFAULTS)}"
            )
        allowed = set(_PROFILE_DEFAULTS[self.name])
        _reject_unknown(dict(self.amplitudes), allowed, "profile.amplitudes")
        a = self.values()
        inf_v = a["v_base"] - abs(a["v_amp"])
        inf_theta = a["theta_base"] - abs(a["theta_amp"])
        sup_v = a["v_base"] + abs(a["v_amp"])
        sup_theta = a["theta_base"] + abs(a["theta_amp"])
        if not (inf_v > 0.0 and inf_theta > 0.0):  # also catches NaN
            raise ConfigError(
                f"profile {self.name!r} touches vacuum: inf v0 = {inf_v}, "
                f"inf theta0 = {inf_theta}; initial data must keep positivity"
            )
        # rounding is monotone, so a finite supremum bounds every sample
        if not (math.isfinite(sup_v) and math.isfinite(sup_theta)):
            raise ConfigError(
                f"profile {self.name!r} overflows: sup v0 = {sup_v}, "
                f"sup theta0 = {sup_theta}; initial data must be finite"
            )
        if not abs(a["u_amp"]) <= _U_AMP_MAX:
            raise ConfigError(
                f"profile {self.name!r} overflows: |u_amp| = {abs(a['u_amp'])} "
                f"exceeds {_U_AMP_MAX:.6g}, beyond which the initial kinetic "
                "energy or squared velocity gradient can overflow"
            )

    def values(self) -> dict[str, float]:
        """The cosine parameters of the profile. A zero amplitude keeps a
        finite base's bits, so constant samples exactly v, theta and 0."""
        a = {**_PROFILE_DEFAULTS[self.name], **dict(self.amplitudes)}
        if self.name == "constant":
            return dict(
                v_base=a["v"], theta_base=a["theta"], v_amp=0.0, theta_amp=0.0, u_amp=0.0
            )
        return a

    def sample(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v0, theta0, u0) at the mass coordinates x."""
        a = self.values()
        wave = np.cos(np.pi * x)
        return (
            a["v_base"] + a["v_amp"] * wave,
            a["theta_base"] + a["theta_amp"] * wave,
            a["u_amp"] * np.sin(np.pi * x),
        )


def compatible_initial_data(
    profile: ProfileSpec,
    params: MaterialParams,
    bc: BoundaryKind,
    grid: Grid,
) -> State:
    """Sample initial data that satisfies the chosen boundary family.

    Stress-free runs get u0(x) = integral of R*theta0/mu(v0) from 0 to x
    (trapezoid on node samples), which zeroes the discrete boundary stress
    to quadrature accuracy. No-slip runs take the profile's own u0. The
    sampled state is checked by State.validate before it is returned; how
    well it meets the walls' conditions is measured by
    verify.compatibility_residual.
    """
    v0, theta0, _ = profile.sample(grid.centers)
    v_nodes, theta_nodes, u0 = profile.sample(grid.nodes)
    if bc is BoundaryKind.STRESS_FREE:
        f = params.R * theta_nodes / viscosity(v_nodes, params)
        u0 = cumulative_u_integral(f, 0.0, grid)
    state = State(t=0.0, v=v0, u=u0, theta=theta0)
    state.validate(grid)
    return state


# the most cells whose n_cells + 1 nodes np.arange makes: it computes the
# length of its result in float64, which holds every integer up to 2**53
# and not all beyond (asked for 2**53 + 1 values it makes 2**53, and from
# 2**60 - 64 on it refuses the length as too big for an array)
_MAX_CELLS = 2 ** (np.finfo(np.float64).nmant + 1) - 1


@dataclass(frozen=True)
class Scenario:
    """One deterministic run: material, boundaries, initial data, stepping.

    dt_max is a library-level cap used by refinement studies; it is not a
    config key and defaults to the acoustic limit alone. Scenario is the one
    validator of the run's controls (n_cells, t_end, output_every, cfl,
    dt_min, dt_max, mms) and of the rule that a manufactured run takes its
    initial data from its case. profile None chooses none: the default cosine.
    """

    params: MaterialParams = MaterialParams()
    bc: BoundaryKind = BoundaryKind.STRESS_FREE
    profile: ProfileSpec | None = None
    n_cells: int = 128
    cfl: float = 0.8
    t_end: float = 0.5
    dt_min: float = 1e-10
    output_every: float = 0.1
    mms: str | None = None
    dt_max: float | None = None

    def __post_init__(self) -> None:
        n = self.n_cells
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ConfigError(f"n_cells must be an integer, got {n!r}")
        if n < 8:
            raise ConfigError(f"n_cells must be >= 8, got {n}")
        if n > _MAX_CELLS:
            raise ConfigError(
                f"n_cells must be <= {_MAX_CELLS}, the most cells whose "
                f"nodes np.arange counts exactly, got {n}"
            )
        # the float checks are written so that NaN fails them
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and positive, got {self.t_end}")
        if not self.output_every > 0.0:
            raise ConfigError(
                f"output_every must be positive, got {self.output_every}"
            )
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.dt_min > 0.0:
            raise ConfigError(f"dt_min must be positive, got {self.dt_min}")
        if not self.output_every >= self.dt_min:  # else steps fall below dt_min
            raise ConfigError(
                f"output_every = {self.output_every} must be >= dt_min = {self.dt_min}"
            )
        if self.dt_max is not None and not self.dt_max >= self.dt_min:
            # dt_control floors at dt_min, so a smaller cap could not hold
            raise ConfigError(
                f"dt_max = {self.dt_max} must be >= dt_min = {self.dt_min}"
            )
        if self.mms is not None:
            if self.profile is not None:
                raise ConfigError(
                    "config sets both 'mms' and 'profile'; a manufactured run "
                    "takes its initial data from the mms case"
                )
            try:
                manufactured_case(self.mms, self.params)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    def initial_state(self, grid: Grid) -> State:
        """The state the run starts from on grid: the fields of the mms case
        at t = 0 when one is set, else the profile's compatible data."""
        if self.mms is None:
            profile = self.profile or ProfileSpec()
            return compatible_initial_data(profile, self.params, self.bc, grid)
        case = manufactured_case(self.mms, self.params)
        v, u = case.v(grid.centers, 0.0), case.u(grid.nodes, 0.0)
        state = State(t=0.0, v=v, u=u, theta=case.theta(grid.centers, 0.0))
        state.validate(grid)
        return state


@dataclass(frozen=True)
class DiagnosticsRow:
    """One output-time record; field order is the CSV column order."""

    t: float
    energy: float
    energy_drift: float
    min_v: float
    max_v: float
    min_theta: float
    max_theta: float
    repr_residual: float
    boundary_resid_left: float
    boundary_resid_right: float
    sup_grad_v_sq: float
    sup_grad_theta_sq: float
    int_max_theta: float
    int_uxx_sq: float
    int_ut_sq: float
    dt_current: float


TIMESERIES_COLUMNS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(DiagnosticsRow)
)


@dataclass(frozen=True)
class DiagnosticsReport:
    """All output rows of a run plus its terminal status."""

    rows: tuple[DiagnosticsRow, ...]
    status: str
    abort_reason: str | None = None
    halvings: int = 0

    def __post_init__(self) -> None:
        if self.status not in ("completed", "aborted"):
            raise ValueError(f"unknown status {self.status!r}")
        times = [row.t for row in self.rows]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("diagnostics rows must be strictly increasing in t")


def _number(block: dict, key: str, context: str) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ConfigError(
            f"{context}{key} must be finite, got an integer beyond the float range"
        ) from exc
    if not math.isfinite(number):
        raise ConfigError(f"{context}{key} must be finite, got {value!r}")
    return number


def _object_without_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The JSON object of pairs; a key given twice is a ConfigError."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_config(text: str) -> Scenario:
    """Parse and fully validate a JSON scenario config.

    Every key is optional; omitted values take the defaults (all material
    constants 1, stress-free cosine profile). Unknown or repeated keys and
    values of the wrong JSON type are rejected here; every range rule, and
    the rule that mms comes without a profile, is checked where its value
    is made (MaterialParams, ProfileSpec, Scenario), and surfaces here as a
    ConfigError before any stepping.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_object_without_duplicates)
    # the decoder raises RecursionError on nesting deeper than it can follow
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ConfigError:  # a duplicate key
        raise
    except ValueError as exc:  # an integer longer than int() converts
        raise ConfigError(
            "config holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    scalar_keys = ("cfl", "t_end", "dt_min", "output_every")
    _reject_unknown(
        raw, {"material", "bc", "profile", "n_cells", "mms", *scalar_keys}, "config"
    )

    material = raw.get("material", {})
    if not isinstance(material, dict):
        raise ConfigError("material must be an object")
    material_keys = {field.name for field in dataclasses.fields(MaterialParams)}
    _reject_unknown(material, material_keys, "material")
    mat_kwargs = {key: _number(material, key, "material.") for key in material}
    try:
        params = MaterialParams(**mat_kwargs)
    except ValueError as exc:
        raise ConfigError(f"material: {exc}") from exc

    bc_name = raw.get("bc", "stress_free")
    try:
        bc = BoundaryKind(bc_name)
    except ValueError as exc:
        raise ConfigError(
            f"unknown boundary kind {bc_name!r}; expected 'stress_free' or 'no_slip'"
        ) from exc

    profile_block = raw.get("profile", {})
    if not isinstance(profile_block, dict):
        raise ConfigError("profile must be an object")
    _reject_unknown(profile_block, {"name", "amplitudes"}, "profile")
    amplitudes = profile_block.get("amplitudes", {})
    if not isinstance(amplitudes, dict):
        raise ConfigError("profile.amplitudes must be an object")
    amp_items = tuple(
        sorted((k, _number(amplitudes, k, "profile.amplitudes.")) for k in amplitudes)
    )
    # an absent block chooses no profile, as a manufactured run must
    name = profile_block.get("name", "cosine")
    profile = ProfileSpec(name, amp_items) if "profile" in raw else None

    scalars: dict[str, Any] = {
        key: _number(raw, key, "") for key in scalar_keys if key in raw
    }
    if "n_cells" in raw:
        scalars["n_cells"] = raw["n_cells"]

    return Scenario(
        params=params, bc=bc, profile=profile, mms=raw.get("mms"), **scalars
    )


def load_config(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8 text: {exc}") from exc
    return parse_config(text)


def _fmt(field: str | float) -> str:
    """One CSV field: a str as it is, a number in 17 significant digits."""
    return field if isinstance(field, str) else format(field, ".17g")


def write_csv(destination: str | Path, rows: Iterable[Iterable[str | float]]) -> None:
    """Write rows as CSV lines, each as soon as it is formatted, so a file of
    any length costs no more memory than the row being written."""
    with open(destination, "w") as out:
        for row in rows:
            out.write(",".join(map(_fmt, row)) + "\n")


def emit_timeseries(report: DiagnosticsReport, destination: str | Path) -> None:
    """Write the diagnostics rows as CSV: header first, 17 significant digits."""
    rows = ((getattr(row, name) for name in TIMESERIES_COLUMNS) for row in report.rows)
    write_csv(destination, itertools.chain([TIMESERIES_COLUMNS], rows))


def parse_timeseries(path: str | Path) -> tuple[DiagnosticsRow, ...]:
    """Read a timeseries CSV back into rows; inverse of emit_timeseries."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split(",") != list(TIMESERIES_COLUMNS):
        raise ValueError(f"{path} does not carry the expected timeseries header")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        values = [float(part) for part in line.split(",")]
        if len(values) != len(TIMESERIES_COLUMNS):
            raise ValueError(f"timeseries row has {len(values)} columns")
        rows.append(DiagnosticsRow(**dict(zip(TIMESERIES_COLUMNS, values))))
    return tuple(rows)


# snapshot rows made into Python floats at a time: they format faster than
# numpy scalars, and a block keeps the copy small
_SNAPSHOT_BLOCK = 1024


def _float_lines(*columns: np.ndarray) -> Iterator[str]:
    """The rows of the columns as CSV text, one block of rows at a time,
    each row through one %-template: "%.17g" and format(x, ".17g") share
    the float formatter, so the bytes are write_csv's."""
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _SNAPSHOT_BLOCK):
        end = start + _SNAPSHOT_BLOCK
        block = zip(*(column[start:end].tolist() for column in columns))
        yield "".join([template % row for row in block])


def emit_snapshot(state: State, grid: Grid, destination: str | Path) -> None:
    """Write the final fields in two header-tagged sections (cells, nodes)."""
    with open(destination, "w") as out:
        # each section's coordinates are made only while it is written
        out.write("# cells\nx,v,theta\n")
        out.writelines(_float_lines(grid.centers, state.v, state.theta))
        out.write("# nodes\nx,u\n")
        out.writelines(_float_lines(grid.nodes, state.u))


def parse_snapshot(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a snapshot back as (x_centers, v, theta, x_nodes, u)."""
    lines = Path(path).read_text().splitlines()
    try:
        cells_at = lines.index("# cells")
        nodes_at = lines.index("# nodes")
    except ValueError as exc:
        raise ValueError(f"{path} is missing a snapshot section tag") from exc
    cell_rows = [
        [float(p) for p in line.split(",")]
        for line in lines[cells_at + 2 : nodes_at]
        if line
    ]
    node_rows = [
        [float(p) for p in line.split(",")] for line in lines[nodes_at + 2 :] if line
    ]
    cells = np.array(cell_rows, dtype=float).reshape(-1, 3)
    nodes = np.array(node_rows, dtype=float).reshape(-1, 2)
    return cells[:, 0], cells[:, 1], cells[:, 2], nodes[:, 0], nodes[:, 1]
