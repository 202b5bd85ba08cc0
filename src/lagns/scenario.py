"""Scenario definition, config parsing, and result serialization.

Configs are flat JSON objects with one level of nesting for the material
and profile blocks. Unknown keys anywhere are rejected so typos cannot
silently fall back to defaults. All numeric output uses 17 significant
digits, enough to round-trip float64 bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .constitutive import MaterialParams
from .grid import Grid, State
from .scheme import BoundaryKind, InitialProfile, StepControls

__all__ = [
    "ConfigError",
    "ProfileSpec",
    "Scenario",
    "DiagnosticsRow",
    "DiagnosticsReport",
    "ConvergenceLevel",
    "TIMESERIES_COLUMNS",
    "parse_config",
    "load_config",
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


def _reject_unknown(block: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ProfileSpec:
    """Named initial-profile family with its amplitude parameters.

    Made only if the name and amplitude keys are known and the analytic
    infima of v0 and theta0 are positive: this is the one home of the rule
    that initial data stays away from vacuum.
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
        built = self.build()
        if not (built.inf_v > 0.0 and built.inf_theta > 0.0):  # also catches NaN
            raise ConfigError(
                f"profile {self.name!r} touches vacuum: inf v0 = {built.inf_v}, "
                f"inf theta0 = {built.inf_theta}; initial data must keep positivity"
            )

    def values(self) -> dict[str, float]:
        merged = dict(_PROFILE_DEFAULTS[self.name])
        merged.update(dict(self.amplitudes))
        return merged

    def build(self) -> InitialProfile:
        """Materialize the closed-form callables and their analytic infima."""
        a = self.values()
        if self.name == "cosine":
            return InitialProfile(
                name=self.name,
                v0=lambda x: a["v_base"] + a["v_amp"] * np.cos(np.pi * x),
                theta0=lambda x: a["theta_base"] + a["theta_amp"] * np.cos(np.pi * x),
                u0=lambda x: a["u_amp"] * np.sin(np.pi * x),
                inf_v=a["v_base"] - abs(a["v_amp"]),
                inf_theta=a["theta_base"] - abs(a["theta_amp"]),
            )
        return InitialProfile(
            name=self.name,
            v0=lambda x: np.full(np.shape(x), a["v"]),
            theta0=lambda x: np.full(np.shape(x), a["theta"]),
            u0=lambda x: np.zeros(np.shape(x)),
            inf_v=a["v"],
            inf_theta=a["theta"],
        )


@dataclass(frozen=True)
class Scenario:
    """One deterministic run: material, boundaries, initial data, stepping.

    dt_max is a library-level cap used by refinement studies; it is not a
    config key and defaults to the acoustic limit alone. n_cells >= 8 is the
    floor for a run; cfl, dt_min and dt_max are range-checked by StepControls.
    """

    params: MaterialParams = MaterialParams()
    bc: BoundaryKind = BoundaryKind.STRESS_FREE
    profile: ProfileSpec = ProfileSpec()
    n_cells: int = 128
    cfl: float = 0.8
    t_end: float = 0.5
    dt_min: float = 1e-10
    output_every: float = 0.1
    mms: str | None = None
    dt_max: float | None = None

    def __post_init__(self) -> None:
        if self.n_cells < 8:
            raise ConfigError(f"n_cells must be >= 8, got {self.n_cells}")
        if self.t_end <= 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.output_every <= 0.0:
            raise ConfigError(
                f"output_every must be positive, got {self.output_every}"
            )
        self.controls  # built here so bad cfl, dt_min or dt_max fail early

    @property
    def controls(self) -> StepControls:
        """The step controls of this scenario, range-checked by StepControls."""
        try:
            return StepControls(cfl=self.cfl, dt_min=self.dt_min, dt_max=self.dt_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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
    band_margin: float
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


@dataclass(frozen=True)
class ConvergenceLevel:
    n_cells: int
    dt: float
    max_error_v: float
    max_error_u: float
    max_error_theta: float


def _number(block: dict, key: str, context: str) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{context}{key} must be finite, got {value!r}")
    return float(value)


def parse_config(text: str) -> Scenario:
    """Parse and fully validate a JSON scenario config.

    Every key is optional; omitted values take the defaults (all material
    constants 1, stress-free cosine profile). Unknown keys and values of the
    wrong JSON type are rejected here; every range rule is checked where its
    value is made (MaterialParams, ProfileSpec, Scenario), and surfaces here
    as a ConfigError before any stepping.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(
        raw,
        {
            "material",
            "bc",
            "profile",
            "n_cells",
            "cfl",
            "t_end",
            "dt_min",
            "output_every",
            "mms",
        },
        "config",
    )

    material = raw.get("material", {})
    if not isinstance(material, dict):
        raise ConfigError("material must be an object")
    _reject_unknown(
        material, {"R", "c_v", "mu_tilde", "kappa_tilde", "alpha", "beta"}, "material"
    )
    mat_kwargs = {
        key: _number(material, key, "material.") for key in material
    }
    try:
        params = MaterialParams(**mat_kwargs)
    except ValueError as exc:
        raise ConfigError(f"material: {exc}") from exc

    bc_name = raw.get("bc", "stress_free")
    try:
        bc = BoundaryKind.from_name(bc_name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

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
    profile = ProfileSpec(
        name=profile_block.get("name", "cosine"), amplitudes=amp_items
    )

    mms = raw.get("mms")
    if mms is not None and mms not in ("default", "constant"):
        raise ConfigError(
            f"unknown mms case {mms!r}; expected 'default' or 'constant'"
        )

    scalars: dict[str, Any] = {}
    for key in ("cfl", "t_end", "dt_min", "output_every"):
        if key in raw:
            scalars[key] = _number(raw, key, "")
    if "n_cells" in raw:
        n_cells = raw["n_cells"]
        if isinstance(n_cells, bool) or not isinstance(n_cells, int):
            raise ConfigError(f"n_cells must be an integer, got {n_cells!r}")
        scalars["n_cells"] = n_cells

    return Scenario(params=params, bc=bc, profile=profile, mms=mms, **scalars)


def load_config(path: str | Path) -> Scenario:
    return parse_config(Path(path).read_text())


def _fmt(value: float) -> str:
    return format(value, ".17g")


def emit_timeseries(report: DiagnosticsReport, destination: str | Path) -> None:
    """Write the diagnostics rows as CSV: header first, 17 significant digits."""
    lines = [",".join(TIMESERIES_COLUMNS)]
    for row in report.rows:
        lines.append(
            ",".join(_fmt(getattr(row, name)) for name in TIMESERIES_COLUMNS)
        )
    Path(destination).write_text("\n".join(lines) + "\n")


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


def emit_snapshot(state: State, grid: Grid, destination: str | Path) -> None:
    """Write the final fields in two header-tagged sections (cells, nodes)."""
    lines = ["# cells", "x,v,theta"]
    for x, v, theta in zip(grid.centers, state.v, state.theta):
        lines.append(f"{_fmt(x)},{_fmt(v)},{_fmt(theta)}")
    lines.append("# nodes")
    lines.append("x,u")
    for x, u in zip(grid.nodes, state.u):
        lines.append(f"{_fmt(x)},{_fmt(u)}")
    Path(destination).write_text("\n".join(lines) + "\n")


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
