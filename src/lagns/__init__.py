"""1-D Lagrangian compressible Navier-Stokes solver with verification harness.

A viscous, heat-conducting ideal gas on the fixed mass-coordinate interval
(0, 1), with density-dependent viscosity and temperature-power conductivity,
under stress-free or no-slip (both insulated) boundaries. Every run carries
instruments that check the computable conservation identities and
boundedness functionals of the underlying theory.
"""

from .constitutive import (
    MaterialParams,
    conductivity,
    pressure,
    sound_speed,
    stress,
    viscosity,
)
from .driver import advance, run, verification_table
from .grid import (
    DerivedFields,
    Grid,
    State,
    cell_integral,
    cumulative_u_integral,
    du_dx_cells,
    node_weights,
    total_energy,
)
from .mms import manufactured_case, mms_sources
from .scenario import (
    ConfigError,
    DiagnosticsReport,
    DiagnosticsRow,
    ProfileSpec,
    Scenario,
    TIMESERIES_COLUMNS,
    compatible_initial_data,
    emit_snapshot,
    emit_timeseries,
    load_config,
    parse_config,
    parse_snapshot,
    parse_timeseries,
)
from .scheme import (
    BoundaryKind,
    StepRejected,
    compatibility_residual,
    continuity_step,
    dt_control,
    momentum_step,
    step,
    temperature_step,
    tridiagonal_solve,
    with_derived,
)
from .verify import (
    StateBlock,
    boundary_stress_residual,
    energy_drift,
    make_accumulator,
    make_tracker,
    relative_volume_exponent,
    representation_residual,
    update_accumulator,
    update_bounds,
    velocity_integral_exponent,
)

__version__ = "0.1.0"
