"""Acceptance checks, one per test, printed with the measured values.

Each test exercises one end-to-end guarantee at its stated tolerance on
the package as shipped. Shared runs are module-scoped fixtures so the
whole file stays fast.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import lagns.cli as cli
from lagns import (
    BoundaryKind,
    Grid,
    MaterialParams,
    Scenario,
    State,
    compatible_initial_data,
    make_accumulator,
    manufactured_case,
    representation_residual,
    run,
    tridiagonal_solve,
    verification_table,
    with_derived,
)
from lagns.scenario import ProfileSpec

SF = BoundaryKind.STRESS_FREE
NS = BoundaryKind.NO_SLIP


def refinement_residuals(alpha: float) -> list[float]:
    """Final-time representation residuals at three nested resolutions."""
    out = []
    for n in (64, 128, 256):
        scenario = Scenario(
            params=MaterialParams(alpha=alpha),
            n_cells=n,
            t_end=0.5,
            output_every=0.5,
            dt_max=2.0 / n**2,
        )
        result = run(scenario)
        assert result.report.status == "completed"
        out.append(result.report.rows[-1].repr_residual)
    return out


@pytest.fixture(scope="module")
def default_run():
    result = run(Scenario())
    assert result.report.status == "completed"
    return result


@pytest.fixture(scope="module")
def alpha0_run():
    result = run(Scenario(params=MaterialParams(alpha=0.0)))
    assert result.report.status == "completed"
    return result


def functional_changes(alpha: float) -> dict[str, float]:
    """Relative change of each tracked functional from N=128 to N=256."""
    trackers = []
    for n in (128, 256):
        scenario = Scenario(
            params=MaterialParams(alpha=alpha), n_cells=n, t_end=0.5,
            output_every=0.5,
        )
        result = run(scenario)
        assert result.report.status == "completed"
        trackers.append(result.tracker)
    coarse, fine = trackers
    names = (
        "sup_grad_v_sq", "sup_grad_theta_sq", "int_max_theta",
        "int_uxx_sq", "int_ut_sq", "sup_u_x_sq",
    )
    return {
        name: abs(getattr(fine, name) - getattr(coarse, name))
        / max(abs(getattr(fine, name)), 1e-30)
        for name in names
    }


def test_01_volume_representation_exact_at_start_and_converges():
    # t = 0: the closed-form representation is an algebraic identity
    grid = Grid(64)
    for alpha in (0.0, 1.0):
        params = MaterialParams(alpha=alpha)
        state = compatible_initial_data(ProfileSpec(name="cosine"), params, SF, grid)
        acc = make_accumulator(with_derived(state, params, grid), grid, params)
        r0 = representation_residual(state, acc, grid)
        print(f"alpha={alpha}: t=0 residual {r0:.3e} (<= 1e-12)")
        assert r0 <= 1e-12

    # dynamics: residual decreases under refinement and ends under 1e-3
    residuals = refinement_residuals(1.0)
    print("refinement residuals:", ", ".join(f"{r:.4e}" for r in residuals))
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] <= 1e-3


def test_02_energy_conservation():
    # closed no-slip box at rest: energy is exact to rounding over T = 1
    steady = run(Scenario(
        bc=NS, profile=ProfileSpec(name="constant"), n_cells=64,
        t_end=1.0, output_every=0.25,
    ))
    worst = max(abs(row.energy_drift) for row in steady.report.rows)
    print(f"steady no-slip drift {worst:.3e} (<= 1e-12)")
    assert worst <= 1e-12

    # dynamic stress-free run: drift is first order in dt
    drifts = []
    for dt_max in (1e-3, 5e-4):
        result = run(Scenario(
            n_cells=64, t_end=0.5, output_every=0.5, dt_max=dt_max,
        ))
        drifts.append(result.report.rows[-1].energy_drift)
    ratio = drifts[0] / drifts[1]
    print(f"drift ratio under dt halving {ratio:.4f} (in [1.7, 2.3])")
    assert 1.7 <= ratio <= 2.3


def test_03_positivity_without_halvings(default_run):
    rows = default_run.report.rows
    min_v = min(row.min_v for row in rows)
    min_theta = min(row.min_theta for row in rows)
    print(
        f"min v {min_v:.6f}, min theta {min_theta:.6f}, "
        f"halvings {default_run.report.halvings}"
    )
    assert min_v > 0.0
    assert min_theta > 0.0
    assert default_run.report.halvings == 0
    assert np.all(default_run.state.v > 0.0)
    assert np.all(default_run.state.theta > 0.0)


def test_05_bounded_functionals_stable_under_refinement():
    changes = functional_changes(1.0)
    for name, change in changes.items():
        print(f"{name}: relative change N128->N256 {change:.4%} (< 5%)")
        assert np.isfinite(change)
        assert change < 0.05


def test_06_manufactured_convergence_and_solver_oracle():
    # spatial order from three nested no-slip runs at dt ~ dx^2
    case = manufactured_case("default", MaterialParams())
    errors = {"v": [], "u": [], "theta": []}
    for n in (16, 32, 64):
        result = run(Scenario(
            bc=NS, n_cells=n, t_end=0.25, output_every=0.25,
            mms="default", dt_max=1.0 / n**2,
        ))
        assert result.report.status == "completed"
        grid, state = result.grid, result.state
        errors["v"].append(np.max(np.abs(state.v - case.v(grid.centers, state.t))))
        errors["u"].append(np.max(np.abs(state.u - case.u(grid.nodes, state.t))))
        errors["theta"].append(
            np.max(np.abs(state.theta - case.theta(grid.centers, state.t)))
        )
    for field, errs in errors.items():
        orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
        print(f"{field}: orders {', '.join(f'{o:.2f}' for o in orders)} (>= 1.7)")
        assert min(orders) >= 1.7

    # linear-solver oracle: banded solve matches a dense reference
    rng = np.random.default_rng(42)
    n = 50
    off = rng.random(n - 1)
    diag = 4.0 + rng.random(n)
    rhs = rng.standard_normal(n)
    dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    x = tridiagonal_solve(off, diag, rhs)
    err = float(np.max(np.abs(x - np.linalg.solve(dense, rhs))))
    print(f"banded vs dense solve {err:.3e} (<= 1e-12)")
    assert err <= 1e-12


def test_07_constant_viscosity_branch(alpha0_run):
    residuals = refinement_residuals(0.0)
    print("alpha=0 refinement residuals:", ", ".join(f"{r:.4e}" for r in residuals))
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] <= 1e-3

    rows = alpha0_run.report.rows
    assert min(row.min_v for row in rows) > 0.0
    assert min(row.min_theta for row in rows) > 0.0
    assert alpha0_run.report.halvings == 0

    changes = functional_changes(0.0)
    worst = max(changes.values())
    print(f"alpha=0 worst functional change {worst:.4%} (< 5%)")
    assert worst < 0.05

    for result in (alpha0_run,):
        checks = verification_table(result)
        failed = [c.name for c in checks if not c.passed]
        print(f"alpha=0 verification table: {len(checks) - len(failed)}/{len(checks)} passed")
        assert not failed


def test_08_deterministic_reruns(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_cells": 64, "t_end": 0.3, "output_every": 0.1,
    }))
    for sub in ("a", "b"):
        assert cli.cmd_run(str(config), str(tmp_path / sub)) == 0
    a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert a == b
    a_snap = (tmp_path / "a" / "snapshot.csv").read_bytes()
    b_snap = (tmp_path / "b" / "snapshot.csv").read_bytes()
    print(f"timeseries {len(a)} bytes, snapshot {len(a_snap)} bytes, both identical")
    assert a_snap == b_snap
