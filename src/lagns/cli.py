"""Command-line surface: run, verify, convergence, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage or config error
or an output that cannot be written, 3 solver abort, 141 (128 + SIGPIPE)
when stdout's reader goes away.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .driver import run, verification_table
from .mms import manufactured_case
from .verify import representation_residual
from .scenario import (
    ConfigError,
    emit_snapshot,
    emit_timeseries,
    load_config,
    write_csv,
)

__all__ = ["main", "cmd_run", "cmd_verify", "cmd_convergence", "cmd_sweep"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_ABORT = 3
EXIT_BROKEN_PIPE = 141

MIN_SPATIAL_ORDER = 1.7
ROUNDING_FLOOR = 1e-12


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_run(config_path: str, out_dir: str) -> int:
    """Run one scenario; write timeseries.csv and snapshot.csv to out_dir.

    out_dir is created before the run, so an unusable one is a usage error
    that costs no step; an output that cannot be written is one too.
    """
    out = Path(out_dir)
    try:
        scenario = load_config(config_path)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        return _fail_usage(str(exc))
    result = run(scenario)
    try:
        emit_timeseries(result.report, out / "timeseries.csv")
        emit_snapshot(result.state, result.grid, out / "snapshot.csv")
    except OSError as exc:
        return _fail_usage(str(exc))
    if result.report.status == "aborted":
        print(
            f"aborted: {result.report.abort_reason} at t = {result.state.t:.6g}; "
            f"partial diagnostics in {out}",
            file=sys.stderr,
        )
        return EXIT_ABORT
    print(
        f"completed t = {result.state.t:.6g}: {len(result.report.rows)} output rows, "
        f"{result.report.halvings} halvings, wrote {out / 'timeseries.csv'}"
    )
    return EXIT_OK


def cmd_verify(config_path: str) -> int:
    """Run the scenario and print the PASS/FAIL table of invariant checks."""
    try:
        scenario = load_config(config_path)
    except (ConfigError, OSError) as exc:
        return _fail_usage(str(exc))
    if scenario.mms is not None:
        return _fail_usage(
            "verify needs a physical scenario; manufactured sources break the "
            "conservation identities by design"
        )
    result = run(scenario)
    if result.report.status == "aborted":
        print(
            f"aborted: {result.report.abort_reason} at t = {result.state.t:.6g}",
            file=sys.stderr,
        )
        return EXIT_ABORT
    checks = verification_table(result)
    width = max(len(check.name) for check in checks)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name:<{width}}  {status}  {check.detail}")
    failed = [check for check in checks if not check.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _observed_orders(errors: list[float]) -> tuple[float, ...]:
    return tuple(
        math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])
    )


def cmd_convergence(config_path: str, levels: int) -> int:
    """Nested-refinement study against the manufactured solution."""
    try:
        scenario = load_config(config_path)
    except (ConfigError, OSError) as exc:
        return _fail_usage(str(exc))
    if scenario.mms is None:
        return _fail_usage("convergence needs a config with an mms case")
    if levels < 3:
        return _fail_usage(f"need at least 3 refinement levels, got {levels}")

    sizes = [scenario.n_cells * 2**k for k in range(levels)]
    # every level is checked before the first runs, so a level whose
    # dt_max = dx^2 falls below dt_min costs no run
    studies = []
    for n in sizes:
        dx = 1.0 / n
        try:
            studies.append(replace(scenario, n_cells=n, dt_max=dx * dx))
        except ConfigError as exc:
            return _fail_usage(f"level n_cells = {n}: {exc}")
    case = manufactured_case(scenario.mms, scenario.params)
    # max-norm error of each field, one entry per level
    errors: dict[str, list[float]] = {"v": [], "u": [], "theta": []}
    for study in studies:
        result = run(study)
        if result.report.status == "aborted":
            print(
                f"aborted at level n_cells = {study.n_cells}: "
                f"{result.report.abort_reason}",
                file=sys.stderr,
            )
            return EXIT_ABORT
        grid, state = result.grid, result.state
        errors["v"].append(
            float(np.max(np.abs(state.v - case.v(grid.centers, state.t))))
        )
        errors["u"].append(
            float(np.max(np.abs(state.u - case.u(grid.nodes, state.t))))
        )
        errors["theta"].append(
            float(np.max(np.abs(state.theta - case.theta(grid.centers, state.t))))
        )

    print(f"{'n_cells':>8} {'dt':>12} {'err_v':>12} {'err_u':>12} {'err_theta':>12}")
    for n, err_v, err_u, err_theta in zip(sizes, *errors.values()):
        dx = 1.0 / n
        print(
            f"{n:>8} {dx * dx:>12.4e} {err_v:>12.4e} "
            f"{err_u:>12.4e} {err_theta:>12.4e}"
        )
    if all(max(level) < ROUNDING_FLOOR for level in zip(*errors.values())):
        print("errors at rounding floor (exact manufactured solution); "
              "order check skipped")
        return EXIT_OK
    min_order = math.inf
    for field, field_errors in errors.items():
        seq = _observed_orders(field_errors)
        formatted = ", ".join(f"{order:.2f}" for order in seq)
        print(f"observed order {field}: {formatted}")
        min_order = min(min_order, *seq)
    print(f"min observed order {min_order:.2f} (required >= {MIN_SPATIAL_ORDER})")
    return EXIT_OK if min_order >= MIN_SPATIAL_ORDER else EXIT_VERIFY_FAIL


def _parse_float_list(text: str, label: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {label} list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{label} list is empty")
    return values


def _file_tag(value: float) -> str:
    """A sweep value as written in a file name: its :g form where that reads
    back as the same float, else its shortest round-trip repr, so distinct
    values never share a file."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def cmd_sweep(config_path: str, alphas: str, betas: str, out_dir: str) -> int:
    """Run the alpha x beta grid one pair after another; one timeseries each,
    then summary.csv. An output that cannot be written is a usage error."""
    try:
        scenario = load_config(config_path)
        alpha_list = _parse_float_list(alphas, "alpha")
        beta_list = _parse_float_list(betas, "beta")
    except (ConfigError, OSError) as exc:
        return _fail_usage(str(exc))

    pairs = [(a, b) for a in alpha_list for b in beta_list]
    try:
        scenarios = [
            replace(scenario, params=replace(scenario.params, alpha=a, beta=b))
            for a, b in pairs
        ]
    except ValueError as exc:
        return _fail_usage(f"sweep lists: {exc}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail_usage(str(exc))

    summary = [("alpha", "beta", "status", "min_v", "min_theta", "repr_residual")]
    aborted = 0
    for (a, b), member in zip(pairs, scenarios):
        result = run(member)
        try:
            emit_timeseries(
                result.report, out / f"run_alpha{_file_tag(a)}_beta{_file_tag(b)}.csv"
            )
        except OSError as exc:
            return _fail_usage(str(exc))
        if result.report.status == "aborted":
            aborted += 1
        residual = representation_residual(
            result.state, result.accumulator, result.grid
        )
        summary.append((
            a, b, result.report.status,
            result.tracker.min_v, result.tracker.min_theta, residual,
        ))
    try:
        write_csv(out / "summary.csv", summary)
    except OSError as exc:
        return _fail_usage(str(exc))
    print(f"{len(pairs)} runs, {aborted} aborted; summary in {out / 'summary.csv'}")
    return EXIT_ABORT if aborted else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        # flush inside the try, so a reader that has gone away is met here
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`lagns verify ... | head -1`): point
        # stdout at devnull so that the interpreter's flush at exit cannot
        # raise again, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _dispatch(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagns",
        description="1-D Lagrangian viscous-gas solver with built-in verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write outputs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")

    p_verify = sub.add_parser("verify", help="run and print the invariant table")
    p_verify.add_argument("--config", required=True)

    p_conv = sub.add_parser("convergence", help="manufactured-solution order study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--levels", type=int, default=3)

    p_sweep = sub.add_parser("sweep", help="run an alpha x beta parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--alpha", required=True, help="comma-separated values")
    p_sweep.add_argument("--beta", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="sweep")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "verify":
        return cmd_verify(args.config)
    if args.command == "convergence":
        return cmd_convergence(args.config, args.levels)
    return cmd_sweep(args.config, args.alpha, args.beta, args.out)


if __name__ == "__main__":
    sys.exit(main())
