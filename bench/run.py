"""lagns benchmark: one workload, one seed, one run (stdlib only).

Run from the root of a lagns checkout:

    python3 bench/run.py --workload refine_n256 --seed 1 --seconds 10 --trace 0

The solver is imported from ``src/`` of the checkout. Set-up is timed in
fresh interpreters (``bench/worker.py`` in setup mode), then one more fresh
interpreter repeats the workload's public call for ``--seconds`` and checks
every repetition's outputs. With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and carries the per-layer metrics. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Scratch files
go under ``.bench_work/`` in the checkout and are removed afterwards, except
the span file of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import new_record  # bench/spans.py; sys.path[0] is bench/

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
SETUP_PROBES = 3
# Every time reported is scaled to the machine speed at which the calibration
# loop (worker.calibration_s) takes this long: time * CALIB_REF_S / calib_s,
# with calib_s measured next to the timed region.
CALIB_REF_S = 0.028
TIME_LIMIT_S = 170.0
MEASURE_BUDGET_S = 120.0

# Cosine amplitudes of the stress-free physical workloads; each seed scales
# every one by a factor drawn uniformly from [0.8, 1.2]. Under stress-free
# walls u0 is built from v0 and theta0, so u_amp is drawn and echoed but has
# no effect on the run.
NOMINAL_AMPLITUDES = {"v_amp": 0.2, "theta_amp": 0.1, "u_amp": 0.1}

WORKLOADS = {
    "refine_n256": {
        "why": "dt <= 2/N^2 refinement run at N=256 (3,280 steps), the small-N "
        "regime that dominates tier-1, where Python per-call overhead "
        "dominates each step",
        "kind": "refine",
        "config": {"n_cells": 256, "t_end": 0.1, "output_every": 0.02},
        "dt_max": 2.0 / 256**2,
        "calib_n": 256,
        "seeded": True,
    },
    "large_n8192": {
        "why": "lagns run at N=8192 with the CFL-limited dt: LAPACK-dominated "
        "solves, the largest snapshot write; overhead-only changes should not "
        "move it",
        "kind": "cmd_run",
        "config": {"n_cells": 8192, "t_end": 0.1, "output_every": 0.05},
        "calib_n": 8192,
        "seeded": True,
    },
    "mms_conv4": {
        "why": "lagns convergence, 4 no-slip levels N=16..128 with dt=dx^2: the "
        "only workload exercising the mms layer; sympy case build is in setup; "
        "gated on observed order >= 1.7",
        "kind": "convergence",
        "config": {"bc": "no_slip", "n_cells": 16, "t_end": 0.25,
                   "output_every": 0.25, "mms": "default"},
        "levels": 4,
        "calib_n": 128,
        "seeded": False,
    },
    "sweep_pair": {
        "why": "lagns sweep at N=512, t_end=1 over alpha in {0,2}, beta=1: two "
        "members of unequal cost, one per viscosity branch; the only workload "
        "for sweep execution in cli",
        "kind": "sweep",
        "config": {"n_cells": 512, "t_end": 1.0, "output_every": 0.25},
        "alphas": "0,2",
        "betas": "1",
        "members": 2,
        "calib_n": 512,
        "seeded": True,
    },
}

NOTES = [
    "sweep_pair sweeps 2 (alpha, beta) pairs, not the ROADMAP's 4, so its "
    "thread pool uses 2 threads and stays within the 2 cores of the machine "
    "the baseline was measured on",
    "setup_s is the median over fresh interpreters of import lagns + config "
    "load + Scenario construction (+ manufactured-case build for mms_conv4)",
    "failed_frac = failed / attempted, where a run is one lagns.driver.run "
    "(sweep member or convergence level); it is reported in the attempted and "
    "failed fields rather than as a metric because it is 0 when all is well",
    "untraced repetitions carry two hooks: a list append per accepted step "
    "at lagns.driver.step and a RunResult capture at lagns.cli.run",
]


def draw_amplitudes(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {key: value * rng.uniform(0.8, 1.2) for key, value in NOMINAL_AMPLITUDES.items()}


def machine_facts() -> dict:
    facts: dict = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "scipy", "sympy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        facts["cpu_model"] = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    facts["commit"] = git_commit()
    return facts


def git_commit() -> str | None:
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = Path(".git") / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(job: dict, env: dict, deadline: float) -> dict:
    """Run bench/worker.py in a fresh interpreter; its last stdout line is JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time limit reached before the worker started")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
        capture_output=True, text=True, env=env, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def scaled(sample: dict, key: str = "wall_s") -> float:
    """A measured time scaled to the reference machine speed."""
    return sample[key] * CALIB_REF_S / sample["calib_s"]


def end_to_end_metrics(setups: list[dict], report: dict) -> dict:
    untraced = [rep for rep in report["reps"] if not rep["traced"]]
    return {
        "wall_s": (median(scaled(rep) for rep in untraced), "s"),
        "setup_s": (median(scaled(s, "setup_s") for s in setups), "s"),
        "cell_steps_per_s": (median(rep["cell_steps"] / scaled(rep) for rep in untraced), "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(setups: list[dict], report: dict) -> dict:
    traced = [rep for rep in report["reps"] if rep["traced"]]
    untraced = [rep for rep in report["reps"] if not rep["traced"]]
    n = len(traced)
    spans = report["spans"]
    # span times scale by the traced repetitions' median speed factor
    speed = median(CALIB_REF_S / rep["calib_s"] for rep in traced)

    def rec(name):
        return spans.get(name) or new_record()

    def us_per_call(name):
        r = rec(name)
        return 1e6 * speed * r["incl_s"] / r["calls"] if r["calls"] else 0.0

    steps = rec("scheme.step")["ok"] / n
    attempts = rec("scheme.step")["calls"] / n
    per_step = 1.0 / steps if steps else 0.0
    layer_self: dict[str, float] = defaultdict(float)
    for name, r in spans.items():
        layer_self[name.split(".")[0]] += r["self_s"]
    total_self = sum(layer_self.values())
    constitutive = [r for name, r in spans.items() if name.startswith("constitutive.")]
    const_calls = sum(r["calls"] for r in constitutive)
    tri = rec("scheme.tridiagonal_solve")
    emits = [rec("scenario.emit_timeseries"), rec("scenario.emit_snapshot")]
    wall_untraced = median(scaled(rep) for rep in untraced)
    wall_traced = median(scaled(rep) for rep in traced)
    solo = [speed * t for t in report.get("solo_s", [])]

    metrics = {
        "driver.steps": (steps, "count"),
        "driver.step_attempts": (attempts, "count"),
        "driver.accept_ratio": (steps / attempts if attempts else 0.0, "ratio"),
        "driver.halvings": (attempts - steps, "count"),
    }
    for fn in ("step", "momentum_step", "continuity_step", "temperature_step", "dt_control"):
        metrics[f"scheme.{fn}.us_per_call"] = (us_per_call(f"scheme.{fn}"), "us")
    metrics.update({
        "scheme.tridiagonal_solve.calls": (tri["calls"] / n, "count"),
        "scheme.tridiagonal_solve.us_per_call": (us_per_call("scheme.tridiagonal_solve"), "us"),
        "scheme.picard_per_step": (
            tri["by_parent"].get("scheme.temperature_step", 0) / n * per_step, "count"),
        # bands and rhs read once, solution written once: 8 * (5n - 2) bytes
        "scheme.tridiagonal_solve.bytes_computed": (8 * (5 * tri["size"] - 2 * tri["calls"]) / n, "B"),
        "constitutive.calls_per_step": (const_calls / n * per_step, "count"),
        "constitutive.us_per_call": (
            1e6 * speed * sum(r["incl_s"] for r in constitutive) / const_calls
            if const_calls else 0.0, "us"),
    })
    for fn in ("update_bounds", "update_accumulator", "velocity_band_check"):
        metrics[f"verify.{fn}.us_per_call"] = (us_per_call(f"verify.{fn}"), "us")
    metrics.update({
        "verify.velocity_integral_factor.calls_per_step": (
            rec("verify.velocity_integral_factor")["calls"] / n * per_step, "count"),
        "mms.mms_sources.us_per_call": (us_per_call("mms.mms_sources"), "us"),
        "mms.case_build_s": (median(scaled(s, "case_build_s") for s in setups), "s"),
        "scenario.load_config_s": (median(scaled(s, "load_config_s") for s in setups), "s"),
        "scenario.emit_s": (speed * sum(r["incl_s"] for r in emits) / n, "s"),
        "scenario.bytes_written": (sum(r["size"] for r in emits) / n, "B"),
        "cli.sweep.speedup": (sum(solo) / wall_untraced if solo else 0.0, "ratio"),
        "cli.sweep.member_s_max": (max(solo, default=0.0), "s"),
        "setup.import_s": (median(scaled(s, "import_s") for s in setups), "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
        "trace.overhead_frac": ((wall_traced - wall_untraced) / wall_untraced, "ratio"),
        "host.speed_factor": (speed, "ratio"),
        "host.wall_s_unscaled": (median(rep["wall_s"] for rep in untraced), "s"),
    })
    for layer in ("cli", "driver", "scheme", "constitutive", "verify", "mms", "scenario"):
        metrics[f"{layer}.share"] = (layer_self[layer] / total_self if total_self else 0.0, "ratio")
    return metrics


def consistency_problems(report: dict) -> list[str]:
    """Repetitions of one run must write the same bytes and take the same steps."""
    reps = report["reps"]
    problems = []
    if any(rep["hashes"] != reps[0]["hashes"] for rep in reps):
        problems.append("output sha256 differs between repetitions")
    if any(rep["steps"] != reps[0]["steps"] for rep in reps):
        problems.append("accepted step count differs between repetitions")
    if any(rep["traced"] and not rep["restored"] for rep in reps):
        problems.append("tracing wrappers were not all restored")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not Path("src/lagns/__init__.py").is_file():
        print("error: run from the root of a lagns checkout (src/lagns not found)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = dict(workload["config"])
        amplitudes = None
        if workload["seeded"]:
            amplitudes = draw_amplitudes(args.seed)
            config["profile"] = {"name": "cosine", "amplitudes": amplitudes}
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
        job = {
            "mode": "setup",
            "kind": workload["kind"],
            "config": str(config_path),
            "dt_max": workload.get("dt_max"),
            "out": str(work / "out"),
            "seconds": args.seconds,
            "budget_s": MEASURE_BUDGET_S,
            "trace": args.trace,
            "trace_file": str(WORK_DIR / f"spans-{args.workload}.csv.gz"),
        }
        for key in ("levels", "alphas", "betas", "members", "calib_n"):
            if key in workload:
                job[key] = workload[key]

        setups = [run_worker(job, env, deadline)["setup"] for _ in range(SETUP_PROBES)]
        report = run_worker(dict(job, mode="measure"), env, deadline)
        setups.append(report["setup"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(setups, report)
    else:
        metrics = end_to_end_metrics(setups, report)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    attempted = sum(rep["runs"] for rep in report["reps"])
    failed = sum(rep["failed"] for rep in report["reps"])
    problems = consistency_problems(report)
    correct = failed == 0 and not problems

    detail = {
        "workload": args.workload,
        "why": workload["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "amplitudes": amplitudes,
        "machine": machine_facts(),
        "notes": NOTES,
        "setup_samples": setups,
        "repetitions": report["reps"],
        "problems": problems,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics,
    }
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {workload['why']}")
    if amplitudes:
        print("  amplitudes " + ", ".join(f"{k}={v:.6g}" for k, v in amplitudes.items()))
    machine = detail["machine"]
    print("  machine " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    untraced = [rep for rep in report["reps"] if not rep["traced"]]
    print(f"  unscaled medians: wall_s {median(r['wall_s'] for r in untraced):.6g} s, "
          f"setup_s {median(s['setup_s'] for s in setups):.6g} s; speed factor "
          f"{median(CALIB_REF_S / r['calib_s'] for r in report['reps']):.4g}")
    print(f"  repetitions {len(report['reps'])}, runs attempted {attempted}, failed {failed}, "
          f"failed_frac {detail['failed_frac']:.3g}" + "".join(f"; {p}" for p in problems))
    for name, digest in report["reps"][0]["hashes"].items():
        print(f"  sha256 {name} {digest}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
