"""One benchmark process: set up a workload, then optionally run it.

Started by ``bench/run.py`` in a fresh interpreter with ``src`` on the path:

    python3 bench/worker.py '<job as JSON>'

The job names the workload, its config file and a scratch directory. In
``setup`` mode the worker only times ``import lagns``, the config load and
Scenario construction (plus the manufactured-case build when the config has
one) and exits. In ``measure`` mode it then repeats the workload's public
call until ``seconds`` have passed, checking every repetition's outputs; with
``trace`` set it alternates untraced and traced repetitions. The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import re
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

from spans import Tracer  # bench/spans.py; sys.path[0] is bench/

MIN_ORDER = 1.7


def setup(job: dict):
    """Time the set-up a user pays before the workload's public call."""
    t0 = time.perf_counter()
    import lagns  # noqa: F401
    from lagns.scenario import load_config

    t1 = time.perf_counter()
    scenario = load_config(job["config"])
    if job.get("dt_max") is not None:
        scenario = dataclasses.replace(scenario, dt_max=job["dt_max"])
    t2 = time.perf_counter()
    if scenario.mms is not None:
        from lagns.mms import manufactured_case

        manufactured_case(scenario.mms, scenario.params)
    t3 = time.perf_counter()
    return scenario, {
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "case_build_s": t3 - t2,
        "setup_s": t3 - t0,
        "calib_s": calibration_s(job["calib_n"]),
    }


def calibration_s(n: int, threads: int = 1, repeats: int = 3) -> float:
    """Median time of a fixed loop of small numpy operations and banded solves
    on arrays of n values, the mix of work in a lagns step at n cells, run in
    as many threads as the workload runs solves in.

    The machine this benchmark was built on runs the same code at speeds up
    to 1.8x apart over spans of 5 to 60 seconds. Timing this loop next to
    every timed region measures the speed at that moment, so that run.py can
    scale each time to a fixed reference speed.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    a = np.linspace(1.0, 2.0, n)
    bands = np.vstack([np.full(n, -0.5), np.full(n, 2.0), np.full(n, -0.5)])
    # about 25 ms per repeat at n = 256 in one thread; threads contend for
    # the interpreter lock, so each does a quarter as many with two
    iterations = max(20, int(3e6 // (n + 2000)) // threads**2)

    def loop():
        acc = 0.0
        for i in range(iterations):
            b = np.exp(-a) * a + 1.0
            acc += float(np.max(np.abs(b - a))) + (i % 7) * 0.5
            if i % 4 == 0:
                solve_banded((1, 1), bands, b, check_finite=False)

    times = []
    for _ in range(repeats):
        others = [threading.Thread(target=loop) for _ in range(threads - 1)]
        t0 = time.perf_counter()
        for thread in others:
            thread.start()
        loop()
        for thread in others:
            thread.join()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


# --- workload calls: the timed region of one repetition ---------------------


def call_refine(job, scenario, out: Path):
    import lagns.driver
    import lagns.scenario

    result = lagns.driver.run(scenario)
    out.mkdir(parents=True, exist_ok=True)
    lagns.scenario.emit_timeseries(result.report, out / "timeseries.csv")
    lagns.scenario.emit_snapshot(result.state, result.grid, out / "snapshot.csv")
    return result


def call_cmd_run(job, scenario, out: Path):
    import lagns.cli

    return lagns.cli.cmd_run(job["config"], str(out))


def call_convergence(job, scenario, out: Path):
    import lagns.cli

    return lagns.cli.cmd_convergence(job["config"], job["levels"])


def call_sweep(job, scenario, out: Path):
    import lagns.cli

    return lagns.cli.cmd_sweep(job["config"], job["alphas"], job["betas"], str(out))


# --- output checks: (runs attempted, runs failed, info) ---------------------


def _all_pass(result) -> tuple[bool, list[str]]:
    from lagns.driver import verification_table

    if result.report.status != "completed":
        return False, [f"aborted: {result.report.abort_reason}"]
    failing = [c.name for c in verification_table(result) if not c.passed]
    return not failing, [f"FAIL {name}" for name in failing]


def check_refine(job, value, captured, stdout):
    ok, notes = _all_pass(value)
    return 1, 0 if ok else 1, {"checks": notes or "all PASS"}


def check_cmd_run(job, value, captured, stdout):
    if value != 0 or len(captured) != 1:
        return 1, 1, {"exit": value, "runs_seen": len(captured)}
    ok, notes = _all_pass(captured[0])
    return 1, 0 if ok else 1, {"exit": value, "checks": notes or "all PASS"}


def check_convergence(job, value, captured, stdout):
    match = re.search(r"min observed order ([0-9.eE+-]+)", stdout)
    order = float(match.group(1)) if match else None
    ok = value == 0 and order is not None and order >= MIN_ORDER
    levels = job["levels"]
    return levels, 0 if ok else levels, {"exit": value, "min_order": order}


def check_sweep(job, value, captured, stdout):
    summary = Path(job["out"]) / "summary.csv"
    statuses = []
    if summary.is_file():
        statuses = [line.split(",")[2] for line in summary.read_text().splitlines()[1:]]
    members = job["members"]
    aborted = sum(status != "completed" for status in statuses)
    if value != 0 or len(statuses) != members:
        aborted = members
    return members, aborted, {"exit": value, "statuses": statuses}


KINDS = {
    "refine": (call_refine, check_refine),
    "cmd_run": (call_cmd_run, check_cmd_run),
    "convergence": (call_convergence, check_convergence),
    "sweep": (call_sweep, check_sweep),
}


def output_hashes(out: Path, stdout: str) -> dict[str, str]:
    """sha256 of every CSV written, and of the printed report."""
    hashes = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }
    hashes["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return hashes


@contextlib.contextmanager
def step_counter(cells: list[int], captured: list):
    """A list append per accepted step at ``lagns.driver.step`` and a capture
    of the RunResult at ``lagns.cli.run``: the only hooks of an untraced run.
    """
    import lagns.cli
    import lagns.driver

    step, run = lagns.driver.step, lagns.cli.run

    def counted_step(state, *args, **kwargs):
        new_state = step(state, *args, **kwargs)
        cells.append(state.v.shape[0])
        return new_state

    def captured_run(scenario):
        result = run(scenario)
        captured.append(result)
        return result

    lagns.driver.step, lagns.cli.run = counted_step, captured_run
    try:
        yield
    finally:
        lagns.driver.step, lagns.cli.run = step, run


def repetition(job, scenario, tracer: Tracer | None) -> dict:
    out = Path(job["out"])
    shutil.rmtree(out, ignore_errors=True)
    call, check = KINDS[job["kind"]]
    cells: list[int] = []
    captured: list = []
    buffer = io.StringIO()
    error = value = None
    tracing = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.span("bench.workload") if tracer else contextlib.nullcontext()
    calib_before = calibration_s(job["calib_n"], job.get("members", 1))
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        with tracing, step_counter(cells, captured):
            t0 = time.perf_counter()
            try:
                with root:
                    value = call(job, scenario, out)
            except Exception:  # a crash is a failed run, not a lost result
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
    stdout = buffer.getvalue()
    calib = 0.5 * (calib_before + calibration_s(job["calib_n"], job.get("members", 1)))
    rep = {"traced": tracer is not None, "wall_s": wall, "calib_s": calib}
    if error is not None:
        runs = job.get("levels") or job.get("members") or 1
        rep.update(runs=runs, failed=runs, info={"error": error})
    else:
        runs, failed, info = check(job, value, captured, stdout)
        rep.update(runs=runs, failed=failed, info=info)
    rep["hashes"] = output_hashes(out, stdout)
    rep["steps"] = len(cells)
    rep["cell_steps"] = sum(cells)
    if tracer is not None:
        rep["restored"] = tracer.restored
    return rep


def solo_members(job, scenario) -> list[float]:
    """Time each sweep member alone through ``lagns.driver.run``."""
    import lagns.driver

    times = []
    for a in job["alphas"].split(","):
        for b in job["betas"].split(","):
            params = dataclasses.replace(scenario.params, alpha=float(a), beta=float(b))
            member = dataclasses.replace(scenario, params=params)
            t0 = time.perf_counter()
            lagns.driver.run(member)
            times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    job = json.loads(sys.argv[1])
    scenario, setup_times = setup(job)
    report: dict = {"setup": setup_times}
    if job["mode"] == "measure":
        tracers: list[Tracer] = []
        reps = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            reps.append(repetition(job, scenario, None))
            if job["trace"]:
                tracers.append(Tracer())
                reps.append(repetition(job, scenario, tracers[-1]))
            now = time.perf_counter()
            # stop once the measuring time is up, or before a further round
            # would overrun the run's time budget
            if now - start >= job["seconds"] or 2 * now - began - start > job["budget_s"]:
                break
        report["reps"] = reps
        if job["trace"]:
            if job["kind"] == "sweep":
                report["solo_s"] = solo_members(job, scenario)
            report["spans"] = {}
            for tracer in tracers:
                tracer.summary(report["spans"])
            write_spans(tracers, job["trace_file"])
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        report["peak_rss_mb"] = usage / 1024.0
    print(json.dumps(report))
    return 0


def write_spans(tracers: list[Tracer], path: str) -> None:
    """Write the spans of every traced repetition once, at the end."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("rep,thread,id,name,parent,start_ns,end_ns,ok,size\n")
        for rep, tracer in enumerate(tracers):
            for row in tracer.spans():
                fh.write(f"{rep}," + ",".join(map(str, row)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
