"""Run the benchmark over many seeds and summarise the spread of each metric.

Run from the root of a lagns checkout:

    python3 bench/collect.py --seeds 1-10 --out bench/results/set1.json
    python3 bench/collect.py --workloads refine_n256 --seeds 1-5 --traced-seeds 0

For every workload it runs ``bench/run.py`` untraced once per seed and traced
once per traced seed, one run at a time. For each end-to-end metric it reports
the median and the quartile spread (q3 - q1) / median of the untraced runs,
as ``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound from BENCHMARK.json. Writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import NOTES, WORKLOADS  # bench/run.py; sys.path[0] is bench/

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    Path(".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as tmp:
        detail_path = Path(tmp) / "detail.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--detail", str(detail_path)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads(detail_path.read_text())
    return {
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "amplitudes": detail["amplitudes"],
        "repetitions": [
            {"traced": rep["traced"], "wall_s": rep["wall_s"], "calib_s": rep["calib_s"]}
            for rep in detail["repetitions"]
        ],
        "sha256": detail["repetitions"][0]["hashes"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "machine": detail["machine"],
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    traced_seeds = [s for s in parse_seeds(args.traced_seeds) if s > 0]
    report: dict = {"seconds": args.seconds, "seeds": seeds, "notes": NOTES, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = [bench_once(workload, seed, args.seconds, 1) for seed in traced_seeds]
        summary = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name] for run in runs]
            summary[name] = dict(spread(values) if len(values) > 1 else {}, bound=bound)
            line = summary[name]
            if len(values) > 1:
                print(f"{workload:12s} {name:17s} median {line['median']:.6g} "
                      f"spread {line['spread']:.4f} (bound {bound})", flush=True)
        print(f"{workload:12s} correct {all(r['correct'] for r in runs + traced)} "
              f"failed {sum(r['failed'] for r in runs + traced)}", flush=True)
        report["workloads"][workload] = {
            "why": WORKLOADS[workload]["why"],
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
