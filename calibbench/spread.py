"""Run one workload on several seeds and summarise each metric's spread.

    python3 calibbench/spread.py --workload calib-envelope --seeds 1-10

Runs `calibbench/run.py` once per seed, one process at a time, and prints
for every metric the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance
as a share of the median, plus the run's wall time. Raw result lines are
appended to `.calibbench_out/spread-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out_dir = ROOT / ".calibbench_out"
    out_dir.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls, failed, attempted = [], 0, 0
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        with open(out_dir / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps({"seed": seed, "trace": args.trace,
                                 "wall_s": walls[-1], "result": json.loads(line)})
                     + "\n")
        result = json.loads(line)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {walls[-1]:.1f} s wall, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)

    print(f"{args.workload}: {len(walls)} runs, {failed}/{attempted} operations "
          f"failed, wall median {statistics.median(walls):.1f} s, "
          f"total {sum(walls):.0f} s")
    print(f"{'metric':36s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:36s} {units[name]:6s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {share:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
