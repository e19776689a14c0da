"""Fast self-test of the benchmark (about a minute):

    python3 calibbench/selftest.py

1. Every workload runs at the tiny size, untraced and traced, through the
   command line; every metric that BENCHMARK.json names must be printed
   with its unit and a finite value, and no other metric may appear.
   Operations need not pass at this size: 8 coarse frames are below the
   method's range, and the second envelope corner raises Unobservable.
   Failed tiny operations are listed as notes.
2. Each workload runs again in-process with `extrinsic.calibrate` replaced
   by a stub that returns the initial guess as a converged estimate; every
   such operation must be counted as failed for its error, so the accuracy
   check is seen to fire.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def check_cli(spec: dict, workload: str, trace: int) -> list[str]:
    """Problems with one tiny command-line run's result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                        f"operations failed")
    elif result["failed"]:
        failed_lines = [line for line in proc.stderr.splitlines()
                        if " FAILED: " in line]
        print(f"note: {where}: {result['failed']} of {result['attempted']} "
              f"tiny operations failed: {failed_lines}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{where}: metrics {sorted(metrics)} do not match "
                        f"BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
        if not math.isfinite(got["value"]):
            problems.append(f"{where}: {m['name']} = {got['value']}")
    return problems


def check_fault_is_caught(workload: str) -> list[str]:
    sys.path.insert(0, str(HERE))
    import run
    run.import_program()
    from lidarcalib import extrinsic

    original = extrinsic.calibrate

    def returns_guess(index, frames_b, anchors, t_guess, cfg=None):
        return extrinsic.CalibrationResult(t_guess, [], [], True, 0)

    extrinsic.calibrate = returns_guess
    try:
        record = run.run_workload(workload, SEED, 0.0, trace=False, size="tiny")
    finally:
        extrinsic.calibrate = original
    if record["failed"] != record["attempted"]:
        return [f"{workload}: an estimate equal to its guess passed the checks "
                f"({record['failed']} of {record['attempted']} failed)"]
    reasons = [r["failures"] for r in record["operations"]]
    if not all(any(f.startswith("e_trans") for f in rs) for rs in reasons):
        return [f"{workload}: guess not rejected for its error: {reasons}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_cli(spec, workload, trace)
        problems += check_fault_is_caught(workload)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
