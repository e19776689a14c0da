"""Calibration benchmark: seconds per extrinsic estimate.

    python3 calibbench/run.py --workload pipeline-room --seed 1 \
        --seconds 10 --trace 0

Runs one workload in this process from the checkout's `src/`, checks every
estimate against ground truth computed here, and prints as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` every
public function of the pipeline modules is wrapped in a span and the
metrics are the per-layer ones. Spans and per-operation records go to
`.calibbench_out/` in the checkout. See calibbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".calibbench_out"
WORKLOAD_NAMES = ("pipeline-room", "calib-envelope", "pipeline-noisy-odometry")

# One process, one BLAS thread: the load never exceeds nproc, and a shared
# machine's other jobs disturb a single thread least.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracing  # noqa: E402  (imports numpy: after the thread settings)

END_TO_END_UNITS = {"setup_s": "s", "estimate_s": "s",
                    "estimates_per_min": "1/min", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded with the run; the inputs are the "
                             "acceptance protocols' own and do not depend on it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole rounds of operations until this much "
                             "operation time has passed (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's scaled-down protocol")
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lidarcalib
    except ImportError as exc:
        raise SystemExit(f"error: cannot import lidarcalib from {src}: {exc}")
    if Path(lidarcalib.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: lidarcalib imported from {lidarcalib.__file__}, "
                         f"not from {src}")
    import workloads
    return workloads


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Set up, run whole rounds of operations, and return the run record."""
    workloads = import_program()
    from lidarcalib import extrinsic, lba, pointcloud, simulator, voxelmap
    t_imported = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    cfg = workloads.make_config(size)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install([simulator, pointcloud, lba, voxelmap, extrinsic],
                       [lba, extrinsic])
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            span = tracer.open(tracing.SETUP) if tracer else None
            t0 = time.perf_counter()
            state = None  # the previous set-up's inputs are freed first
            state = workload.setup(cfg)
            setup_times.append(time.perf_counter() - t0)
            if span:
                tracer.close(span)
        setup_failures = workload.setup_failures(state)

        records = []
        t_ops = time.perf_counter()
        while not records or time.perf_counter() - t_ops < seconds:
            for op in workload.round(state):
                records.append(_run_operation(workload, state, op, tracer,
                                              setup_failures))
    finally:
        if tracer:
            tracer.uninstall()

    durations = [r["seconds"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    setup_s = (t_imported - T_START) + statistics.median(setup_times)
    run = {
        "workload": name, "seed": seed, "size": size, "trace": bool(trace),
        "attempted": len(records), "failed": failed,
        "setup_times": setup_times, "import_s": t_imported - T_START,
        "operations": records,
        "end_to_end": {
            "setup_s": setup_s,
            "estimate_s": statistics.median(durations),
            "estimates_per_min": 60.0 * (len(records) - failed) / sum(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if tracer:
        run["per_layer"] = tracer.per_layer()
        run["tracer"] = tracer
    return run


def _run_operation(workload, state, op, tracer, setup_failures) -> dict:
    span = tracer.open(tracing.OPERATION) if tracer else None
    t0 = time.perf_counter()
    try:
        outcome = workload.run(state, op)
    except Exception as exc:  # one failed estimate must not end the run
        elapsed = time.perf_counter() - t0
        if span:
            tracer.close(span)
        traceback.print_exc(file=sys.stderr)
        return {"label": op.label, "seconds": elapsed,
                "failures": [f"raised {type(exc).__name__}: {exc}"]}
    elapsed = time.perf_counter() - t0
    if span:
        tracer.close(span)
    failures = setup_failures + workload.check(state, op, outcome)
    return {"label": op.label, "seconds": elapsed, "failures": failures}


def main(argv=None) -> int:
    args = parse_args(argv)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.size)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{run['workload']}-{run['seed']}-{'trace' if args.trace else 'e2e'}"
    if args.size != "full":
        stem += f"-{args.size}"
    tracer = run.pop("tracer", None)
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(run, fh, indent=1)

    for rec in run["operations"]:
        status = "FAILED: " + "; ".join(rec["failures"]) if rec["failures"] else "ok"
        print(f"{rec['label']}: {rec['seconds']:.3f} s {status}", file=sys.stderr)
    print(f"{run['workload']}: estimate_s {run['end_to_end']['estimate_s']:.4f} "
          f"over {run['attempted']} operations", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in run["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in run["end_to_end"].items()}
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
