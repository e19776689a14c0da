"""Print one digest line per fixed protocol input, to show that a change
leaves results bitwise equal.

    python3 scripts/protocol_digest.py > digest.txt

It imports `lidarcalib` from the `src/` of the checkout it sits in, so run
it in two checkouts and compare the outputs with `diff`. The inputs are the
benchmark's own (`calibbench/workloads.py`, read and not edited):

- `pipeline-room` perturbation seed 100;
- `calib-envelope` corners 0 and 1;
- `pipeline-noisy-odometry` perturbation seed 902;
- `cli.run_trial` trial 0 of the yard (arc) and of the corridor (line),
  whose LBA is decided by rounding.

Each line's SHA-256 covers the extrinsic's bytes, `iterations` and
`converged`; every outer iteration's objectives, `frames_used` and
`skipped_frames`; and, where LBA ran, the refined trajectory and every
window's `initial_cost` and `final_cost`. The run takes about a minute
with one BLAS thread.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "calibbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from lidarcalib import cli  # noqa: E402
from lidarcalib.config import RunConfig  # noqa: E402


def digest(result, lba_result) -> str:
    """SHA-256 of a calibration result and, if given, its LBA result."""
    h = hashlib.sha256()

    def add(*values):
        for v in values:
            h.update(np.asarray(v).tobytes() if isinstance(v, np.ndarray)
                     else repr(v).encode())

    add(result.extrinsic.rotation, result.extrinsic.translation,
        result.iterations, result.converged)
    for entry in result.outer_trace:
        add(entry.objective_before, entry.objective_after, entry.frames_used,
            entry.skipped_frames)
    if lba_result is not None:
        for pose in lba_result.trajectory.poses:
            add(pose.rotation, pose.translation)
        for window in lba_result.window_results:
            add(window.initial_cost, window.final_cost)
    return h.hexdigest()


def line(label: str, result, lba_result) -> str:
    return (f"{label}: {digest(result, lba_result)} "
            f"iterations={result.iterations} converged={result.converged}")


def workload_lines():
    cfg = workloads.make_config("full")
    for name in ("pipeline-room", "calib-envelope", "pipeline-noisy-odometry"):
        workload = workloads.WORKLOADS[name]
        state = workload.setup(cfg)
        for op in workload.round(state):
            outcome = workload.run(state, op)
            lba_result = (outcome.lba_result if outcome.lba_result is not None
                          else state.lba_result)
            yield line(f"{name} {op.label}", outcome.result, lba_result)


def trial_lines():
    """`cli.run_trial` trial 0 of the yard and the corridor, with the LBA
    result it returns."""
    for scene, kind in (("yard", "arc"), ("corridor", "line")):
        cfg = RunConfig()
        cfg.sim.scene = scene
        cfg.sim.traj_kind = kind
        row = cli.run_trial(cfg, 0, base_seed=100, perturb_spec=(0.4, 30.0))
        yield line(f"{scene} ({kind}) trial 0", row["result"], row["lba"])


def main() -> None:
    for lines in (workload_lines(), trial_lines()):
        for text in lines:
            print(text, flush=True)


if __name__ == "__main__":
    main()
