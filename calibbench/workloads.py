"""The benchmark's workloads: their inputs, the timed operations, and the
checks every operation must pass.

All three use the room scene, 40 frames and the config1 rig with 0.01 m
range noise. An operation ends in one `extrinsic.calibrate` call; a
pipeline operation also deskews, runs the sliding-window LBA and builds the
voxel plane map first. Only the program calls are timed: checks run after.

The inputs are the acceptance protocols' own: fixed datasets, odometry
noise and initial guesses, the same in every run. They do not depend on the
run's seed because on some drawn datasets, noise draws and guesses
`calibrate` ends within tolerance but never meets its convergence test, so
the number of failed operations would depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidarcalib import cli
from lidarcalib import extrinsic as ext
from lidarcalib import lba
from lidarcalib import pointcloud as pc
from lidarcalib import simulator as sim
from lidarcalib.config import RunConfig, parse_config_lines
from lidarcalib.geometry import Pose
from lidarcalib.voxelmap import VoxelMapIndex

import truth

# A scaled-down protocol for the self-test: few frames, coarse scans and
# no range noise.
TINY_CONFIG = """
sim.frames = 8
sim.traj_length = 2.0
sim.horizontal_res_deg = 2.0
sim.range_sigma = 0
lba.window = 8
lba.step = 4
calib.downsample_leaf = 0.15
"""

E_ROT_LIMIT = 0.010        # rad, every workload
LBA_COST_SLACK = 1e-9      # window final_cost may exceed initial_cost by this


def make_config(size: str) -> RunConfig:
    return parse_config_lines(TINY_CONFIG.splitlines()) if size == "tiny" \
        else RunConfig()


@dataclass
class Inputs:
    """One simulated dataset plus its independent ground truth."""

    cfg: RunConfig
    dataset: sim.SimDataset
    gt_rot: np.ndarray
    gt_trans: np.ndarray
    odometry: pc.Trajectory


@dataclass
class Operation:
    label: str
    guess: Pose


@dataclass
class Outcome:
    result: ext.CalibrationResult
    lba_result: lba.LbaResult | None = None
    deskewed: list[pc.Frame] | None = None


def simulate(cfg: RunConfig, dataset_seed: int,
             odometry_noise: tuple[float, int] | None = None) -> Inputs:
    """The dataset, its ground truth, and the odometry LBA starts from:
    exact, or with (sigma, seed) Gaussian translation noise."""
    s = cfg.sim
    scene = sim.builtin_scene(s.scene)
    traj = sim.make_trajectory(s.traj_kind, s.traj_length, s.frames, dt=s.dt,
                               start=(s.start_x, s.start_y, s.start_z),
                               sweep_deg=s.sweep_deg)
    model = sim.LidarModel(beams=s.beams, vertical_fov_deg=s.vertical_fov_deg,
                           horizontal_res_deg=s.horizontal_res_deg,
                           max_range=s.max_range, range_sigma=s.range_sigma,
                           scan_period=s.scan_period)
    rig = sim.RIG_PRESETS[s.rig]
    ds = sim.generate_dataset(scene, traj, rig, model, dataset_seed,
                              rig_name=s.rig)
    gt_rot, gt_trans = truth.rig_extrinsic(rig)
    odometry = traj
    if odometry_noise is not None:
        sigma, noise_seed = odometry_noise
        odometry = sim.add_trajectory_noise(traj, sigma, 0.0, seed=noise_seed)
    return Inputs(cfg, ds, gt_rot, gt_trans, odometry)


def build_map(inputs: Inputs):
    """Deskew sensor A's sweeps, run the sliding-window LBA from the
    odometry, and voxelize its map: (deskewed frames, LBA result, index)."""
    cfg, ds = inputs.cfg, inputs.dataset
    traj = ds.trajectory
    ends = pc.scan_end_poses(traj, ds.model.scan_period)
    frames = [pc.deskew(f, p, e) for f, p, e in zip(ds.frames_a, traj.poses, ends)]
    lba_result = lba.run_sliding_lba(frames, inputs.odometry, cfg.lba)
    return frames, lba_result, cli.build_map_index(lba_result.map.points, cfg)


def calibrate(inputs: Inputs, index: VoxelMapIndex, lba_result: lba.LbaResult,
              guess: Pose) -> ext.CalibrationResult:
    return ext.calibrate(index, inputs.dataset.frames_b,
                         list(lba_result.trajectory.poses), guess,
                         inputs.cfg.calib)


def offset_guess(inputs: Inputs, d_rot: np.ndarray, d_trans: np.ndarray) -> Pose:
    return Pose(d_rot @ inputs.gt_rot, inputs.gt_trans + d_trans)


# --- checks: each returns a list of failure reasons, empty when all hold


def check_dataset(inputs: Inputs) -> list[str]:
    ext_gt = inputs.dataset.extrinsic
    gap = max(float(np.max(np.abs(ext_gt.rotation - inputs.gt_rot))),
              float(np.max(np.abs(ext_gt.translation - inputs.gt_trans))))
    if gap > 1e-12:
        return [f"dataset extrinsic differs from the rig preset by {gap:.3g}"]
    return []


def check_lba(inputs: Inputs, lba_result: lba.LbaResult,
              deskewed: list[pc.Frame]) -> list[str]:
    fails = []
    for m, window in enumerate(lba_result.window_results):
        if window.final_cost > window.initial_cost + LBA_COST_SLACK:
            fails.append(f"LBA window {m}: final_cost {window.final_cost:.9g} > "
                         f"initial_cost {window.initial_cost:.9g}")
        fails += [f"LBA window {m}: accepted step raised cost "
                  f"{s['cost']:.9g} -> {s['cand_cost']:.9g}"
                  for s in window.trace
                  if s["accepted"] and not s["cand_cost"] < s["cost"]]
    leaf = inputs.cfg.lba.downsample_leaf
    expected = sum(truth.occupied_cells(f.positions, leaf) for f in deskewed)
    if len(lba_result.map.points) != expected:
        fails.append(f"map has {len(lba_result.map.points)} points, the "
                     f"downsampled frames {expected}")
    return fails


def check_calibration(inputs: Inputs, result: ext.CalibrationResult,
                      e_trans_limit: float) -> list[str]:
    fails = []
    est = result.extrinsic
    e_t = float(np.linalg.norm(est.translation - inputs.gt_trans))
    e_r = truth.rotation_angle(est.rotation, inputs.gt_rot)
    if not e_t <= e_trans_limit:
        fails.append(f"e_trans {e_t * 1000:.3f} mm > {e_trans_limit * 1000:g} mm")
    if not e_r <= E_ROT_LIMIT:
        fails.append(f"e_rot {e_r:.5f} rad > {E_ROT_LIMIT} rad")
    if not result.converged:
        fails.append(f"not converged after {result.iterations} outer iterations")
    for entry in result.outer_trace:
        if not entry.objective_after <= entry.objective_before:
            fails.append(f"outer iteration {entry.iteration}: objective "
                         f"{entry.objective_before:.9g} -> {entry.objective_after:.9g}")
    fails += [f"calibrate LM step raised cost {s['cost']:.9g} -> {s['cand_cost']:.9g}"
              for steps in result.lm_traces for s in steps
              if s["accepted"] and not s["cand_cost"] < s["cost"]]
    return fails


class Pipeline:
    """Every operation runs the whole pipeline on the set-up's dataset, from
    the guess `simulator.perturb(gt, *perturbation)`."""

    setup_repeats = 3

    def __init__(self, name: str, dataset_seed: int,
                 odometry_noise: tuple[float, int] | None,
                 perturbation: tuple[float, float, int], e_trans_limit: float):
        self.name = name
        self.dataset_seed = dataset_seed
        self.odometry_noise = odometry_noise
        self.perturbation = perturbation
        self.e_trans_limit = e_trans_limit

    def setup(self, cfg: RunConfig) -> Inputs:
        return simulate(cfg, self.dataset_seed, self.odometry_noise)

    def setup_failures(self, inputs: Inputs) -> list[str]:
        return check_dataset(inputs)

    def round(self, inputs: Inputs) -> list[Operation]:
        max_trans, max_rot_deg, seed = self.perturbation
        guess = sim.perturb(inputs.dataset.extrinsic, max_trans, max_rot_deg, seed)
        return [Operation(f"perturbation seed {seed}", guess)]

    def run(self, inputs: Inputs, op: Operation) -> Outcome:
        frames, lba_result, index = build_map(inputs)
        return Outcome(calibrate(inputs, index, lba_result, op.guess),
                       lba_result, frames)

    def check(self, inputs: Inputs, op: Operation, outcome: Outcome) -> list[str]:
        fails = check_lba(inputs, outcome.lba_result, outcome.deskewed)
        fails += check_calibration(inputs, outcome.result, self.e_trans_limit)
        if self.odometry_noise is not None:
            ref = inputs.dataset.trajectory.poses
            before = truth.trajectory_error(inputs.odometry.poses, ref)
            after = truth.trajectory_error(outcome.lba_result.trajectory.poses, ref)
            if not after <= 0.5 * before:
                fails.append(f"LBA trajectory error {after * 1000:.2f} mm is more "
                             f"than half the input's {before * 1000:.2f} mm")
        return fails


@dataclass
class MapInputs:
    inputs: Inputs
    deskewed: list[pc.Frame]
    lba_result: lba.LbaResult
    index: VoxelMapIndex


class Envelope:
    """LBA and the map are built once in set-up; every operation is one
    `calibrate` call from a guess at a corner of the full envelope."""

    name = "calib-envelope"
    dataset_seed = 500
    corner_seed = 77
    setup_repeats = 1
    ops_per_round = 2
    e_trans_limit = 0.010

    def setup(self, cfg: RunConfig) -> MapInputs:
        inputs = simulate(cfg, self.dataset_seed)
        return MapInputs(inputs, *build_map(inputs))

    def setup_failures(self, state: MapInputs) -> list[str]:
        return (check_dataset(state.inputs)
                + check_lba(state.inputs, state.lba_result, state.deskewed))

    def round(self, state: MapInputs) -> list[Operation]:
        """The first corners of the criterion-3 sequence."""
        rng = np.random.default_rng(self.corner_seed)
        ops = []
        for k in range(self.ops_per_round):
            d_rot, d_trans = truth.envelope_corner(rng, 0.4, 30.0)
            ops.append(Operation(f"corner {k}",
                                 offset_guess(state.inputs, d_rot, d_trans)))
        return ops

    def run(self, state: MapInputs, op: Operation) -> Outcome:
        return Outcome(calibrate(state.inputs, state.index, state.lba_result,
                                 op.guess))

    def check(self, state: MapInputs, op: Operation, outcome: Outcome) -> list[str]:
        result = outcome.result
        fails = check_calibration(state.inputs, result, self.e_trans_limit)
        if result.outer_trace:
            initial = result.outer_trace[0].objective_before
            final = result.outer_trace[-1].objective_after
            if not final < 0.01 * initial:
                fails.append(f"final objective {final:.6g} is not below 1% of "
                             f"the initial {initial:.6g}")
        return fails


WORKLOADS = {
    w.name: w for w in (
        Pipeline("pipeline-room", 100, None, (0.4, 30.0, 100), 0.010),
        Envelope(),
        Pipeline("pipeline-noisy-odometry", 900, (0.05, 901), (0.2, 15.0, 902),
                 0.020),
    )
}
