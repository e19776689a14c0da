"""Calibration trials beyond the default room.

Each trial is `cli.run_trial` with base seed 100 and guesses up to
0.4 m / 30 deg, as in criterion 1: the room moved by one rigid transform,
and the yard and corridor scenes, the yard also against its exact map.
"""

import math

import numpy as np
import pytest

from lidarcalib import cli
from lidarcalib import extrinsic as ext
from lidarcalib import geometry as geo
from lidarcalib import pointcloud as pc
from lidarcalib import simulator as sim
from lidarcalib.config import RunConfig
from lidarcalib.geometry import Pose
from lidarcalib.pointcloud import Trajectory


def moved_world(scene: sim.Scene, traj: Trajectory,
                g: Pose) -> tuple[sim.Scene, Trajectory]:
    """The scene and the trajectory moved by g; the sensors see the same
    sweeps, and the extrinsic is unchanged."""
    rects = [sim.Rect(geo.apply(g, r.corner), g.rotation @ r.e1,
                      g.rotation @ r.e2) for r in scene.rects]
    return (sim.Scene(scene.name, rects),
            Trajectory(traj.stamps, [geo.compose(g, p) for p in traj.poses]))


# the lattice shift puts the room's walls, floor and ceiling on the 1 m voxel
# lattice planes; at seed 103 the consensus used to alternate between two
# frame sets and never meet the convergence test
@pytest.mark.parametrize("g,trial", [
    (Pose(np.eye(3), np.array([-0.5, -0.5, -0.45])), 3),
    (Pose(geo.rot_z(math.radians(30.0)), np.array([1.0, 0.5, 0.0])), 1),
], ids=["lattice-103", "yaw-101"])
def test_moved_room_converges(monkeypatch, g, trial):
    sim_objects = cli._sim_objects

    def moved_sim_objects(cfg):
        scene, traj, rig, model = sim_objects(cfg)
        return (*moved_world(scene, traj, g), rig, model)

    monkeypatch.setattr(cli, "_sim_objects", moved_sim_objects)
    row = cli.run_trial(RunConfig(), trial, base_seed=100, perturb_spec=(0.4, 30.0))
    assert row["result"].converged
    assert row["final_e_trans"] <= 0.010, f"e_trans {row['final_e_trans']:.4f} m"


def exact_map_trial(cfg: RunConfig, trial: int, base_seed: int = 100,
                    perturb_spec: tuple[float, float] = (0.4, 30.0)) -> dict:
    """`cli.run_trial` with the LBA replaced by the ground truth: the map is
    built from the deskewed, downsampled reference frames at the exact
    poses, and those poses are the anchors."""
    seed = base_seed + trial
    scene, traj, rig, model = cli._sim_objects(cfg)
    ds = sim.generate_dataset(scene, traj, rig, model, seed, rig_name=cfg.sim.rig)
    frames = cli._deskew_all(ds.frames_a, traj, model.scan_period)
    points = np.vstack([
        geo.apply(p, pc.voxel_downsample(f, cfg.lba.downsample_leaf).positions)
        for f, p in zip(frames, traj.poses)])
    guess = sim.perturb(ds.extrinsic, perturb_spec[0], perturb_spec[1], seed)
    result = ext.calibrate(cli.build_map_index(points, cfg), ds.frames_b,
                           list(traj.poses), guess, cfg.calib)
    return {"result": result,
            "final_e_trans": ext.evaluate(result, ds.extrinsic)[0]}


# LBA drifts in the yard and the corridor, so calibration may fail there; it
# must not claim convergence when it does. Against the exact map of yard
# trial 0, a consensus of 3x the median residual left frames 35-39 out for
# good and converged 13 mm off. An LBA that searched neighbors once per
# window drifted further, and yard trial 0 then converged 236 mm off.
@pytest.mark.parametrize("scene,traj_kind,trial,exact_map", [
    ("yard", "arc", 0, False), ("yard", "arc", 1, False),
    ("corridor", "line", 0, False), ("corridor", "line", 1, False),
    ("yard", "arc", 0, True)],
    ids=["yard-0", "yard-1", "corridor-0", "corridor-1", "yard-exact-0"])
def test_no_false_convergence(scene, traj_kind, trial, exact_map):
    cfg = RunConfig()
    cfg.sim.scene = scene
    cfg.sim.traj_kind = traj_kind
    if exact_map:
        row = exact_map_trial(cfg, trial)
    else:
        row = cli.run_trial(cfg, trial, base_seed=100, perturb_spec=(0.4, 30.0))
    assert not row["result"].converged or row["final_e_trans"] <= 0.010, \
        f"converged {row['final_e_trans']:.3f} m off"
