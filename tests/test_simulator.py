import math

import numpy as np
import pytest

from lidarcalib import geometry as geo
from lidarcalib import pointcloud as pc
from lidarcalib import simulator as sim
from lidarcalib.errors import InvalidParams
from lidarcalib.geometry import Pose


def scene_distance(scene, point, tol=1e-9):
    """Distance from a world point to the nearest containing rectangle."""
    best = np.inf
    for rect in scene.rects:
        n = rect.normal
        d = abs(np.dot(point - rect.corner, n))
        basis = np.column_stack([rect.e1, rect.e2])
        coords = np.linalg.solve(basis.T @ basis, basis.T @ (point - rect.corner))
        if np.all(coords >= -tol) and np.all(coords <= 1.0 + tol):
            best = min(best, d)
    return best


COARSE = sim.LidarModel(horizontal_res_deg=2.0, range_sigma=0.0)


class TestScenes:
    @pytest.mark.parametrize("kind,count", [("room", 8), ("corridor", 4), ("yard", 5)])
    def test_rect_counts(self, kind, count):
        assert len(sim.builtin_scene(kind).rects) == count

    @pytest.mark.parametrize("kind", ["room", "corridor", "yard"])
    def test_normals_span_rank_3(self, kind):
        normals = np.stack([r.normal for r in sim.builtin_scene(kind).rects])
        assert np.linalg.matrix_rank(normals, tol=1e-6) == 3

    def test_unknown_scene(self):
        with pytest.raises(InvalidParams):
            sim.builtin_scene("void")


class TestSimulateScan:
    def test_single_downward_beam(self):
        scene = sim.Scene("plane", [sim.Rect([-5, -5, -1], [10, 0, 0], [0, 10, 0])])
        model = sim.LidarModel(beams=2, vertical_fov_deg=180.0,
                               horizontal_res_deg=90.0, range_sigma=0.0)
        frame = sim.simulate_scan(scene, Pose.identity(), Pose.identity(), model, 0)
        down = frame.positions[frame.positions[:, 2] < 0]
        assert len(down) == 4  # one per azimuth step
        for p in down:
            np.testing.assert_allclose(p, [0.0, 0.0, -1.0], atol=1e-9)

    def test_stationary_deskew_is_identity(self):
        scene = sim.builtin_scene("room")
        pose = Pose(np.eye(3), [3.0, 3.0, 1.6])
        frame = sim.simulate_scan(scene, pose, pose, COARSE, 1)
        out = pc.deskew(frame, pose, pose)
        np.testing.assert_allclose(out.positions, frame.positions, atol=1e-12)

    def test_noise_free_points_lie_on_scene(self):
        scene = sim.builtin_scene("room")
        start = Pose(geo.rot_z(0.3), [3.0, 3.0, 1.6])
        end = Pose(geo.rot_z(0.35), [3.1, 3.05, 1.6])
        frame = sim.simulate_scan(scene, start, end, COARSE, 2)
        assert len(frame) > 100
        rng = np.random.default_rng(0)
        sample = rng.choice(len(frame), size=200, replace=False)
        for i in sample:
            s = frame.time_offsets[i] / COARSE.scan_period
            pose_i = geo.interpolate_pose(start, end, s)
            world = geo.apply(pose_i, frame.positions[i])
            assert scene_distance(scene, world) < 1e-9

    def test_deterministic_for_seed(self):
        scene = sim.builtin_scene("room")
        model = sim.LidarModel(horizontal_res_deg=2.0, range_sigma=0.01)
        pose = Pose(np.eye(3), [3.0, 3.0, 1.6])
        end = Pose(np.eye(3), [3.1, 3.0, 1.6])
        f1 = sim.simulate_scan(scene, pose, end, model, 42)
        f2 = sim.simulate_scan(scene, pose, end, model, 42)
        np.testing.assert_array_equal(f1.positions, f2.positions)

    def test_max_range_cutoff(self):
        scene = sim.Scene("far", [sim.Rect([60, -5, -1], [0, 10, 0], [0, 0, 10])])
        frame = sim.simulate_scan(scene, Pose.identity(), Pose.identity(), COARSE, 0)
        assert len(frame) == 0


class TestMakeTrajectory:
    def test_line_spacing(self):
        traj = sim.make_trajectory("line", 10.0, 11)
        for i in range(10):
            step = traj.poses[i + 1].translation - traj.poses[i].translation
            np.testing.assert_allclose(step, [1.0, 0.0, 0.0], atol=1e-12)

    def test_arc_heading_change(self):
        traj = sim.make_trajectory("arc", 4.0, 20, sweep_deg=90.0)
        angle = geo.rotation_error(traj.poses[0], traj.poses[-1])
        assert angle == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_lissajous_bounded_steps(self):
        traj = sim.make_trajectory("lissajous", 4.0, 60)
        for a, b in zip(traj.poses, traj.poses[1:]):
            assert geo.translation_error(a, b) < 0.5
            assert geo.rotation_error(a, b) < math.radians(10.0)

    def test_too_few_frames(self):
        with pytest.raises(InvalidParams):
            sim.make_trajectory("line", 1.0, 1)


class TestGenerateDataset:
    def test_config1_points_on_surfaces(self):
        scene = sim.builtin_scene("room")
        traj = sim.make_trajectory("arc", 2.0, 4)
        ds = sim.generate_dataset(scene, traj, sim.RIG_PRESETS["config1"], COARSE, 0)
        ends = pc.scan_end_poses(traj, COARSE.scan_period)
        rng = np.random.default_rng(1)
        for j in (0, 3):
            frame = ds.frames_b[j]
            start_b = geo.compose(traj.poses[j], ds.extrinsic)
            end_b = geo.compose(ends[j], ds.extrinsic)
            sample = rng.choice(len(frame), size=100, replace=False)
            for i in sample:
                s = frame.time_offsets[i] / COARSE.scan_period
                world = geo.apply(geo.interpolate_pose(start_b, end_b, s),
                                  frame.positions[i])
                assert scene_distance(scene, world) < 1e-9

    def test_identity_rig_matches_sensor_a(self):
        scene = sim.builtin_scene("room")
        traj = sim.make_trajectory("line", 1.0, 3)
        ds = sim.generate_dataset(scene, traj, Pose.identity(), COARSE, 5)
        for fa, fb in zip(ds.frames_a, ds.frames_b):
            np.testing.assert_array_equal(fa.positions, fb.positions)

    def test_gt_vs_gt_evaluates_to_zero(self):
        gt = sim.RIG_PRESETS["config3"].to_pose()
        assert geo.translation_error(gt, gt) == 0.0
        assert geo.rotation_error(gt, gt) == 0.0

    def test_round_trip_to_sensor_coordinates(self):
        scene = sim.builtin_scene("room")
        traj = sim.make_trajectory("line", 1.0, 3)
        ds = sim.generate_dataset(scene, traj, sim.RIG_PRESETS["config2"], COARSE, 7)
        # world points pulled back through anchor and extrinsic reproduce the
        # stored sensor-local values
        j = 1
        frame = ds.frames_b[j]
        start_b = geo.compose(traj.poses[j], ds.extrinsic)
        deskewed = pc.deskew(frame, start_b, geo.compose(
            pc.scan_end_poses(traj, COARSE.scan_period)[j], ds.extrinsic))
        world = geo.apply(start_b, deskewed.positions)
        back = geo.apply(geo.inverse(ds.extrinsic),
                         geo.apply(geo.inverse(traj.poses[j]), world))
        np.testing.assert_allclose(back, deskewed.positions, atol=1e-9)

    def test_dataset_io_round_trip(self, tmp_path):
        scene = sim.builtin_scene("room")
        traj = sim.make_trajectory("line", 1.0, 2)
        ds = sim.generate_dataset(scene, traj, sim.RIG_PRESETS["config1"], COARSE, 3,
                                  rig_name="config1")
        sim.write_dataset(ds, tmp_path)
        back = sim.read_dataset(tmp_path)
        assert len(back.frames_a) == 2 and len(back.frames_b) == 2
        assert geo.translation_error(back.extrinsic, ds.extrinsic) < 1e-9
        assert back.rig_name == "config1"
        np.testing.assert_allclose(back.frames_a[0].positions,
                                   ds.frames_a[0].positions, atol=1e-6)


class TestPerturb:
    def test_zero_bounds_unchanged(self):
        pose = sim.RIG_PRESETS["config1"].to_pose()
        out = sim.perturb(pose, 0.0, 0.0, 1)
        assert geo.translation_error(out, pose) == 0.0
        assert geo.rotation_error(out, pose) < 1e-12

    def test_monte_carlo_caps(self):
        pose = sim.RIG_PRESETS["config1"].to_pose()
        max_trans, max_rot = 0.4, 30.0
        for seed in range(1000):
            out = sim.perturb(pose, max_trans, max_rot, seed)
            assert geo.translation_error(out, pose) <= math.sqrt(3) * max_trans + 1e-12
            assert geo.rotation_error(out, pose) <= math.radians(max_rot) + 1e-12

    def test_deterministic(self):
        pose = sim.RIG_PRESETS["config2"].to_pose()
        a = sim.perturb(pose, 0.3, 20.0, 99)
        b = sim.perturb(pose, 0.3, 20.0, 99)
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())


class TestTrajectoryNoise:
    def test_zero_sigma_unchanged(self):
        traj = sim.make_trajectory("line", 5.0, 10)
        out = sim.add_trajectory_noise(traj, 0.0, 0.0, 0)
        for a, b in zip(traj.poses, out.poses):
            np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())

    def test_translation_error_mean_matches_chi(self):
        traj = pc.Trajectory(np.arange(1000) * 0.1, [Pose.identity()] * 1000)
        out = sim.add_trajectory_noise(traj, 0.05, 0.0, 123)
        errs = np.array([geo.translation_error(a, b)
                         for a, b in zip(out.poses, traj.poses)])
        # mean of ||N(0, 0.05^2 I3)|| is about 0.0798
        assert 0.06 <= errs.mean() <= 0.10

    def test_noise_iid_across_poses(self):
        traj = pc.Trajectory(np.arange(1000) * 0.1, [Pose.identity()] * 1000)
        out = sim.add_trajectory_noise(traj, 0.05, 0.01, 7)
        errs = np.array([geo.translation_error(a, b)
                         for a, b in zip(out.poses, traj.poses)])
        centered = errs - errs.mean()
        lag1 = np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)
        assert abs(lag1) < 0.1
