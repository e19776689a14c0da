import dataclasses
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


def reference_scan(scene, pose_start, pose_end, model, seed):
    """simulate_scan as a plain loop: every in-range plane hit of every
    rectangle is solved for, and a strictly nearer in-rectangle hit wins.
    Also returns how many rays met a second in-rectangle hit within 1e-12
    (relative) of their nearest, where the order of the tests matters."""
    n_az = max(1, int(round(360.0 / model.horizontal_res_deg)))
    fractions = np.arange(n_az) / n_az
    azimuths = 2.0 * math.pi * fractions
    if model.beams == 1:
        elevations = np.zeros(1)
    else:
        half = math.radians(model.vertical_fov_deg) / 2.0
        elevations = np.linspace(-half, half, model.beams)
    rel = geo.compose(geo.inverse(pose_start), pose_end)
    rot_i, trans_i = geo.exp_se3_scaled(geo.log_se3(rel), fractions)
    rot_w = pose_start.rotation @ rot_i
    origins = trans_i @ pose_start.rotation.T + pose_start.translation
    cos_el = np.cos(elevations)
    dirs_local = np.empty((n_az, len(elevations), 3))
    dirs_local[:, :, 0] = np.cos(azimuths)[:, None] * cos_el[None, :]
    dirs_local[:, :, 1] = np.sin(azimuths)[:, None] * cos_el[None, :]
    dirs_local[:, :, 2] = np.sin(elevations)[None, :]
    dirs_world = np.einsum("aij,abj->abi", rot_w, dirs_local)
    k = n_az * len(elevations)
    d_flat = dirs_world.reshape(k, 3)
    o_flat = np.repeat(origins, len(elevations), axis=0)
    best_tau = np.full(k, np.inf)
    ties = np.zeros(k, dtype=bool)
    for rect in scene.rects:
        n = rect.normal
        denom = d_flat @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = ((rect.corner - o_flat) @ n) / denom
        tau = np.where(np.abs(denom) < 1e-12, np.inf, tau)
        valid = (tau > 1e-9) & (tau <= model.max_range) & np.isfinite(tau)
        if not valid.any():
            continue
        p = o_flat[valid] + tau[valid, None] * d_flat[valid]
        basis = np.column_stack([rect.e1, rect.e2])
        coords = np.linalg.solve(basis.T @ basis, basis.T @ (p - rect.corner).T).T
        inside = np.all((coords >= -1e-12) & (coords <= 1.0 + 1e-12), axis=1)
        idx = np.nonzero(valid)[0][inside]
        ties[idx] |= np.abs(tau[idx] - best_tau[idx]) <= 1e-12 * tau[idx]
        closer = tau[idx] < best_tau[idx]
        best_tau[idx] = np.where(closer, tau[idx], best_tau[idx])
    hit = np.isfinite(best_tau)
    ranges = best_tau[hit]
    if model.range_sigma > 0.0 and len(ranges):
        rng = np.random.default_rng(seed)
        ranges = ranges + rng.normal(0.0, model.range_sigma, size=len(ranges))
    positions = dirs_local.reshape(k, 3)[hit] * ranges[:, None]
    offsets = np.repeat(fractions, len(elevations))[hit] * model.scan_period
    return positions, offsets, int(ties.sum())


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

    # moving sweeps through each scene, a 1-beam and a 2-degree sensor, and a
    # sensor 5 cm off the room's floor-wall edge whose rays hit both within
    # 1e-12 of each other
    @pytest.mark.parametrize("kind,start,end,model,min_ties", [
        ("room", Pose(geo.rot_z(0.3), [3.0, 3.0, 1.6]),
         Pose(geo.rot_z(0.4), [3.2, 3.1, 1.65]), sim.LidarModel(), 0),
        ("yard", Pose(geo.rot_z(-1.0), [1.0, -2.0, 1.5]),
         Pose(geo.rot_z(-0.9), [1.3, -1.9, 1.5]), sim.LidarModel(), 0),
        ("corridor", Pose(np.eye(3), [2.0, 0.5, 1.5]),
         Pose(geo.rot_z(0.05), [2.4, 0.5, 1.5]), sim.LidarModel(), 0),
        ("room", Pose(np.eye(3), [5.0, 4.0, 1.2]),
         Pose(np.eye(3), [5.1, 4.0, 1.2]), sim.LidarModel(beams=1), 0),
        ("room", Pose(geo.rot_z(1.0), [6.0, 2.0, 2.0]),
         Pose(geo.rot_z(1.2), [6.1, 2.2, 2.0]), COARSE, 0),
        ("room", Pose(np.eye(3), [0.55, 4.5, 0.5]),
         Pose(np.eye(3), [0.55, 4.5, 0.5]),
         sim.LidarModel(beams=2, vertical_fov_deg=90.0, range_sigma=0.0), 1),
    ], ids=["room", "yard", "corridor", "beams-1", "res-2deg", "edge-ties"])
    def test_bitwise_equal_to_reference_loop(self, kind, start, end, model,
                                             min_ties):
        scene = sim.builtin_scene(kind)
        frame = sim.simulate_scan(scene, start, end, model, (3, 0, 1))
        positions, offsets, ties = reference_scan(scene, start, end, model,
                                                  (3, 0, 1))
        assert ties >= min_ties
        assert len(frame) > 0
        assert np.array_equal(frame.positions, positions)
        assert np.array_equal(frame.time_offsets, offsets)

    def test_farther_hits_skip_the_solve(self, monkeypatch):
        # the nearer plane, listed first, covers every downward ray, so no
        # hit on the farther one can win and none of them is solved for
        # (the -1 degree beam meets the nearer plane 57.3 m out)
        model = sim.LidarModel(horizontal_res_deg=2.0, range_sigma=0.0,
                               max_range=200.0)
        near = sim.Rect([-60, -60, -1], [120, 0, 0], [0, 120, 0])
        far = sim.Rect([-150, -150, -2], [300, 0, 0], [0, 300, 0])
        solved = []
        solve = sim.np.linalg.solve

        def counting_solve(a, b):
            solved.append(b.shape[-1])
            return solve(a, b)

        monkeypatch.setattr(sim.np.linalg, "solve", counting_solve)
        frame = sim.simulate_scan(sim.Scene("two", [near, far]), Pose.identity(),
                                  Pose.identity(), model, 0)
        downward = 180 * 8  # 2-degree azimuth steps, 8 of 16 beams downward
        assert len(frame) == downward
        np.testing.assert_allclose(frame.positions[:, 2], -1.0, atol=1e-9)
        assert solved == [downward]

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

    def test_sensor_model_round_trip(self, tmp_path):
        scene = sim.builtin_scene("room")
        traj = sim.make_trajectory("line", 1.0, 2)
        ds = sim.generate_dataset(scene, traj, sim.RIG_PRESETS["config1"], COARSE, 3)
        sim.write_dataset(ds, tmp_path)
        assert COARSE != sim.LidarModel()
        assert sim.read_dataset(tmp_path).model == COARSE
        # a meta.txt without the model's keys reads as the default model
        meta = tmp_path / "meta.txt"
        names = {f.name for f in dataclasses.fields(sim.LidarModel)}
        lines = meta.read_text().splitlines()
        kept = [ln for ln in lines if ln.split("=")[0] not in names]
        assert len(lines) - len(kept) == len(names)
        meta.write_text("\n".join(kept) + "\n")
        assert sim.read_dataset(tmp_path).model == sim.LidarModel()


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
