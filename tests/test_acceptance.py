"""End-to-end acceptance criteria for the calibration pipeline.

Each test covers one numbered criterion at its stated tolerance and prints a
pass line (run with -s to see them). The expensive protocol runs (criteria
1-4) are session fixtures so the monotonicity audit (criterion 9) can scan
every recorded trace without re-running anything.
"""

import math
import time
import zlib

import numpy as np
import pytest

from lidarcalib import cli
from lidarcalib import extrinsic as ext
from lidarcalib import geometry as geo
from lidarcalib import lba
from lidarcalib import pointcloud as pc
from lidarcalib import simulator as sim
from lidarcalib import voxelmap as vm
from lidarcalib.config import RunConfig
from lidarcalib.geometry import Pose
from lidarcalib.ptplane import PlaneBatch, planarity

from test_geometry import random_pose
from test_voxelmap import PLANAR, SUBDIVIDED, octree_nodes, plane_patch


def report(criterion, text):
    print(f"\n[criterion {criterion}] PASS: {text}")


@pytest.fixture(scope="session")
def trials_config1():
    """Criterion 1 protocol: room, 40 frames, config1 rig, 0.01 m range
    noise, 10 trials with random initial perturbations up to 0.4 m / 30 deg.
    """
    rows = []
    start = time.perf_counter()
    for trial in range(10):
        cfg = RunConfig()
        rows.append(cli.run_trial(cfg, trial, base_seed=100, perturb_spec=(0.4, 30.0)))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def envelope_runs():
    """Criterion 3 protocol: one sigma=0.01 dataset, ten initial guesses at
    the full envelope corner (|t| components = 0.4 m, rotation = 30 deg)."""
    cfg = RunConfig()
    scene, traj, rig, model = cli._sim_objects(cfg)
    ds = sim.generate_dataset(scene, traj, rig, model, seed=500, rig_name="config1")
    frames = cli._deskew_all(ds.frames_a, traj, model.scan_period)
    lba_result = lba.run_sliding_lba(frames, traj, cfg.lba)
    index = cli.build_map_index(lba_result.map.points, cfg)
    anchors = list(lba_result.trajectory.poses)
    runs = []
    rng = np.random.default_rng(77)
    for k in range(10):
        signs = rng.choice([-1.0, 1.0], size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        guess = Pose(geo.exp_so3(axis * math.radians(30.0)) @ ds.extrinsic.rotation,
                     ds.extrinsic.translation + 0.4 * signs)
        result = ext.calibrate(index, ds.frames_b, anchors, guess, cfg.calib)
        runs.append((guess, result, ds.extrinsic))
    return runs, lba_result


@pytest.fixture(scope="session")
def noisy_odometry_run():
    """Criterion 4 protocol: 5 cm Gaussian trajectory noise; deskewing uses
    the true short-term motion (the IMU analogue), the noisy sequence seeds
    the window optimization."""
    cfg = RunConfig()
    scene, traj, rig, model = cli._sim_objects(cfg)
    ds = sim.generate_dataset(scene, traj, rig, model, seed=900, rig_name="config1")
    noisy = sim.add_trajectory_noise(traj, 0.05, 0.0, seed=901)
    frames = cli._deskew_all(ds.frames_a, traj, model.scan_period)
    lba_result = lba.run_sliding_lba(frames, noisy, cfg.lba)
    before = lba.trajectory_error(noisy, traj)
    after = lba.trajectory_error(lba_result.trajectory, traj)
    index = cli.build_map_index(lba_result.map.points, cfg)
    guess = sim.perturb(ds.extrinsic, 0.2, 15.0, seed=902)
    result = ext.calibrate(index, ds.frames_b,
                           list(lba_result.trajectory.poses), guess, cfg.calib)
    return before, after, result, ds.extrinsic, lba_result


class TestCriterion1:
    def test_mean_errors_and_runtime(self, trials_config1):
        rows, elapsed = trials_config1
        mean_t = float(np.mean([r["final_e_trans"] for r in rows]))
        mean_r = float(np.mean([r["final_e_rot"] for r in rows]))
        assert mean_t <= 0.010, f"mean e_trans {mean_t:.4f} m"
        assert mean_r <= 0.010, f"mean e_rot {mean_r:.4f} rad"
        assert elapsed <= 600.0, f"runtime {elapsed:.0f} s"
        report(1, f"10 trials: mean e_trans {mean_t * 1000:.2f} mm, "
                  f"mean e_rot {mean_r:.5f} rad, {elapsed:.0f} s total")


class TestCriterion2:
    def test_zero_noise_exactness_all_rigs(self):
        cfg = RunConfig()
        cfg.sim.range_sigma = 0.0
        scene, traj, rig, model = cli._sim_objects(cfg)
        # sensor A data and the map do not depend on the rig
        ends = pc.scan_end_poses(traj, model.scan_period)
        frames_a = [sim.simulate_scan(scene, p, e, model, (321, 0, j),
                                      stamp=float(traj.stamps[j]))
                    for j, (p, e) in enumerate(zip(traj.poses, ends))]
        deskewed = [pc.deskew(f, p, e)
                    for f, p, e in zip(frames_a, traj.poses, ends)]
        lba_result = lba.run_sliding_lba(deskewed, traj, cfg.lba)
        index = cli.build_map_index(lba_result.map.points, cfg)
        anchors = list(lba_result.trajectory.poses)
        worst = (0.0, 0.0)
        for name, preset in sim.RIG_PRESETS.items():
            gt = preset.to_pose()
            frames_b = [sim.simulate_scan(
                scene, geo.compose(p, gt), geo.compose(e, gt), model,
                (321, 1, j), stamp=float(traj.stamps[j]))
                for j, (p, e) in enumerate(zip(traj.poses, ends))]
            # str hash() is salted per process; crc32 is stable across runs
            guess = sim.perturb(gt, 0.2, 15.0, seed=zlib.crc32(name.encode()))
            result = ext.calibrate(index, frames_b, anchors, guess, cfg.calib)
            e_t, e_r = ext.evaluate(result, gt)
            worst = (max(worst[0], e_t), max(worst[1], e_r))
            assert e_t < 1e-5, f"{name}: e_trans {e_t:.2e} m"
            assert e_r < 1e-5, f"{name}: e_rot {e_r:.2e} rad"
        report(2, f"all 5 rig presets recover exactly "
                  f"(worst e_trans {worst[0]:.2e} m, e_rot {worst[1]:.2e} rad)")


class TestCriterion3:
    def test_envelope_convergence(self, envelope_runs):
        runs, _ = envelope_runs
        iters = []
        for guess, result, gt in runs:
            initial = result.outer_trace[0].objective_before
            final = result.outer_trace[-1].objective_after
            assert final < 0.01 * initial, \
                f"objective only reduced {final / initial:.1%}"
            iters.append(result.iterations)
        mean_iters = float(np.mean(iters))
        assert mean_iters <= 15.0, f"mean outer iterations {mean_iters:.1f}"
        report(3, f"10/10 envelope trials converged; mean outer iterations "
                  f"{mean_iters:.1f} (paper-scale plausibility: ~8)")


class TestCriterion4:
    def test_noisy_odometry(self, noisy_odometry_run):
        before, after, result, gt, _ = noisy_odometry_run
        assert after[0] <= 0.5 * before[0], \
            f"trajectory error {before[0]:.4f} -> {after[0]:.4f} m"
        e_t, _ = ext.evaluate(result, gt)
        assert e_t <= 0.02, f"calibration e_trans {e_t:.4f} m"
        report(4, f"trajectory error {before[0] * 1000:.1f} -> "
                  f"{after[0] * 1000:.2f} mm; calibration e_trans "
                  f"{e_t * 1000:.2f} mm")


class TestCriterion5:
    def test_jacobian_finite_differences(self):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            plane_normal = rng.normal(size=3)
            plane_normal /= np.linalg.norm(plane_normal)
            # one-row batch: point, plane centroid, then a random anchor
            point = rng.uniform(-3, 3, size=(1, 3))
            centroid = rng.uniform(-3, 3, size=(1, 3))
            batch = PlaneBatch(point, plane_normal[None, :], centroid,
                               np.ones(1), random_pose(rng))
            t = random_pose(rng)
            row = batch.jacobian(t)[0]
            scale = max(float(np.linalg.norm(row)), 1e-9)
            for k in range(6):
                delta = np.zeros(6)
                delta[k] = h
                rp = batch.residuals(geo.compose(t, geo.exp_se3(delta)))[0]
                rm = batch.residuals(geo.compose(t, geo.exp_se3(-delta)))[0]
                fd = (rp - rm) / (2 * h)
                # relative to the row scale: near-zero entries are dominated
                # by the oracle's own cancellation noise
                worst = max(worst, abs(row[k] - fd) / scale)
        elapsed = time.perf_counter() - start
        assert worst < 1e-5, f"max relative error {worst:.2e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        report(5, f"1000 rows: max relative FD error {worst:.2e} in {elapsed:.2f} s")


class TestCriterion6:
    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100000):
            vec = rng.uniform(-1.0, 1.0, size=6)
            angle = np.linalg.norm(vec[:3])
            if angle >= math.pi - 1e-6:
                continue
            back = geo.log_se3(geo.exp_se3(vec))
            worst = max(worst, float(np.max(np.abs(back - vec))))
        assert worst < 1e-9, f"worst round-trip error {worst:.2e}"
        report(6, f"1e5 twists round trip, worst error {worst:.2e}")

    def test_rotation_error_recovers_angles(self):
        gt = Pose(geo.rot_z(0.73) @ geo.rot_x(-0.31), np.array([1.0, 2.0, 3.0]))
        worst = 0.0
        for theta in np.linspace(1e-6, math.pi - 1e-6, 500):
            est = Pose(geo.rot_y(theta) @ gt.rotation, gt.translation)
            worst = max(worst, abs(geo.rotation_error(est, gt) - theta))
        assert worst < 1e-9, f"worst angle error {worst:.2e}"
        report(6, f"angle sweep recovered within {worst:.2e} rad")


class TestCriterion7:
    def test_single_plane_roots_planar(self):
        xs = np.arange(0.025, 10.0, 0.05)
        xx, yy = np.meshgrid(xs, xs)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        index = vm.build_adaptive(pts, vm.VoxelParams())
        nodes = octree_nodes(index)
        assert nodes and all(s == PLANAR for s, _ in nodes.values())
        eta = planarity(index.planes.eigenvalues)
        assert np.all(eta < 0.01)
        report(7, f"single-plane map: {len(index.planes)} planar roots, "
                  f"max eta {eta.max():.2e}")

    def test_corner_voxel_subdivides(self):
        rng = np.random.default_rng(2)
        a = plane_patch(rng, [0, 0, 1], [0.5, 0.5, 0.5], 0.49, 500)
        b = plane_patch(rng, [1, 0, 0], [0.5, 0.5, 0.5], 0.49, 500)
        pts = np.clip(np.vstack([a, b]), 0.001, 0.999)
        index = vm.build_adaptive(pts, vm.VoxelParams(max_depth=2))
        assert octree_nodes(index)[(0, 0, 0, 0)][0] == SUBDIVIDED

    def test_merge_idempotent_100_layouts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_cells = rng.integers(2, 6)
            patches = []
            for _ in range(n_cells):
                cell = rng.integers(0, 3, size=3).astype(float)
                patches.append(plane_patch(rng, rng.normal(size=3), cell + 0.5,
                                           0.38, 60, noise=0.002))
            pts = np.vstack(patches)
            index = vm.build_adaptive(pts, vm.VoxelParams(min_points=5))
            once = vm.merge_neighbors(index, math.radians(8.0), 1.5)
            twice = vm.merge_neighbors(once, math.radians(8.0), 1.5)
            assert len(once.planes) == len(twice.planes)
            np.testing.assert_allclose(once.planes.normals, twice.planes.normals,
                                       atol=1e-12)
            np.testing.assert_allclose(once.planes.centroids,
                                       twice.planes.centroids, atol=1e-12)
        report(7, "merge_neighbors idempotent on 100 random layouts")


class TestCriterion8:
    def test_window_arithmetic_exhaustive(self):
        checked = 0
        for n in range(1, 201):
            for w in range(2, 41):
                for d in range(2, w + 1, 2):
                    plan = lba.plan_windows(n, w, d)
                    o = d // 2
                    if n <= d or w > n:
                        assert plan.windows == [(0, n - 1)]
                    else:
                        expected_k = math.ceil((n - d) / (d - o)) + 1
                        assert len(plan.windows) == expected_k, (n, w, d)
                        for m, (s, e) in enumerate(plan.windows):
                            assert s == m * (d - o)
                            assert e == min(s + w - 1, n - 1)
                    # gap-free coverage of [0, n-1]
                    assert plan.windows[0][0] == 0
                    assert plan.windows[-1][1] == n - 1
                    for (s1, e1), (s2, e2) in zip(plan.windows, plan.windows[1:]):
                        assert s2 <= e1 + 1
                    checked += 1
        report(8, f"window plan formula verified over {checked} (n, w, d) triples")


class TestCriterion9:
    def test_all_traces_monotone(self, trials_config1, envelope_runs,
                                 noisy_odometry_run):
        rows, _ = trials_config1
        results = [r["result"] for r in rows]
        lba_windows = [w for r in rows for w in r["lba_windows"]]
        env_runs, env_lba = envelope_runs
        results += [r for _, r, _ in env_runs]
        lba_windows += env_lba.window_results
        before, after, noisy_result, _, noisy_lba = noisy_odometry_run
        results.append(noisy_result)
        lba_windows += noisy_lba.window_results
        lm_steps = 0
        outer_steps = 0
        for result in results:
            for entry in result.outer_trace:
                assert entry.objective_after <= entry.objective_before
                outer_steps += 1
            for iteration in result.lm_traces:
                for step in iteration:
                    if step["accepted"]:
                        assert step["cand_cost"] < step["cost"]
                        lm_steps += 1
        for window in lba_windows:
            for step in window.trace:
                if step["accepted"]:
                    assert step["cand_cost"] < step["cost"]
                    lm_steps += 1
            assert window.final_cost <= window.initial_cost + 1e-9
        report(9, f"zero violations over {outer_steps} outer steps and "
                  f"{lm_steps} accepted LM steps")


class TestCriterion10:
    def test_calibration_scales_subquadratically(self):
        cfg = RunConfig()
        cfg.sim.range_sigma = 0.01
        cfg.sim.frames = 10
        cfg.calib.downsample_leaf = 0.0  # scale in raw point count
        cfg.calib.rot_seed_candidates = 0
        scene, traj, rig, model0 = cli._sim_objects(cfg)
        gt = sim.RIG_PRESETS["config1"].to_pose()
        ends = pc.scan_end_poses(traj, model0.scan_period)
        # fixed map from the reference sensor at full resolution
        frames_a = [sim.simulate_scan(scene, p, e, model0, (7, 0, j),
                                      stamp=float(traj.stamps[j]))
                    for j, (p, e) in enumerate(zip(traj.poses, ends))]
        deskewed = [pc.deskew(f, p, e)
                    for f, p, e in zip(frames_a, traj.poses, ends)]
        map_pts = np.vstack([
            geo.apply(p, pc.voxel_downsample(f, 0.1).positions)
            for f, p in zip(deskewed, traj.poses)])
        index = cli.build_map_index(map_pts, cfg)
        counts = []
        times = []
        for res_deg in (5.76, 1.44, 0.36):
            model_b = sim.LidarModel(horizontal_res_deg=res_deg,
                                     range_sigma=0.01)
            frames_b = [sim.simulate_scan(
                scene, geo.compose(p, gt), geo.compose(e, gt), model_b,
                (7, 1, j), stamp=float(traj.stamps[j]))
                for j, (p, e) in enumerate(zip(traj.poses, ends))]
            total = sum(len(f) for f in frames_b)
            guess = sim.perturb(gt, 0.05, 3.0, 5)

            def run(iters):
                c = RunConfig().calib
                c.downsample_leaf = 0.0
                c.rot_seed_candidates = 0
                c.max_outer_iters = iters
                c.convergence_delta = 1e-12
                t0 = time.perf_counter()
                ext.calibrate(index, frames_b, list(traj.poses), guess, c)
                return time.perf_counter() - t0

            # difference isolates the per-iteration cost from setup
            t_short = run(2)
            t_long = run(6)
            counts.append(total)
            times.append(max((t_long - t_short) / 4.0, 1e-4))
        slope = np.polyfit(np.log(counts), np.log(times), 1)[0]
        assert slope < 1.5, f"log-log slope {slope:.2f} over counts {counts}"
        report(10, f"per-iteration time scaling: counts {counts}, "
                   f"times {[f'{t:.3f}' for t in times]} s, slope {slope:.2f}")
