import math

import numpy as np
import pytest

from lidarcalib import geometry as geo
from lidarcalib import lba
from lidarcalib import pointcloud as pc
from lidarcalib import ptplane
from lidarcalib import simulator as sim
from lidarcalib.errors import DegenerateGeometry, InvalidParams
from lidarcalib.geometry import Pose
from lidarcalib.ptplane import CostModel, PlaneBatch

from test_geometry import random_pose

MODEL = sim.LidarModel(horizontal_res_deg=1.5, range_sigma=0.0)
FAST = lba.LbaParams(downsample_leaf=0.25)


def normal_equations(model, pose, prior=None):
    """Gauss-Newton (H, g) at pose, as `ptplane.lm_refine` takes them from
    the model: H = D^T Q D = J^T W J, g = D^T (b + Q dx) = J^T W r, plus
    lam * I and lam * rho for a prior. g is half the gradient of the cost."""
    h, g = model.normal_equations(pose)
    if prior is not None:
        ref, lam = prior
        h += lam * np.eye(6)
        g += lam * ptplane.prior_residual(ref, pose)
    return h, g


def models_at(batches, poses):
    """Frame j's model at poses[j], as `lba.optimize_window` builds them."""
    return [CostModel.of(b, p) for b, p in zip(batches, poses[1:])]


def deskewed_frames(ds):
    ends = pc.scan_end_poses(ds.trajectory, ds.model.scan_period)
    return [pc.deskew(f, p, e)
            for f, p, e in zip(ds.frames_a, ds.trajectory.poses, ends)]


def room_dataset(n_frames, seed=0, model=MODEL, kind="arc", length=2.5):
    scene = sim.builtin_scene("room")
    traj = sim.make_trajectory(kind, length, n_frames)
    return sim.generate_dataset(scene, traj, sim.RIG_PRESETS["config1"], model, seed)


class TestPlanWindows:
    def test_paper_example(self):
        plan = lba.plan_windows(100, 20, 10)
        assert len(plan.windows) == 19
        assert plan.o == 5
        # second window starts at frame 6 (1-based) == index 5
        assert plan.windows[1][0] == 5

    def test_short_sequence_single_window(self):
        plan = lba.plan_windows(10, 20, 10)
        assert plan.windows == [(0, 9)]

    def test_n_equals_window(self):
        plan = lba.plan_windows(20, 20, 10)
        assert len(plan.windows) == 3
        covered = set()
        for s, e in plan.windows:
            covered.update(range(s, e + 1))
        assert covered == set(range(20))

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            lba.plan_windows(50, 10, 7)  # odd d
        with pytest.raises(InvalidParams):
            lba.plan_windows(50, 10, 12)  # d > w
        with pytest.raises(InvalidParams):
            lba.optimize_window([], [], 0, lba.LbaParams(assoc_rounds=0))
        for n_overlap in (-1, 1):  # outside 0..len(frames)
            with pytest.raises(InvalidParams):
                lba.optimize_window([], [], n_overlap, lba.LbaParams())
        for n_refined in (-1, 1):
            with pytest.raises(InvalidParams):
                lba.optimize_window([], [], 0, lba.LbaParams(),
                                    n_refined=n_refined)

    def test_step_must_be_positive_and_even(self):
        # a zero step divided by zero, a negative one planned no window
        for d in (0, -2, -1, 1):
            with pytest.raises(InvalidParams, match="step"):
                lba.plan_windows(50, 10, d)
        assert lba.plan_windows(50, 10, 2).windows[:2] == [(0, 9), (1, 10)]

    def test_coverage_and_starts(self):
        for n, w, d in [(37, 12, 6), (53, 20, 10), (11, 4, 2), (200, 40, 20)]:
            plan = lba.plan_windows(n, w, d)
            o = d // 2
            if n > d and w < n:
                assert len(plan.windows) == math.ceil((n - d) / (d - o)) + 1
            for m, (s, e) in enumerate(plan.windows):
                assert s == m * (d - o)
                assert e == min(s + w - 1, n - 1)
            covered = set()
            for s, e in plan.windows:
                covered.update(range(s, e + 1))
            assert covered == set(range(n))


def synthetic_correspondences(rng, n_frames=3, per_frame=40):
    """Random frozen planes and points for cost/gradient checks: one
    unweighted batch per frame 1..n_frames-1."""
    batches = []
    for _ in range(1, n_frames):
        normal = rng.normal(size=(per_frame, 3))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        pts = rng.uniform(-2, 2, size=(per_frame, 3))
        centroid = rng.uniform(-2, 2, size=(per_frame, 3))
        batches.append(PlaneBatch(pts, normal, centroid, np.ones(per_frame)))
    return batches


class TestMatchFrameToPool:
    """Neighbor sets against a brute-force kNN over the same pool."""

    PARAMS = lba.LbaParams(k_neighbors=5, max_corr_dist=0.5)

    @staticmethod
    def match(local, pose, pool, params):
        """A search round: the pool search, then the fit to its neighbors."""
        world = geo.apply(pose, local)
        rows, nbr_idx = lba._search_pool(world, pool, params)
        return lba._fit_to_pool(local, world, pool, rows, nbr_idx)

    @staticmethod
    def brute_force(world, pool, k, radius):
        """(has k neighbors within radius, centroid of the k nearest)."""
        dist = np.linalg.norm(world[:, None, :] - pool[None, :, :], axis=2)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        kth = np.take_along_axis(dist, nearest[:, -1:], axis=1)[:, 0]
        return kth < radius, pool[nearest].mean(axis=1)

    def pool_and_points(self):
        rng = np.random.default_rng(31)
        # a flat pool (every neighbor set passes the planarity gates), an
        # isolated cluster of exactly k points and one of k - 2 points
        floor = np.column_stack([rng.uniform(0, 4, (300, 2)), np.zeros(300)])
        five = np.array([[10.0, 10.0, 0.0], [10.2, 10.0, 0.0], [10.0, 10.2, 0.0],
                         [10.2, 10.2, 0.0], [10.1, 10.3, 0.0]])
        three = np.array([[20.0, 20.0, 0.0], [20.2, 20.0, 0.0], [20.0, 20.2, 0.0]])
        pool = np.vstack([floor, five, three])
        world = np.vstack([
            np.column_stack([rng.uniform(-0.3, 4.3, (200, 2)),
                             rng.normal(0, 0.01, 200)]),
            [[10.1, 10.1, 0.01], [20.1, 20.1, 0.01], [40.0, 0.0, 0.0]]])
        return pool, world

    def test_matches_brute_force(self):
        pool, world = self.pool_and_points()
        pose = Pose(geo.rot_z(0.3), [0.5, -1.0, 0.2])
        local = geo.apply(geo.inverse(pose), world)
        pts, normal, centroid, weight = self.match(local, pose, pool, self.PARAMS)
        world = geo.apply(pose, local)
        enough, ref_centroid = self.brute_force(world, pool, 5, 0.5)
        # the cluster of exactly k is kept, the k - 2 cluster and the far
        # point are dropped, and so are floor-edge points short of neighbors
        assert enough[-3] and not enough[-2] and not enough[-1]
        assert 0 < np.count_nonzero(~enough[:-3]) < 200
        np.testing.assert_array_equal(pts, local[enough])
        np.testing.assert_allclose(centroid, ref_centroid[enough], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(normal[:, 2]), 1.0, atol=1e-12)
        assert len(weight) == len(pts)

    def test_unbounded_radius_takes_k_nearest(self):
        pool, world = self.pool_and_points()
        params = lba.LbaParams(k_neighbors=5, max_corr_dist=1e9)
        pts, _, centroid, _ = self.match(world, Pose.identity(), pool, params)
        _, ref_centroid = self.brute_force(world, pool, 5, 1e9)
        # every neighbor set lies in the plane z = 0, so every point matches
        np.testing.assert_array_equal(pts, world)
        np.testing.assert_allclose(centroid, ref_centroid, rtol=0, atol=1e-12)

    def test_pool_smaller_than_k(self):
        pool, world = self.pool_and_points()
        for size in (0, 1, 4):
            out = self.match(world, Pose.identity(), pool[:size], self.PARAMS)
            assert all(len(a) == 0 for a in out)

    def test_pool_of_exactly_k(self):
        pool, _ = self.pool_and_points()
        five = pool[300:305]
        query = np.array([[10.1, 10.1, 0.01]])
        pts, _, centroid, _ = self.match(query, Pose.identity(), five, self.PARAMS)
        np.testing.assert_array_equal(pts, query)
        np.testing.assert_allclose(centroid[0], five.mean(axis=0), atol=1e-12)


class TestPointToPlaneCost:
    """The window cost, and the LM kernel's gradient checked against it."""

    def test_points_on_planes_zero_cost(self):
        rng = np.random.default_rng(0)
        batches = synthetic_correspondences(rng)
        # project each point onto its plane so the residual vanishes
        poses = [Pose.identity()] * (len(batches) + 1)
        for b in batches:
            r = np.einsum("ij,ij->i", b.normals, b.points - b.centroids)
            b.points[:] = b.points - r[:, None] * b.normals
        models = models_at(batches, poses)
        cost = lba.point_to_plane_cost(poses, models)
        assert cost == pytest.approx(0.0, abs=1e-18)
        for j, model in enumerate(models, start=1):
            h, g = normal_equations(model, poses[j])
            np.testing.assert_allclose(g, 0.0, atol=1e-12)
            assert h.shape == (6, 6)

    def test_single_point_cost(self):
        batch = PlaneBatch(np.array([[0.0, 0.0, 0.2]]), np.array([[0.0, 0.0, 1.0]]),
                           np.zeros((1, 3)), np.ones(1))
        cost = lba.point_to_plane_cost([Pose.identity()] * 2,
                                       [CostModel.of(batch, Pose.identity())])
        assert cost == pytest.approx(0.04)

    def test_overlap_prior_oracle(self):
        # each overlap frame but frame 0 adds OVERLAP_WEIGHT |log(ref^-1 T)|^2
        rng = np.random.default_rng(3)
        batches = synthetic_correspondences(rng, n_frames=4)
        poses = [random_pose(rng) for _ in range(4)]
        refs = [random_pose(rng) for _ in range(3)]
        terms = [w * float(n @ (t.rotation @ p + t.translation - c)) ** 2
                 for t, b in zip(poses[1:], batches)
                 for p, n, c, w in zip(b.points, b.normals, b.centroids,
                                       b.weights)]
        for ref, t in zip(refs[1:], poses[1:]):
            xi = geo.log_se3(geo.compose(geo.inverse(ref), t))
            terms.append(lba.OVERLAP_WEIGHT * float(xi @ xi))
        cost = lba.point_to_plane_cost(poses, models_at(batches, poses), refs)
        assert cost == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_gradient_matches_central_differences(self):
        # the window cost is a sum of per-frame batch costs, so each frame's
        # block of its gradient is twice that frame's kernel g
        rng = np.random.default_rng(1)
        batches = synthetic_correspondences(rng)
        poses = [Pose.identity()] + [random_pose(rng, max_angle=0.5, max_trans=1.0)
                                     for _ in batches]
        models = models_at(batches, poses)
        h = 1e-6
        for j, model in enumerate(models, start=1):
            _, g = normal_equations(model, poses[j])
            for k in range(6):
                delta = np.zeros(6)
                delta[k] = h
                plus = list(poses)
                plus[j] = geo.compose(poses[j], geo.exp_se3(delta))
                minus = list(poses)
                minus[j] = geo.compose(poses[j], geo.exp_se3(-delta))
                cp = lba.point_to_plane_cost(plus, models)
                cm = lba.point_to_plane_cost(minus, models)
                fd = (cp - cm) / (2 * h)
                analytic = 2.0 * g[k]
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_prior_gradient_matches_fd(self):
        # the prior Jacobian uses the small-correction identity approximation,
        # so keep the reference offset small and the tolerance proportional
        rng = np.random.default_rng(2)
        batches = synthetic_correspondences(rng, n_frames=2, per_frame=10)
        pose1 = random_pose(rng, max_angle=0.2, max_trans=0.2)
        ref = geo.compose(pose1, geo.exp_se3(np.full(6, 0.005)))
        poses = [Pose.identity(), pose1]
        overlap = [Pose.identity(), ref]
        models = models_at(batches, poses)
        _, g = normal_equations(models[0], pose1, (ref, lba.OVERLAP_WEIGHT))
        h = 1e-6
        for k in range(6):
            delta = np.zeros(6)
            delta[k] = h
            plus = [poses[0], geo.compose(poses[1], geo.exp_se3(delta))]
            minus = [poses[0], geo.compose(poses[1], geo.exp_se3(-delta))]
            cp = lba.point_to_plane_cost(plus, models, overlap)
            cm = lba.point_to_plane_cost(minus, models, overlap)
            fd = (cp - cm) / (2 * h)
            assert 2.0 * g[k] == pytest.approx(fd, rel=2e-2, abs=1e-6)


class TestOptimizeWindow:
    def test_aligned_frames_are_fixed_point(self):
        ds = room_dataset(6)
        frames = [pc.voxel_downsample(f, 0.25) for f in deskewed_frames(ds)]
        init = list(ds.trajectory.poses)
        result = lba.optimize_window(frames, init, 0, FAST)
        for refined, gt in zip(result.refined_poses, init):
            assert geo.translation_error(refined, gt) < 1e-6
            assert geo.rotation_error(refined, gt) < 1e-6
        # both costs sit at the floating-point noise floor here
        assert result.final_cost <= result.initial_cost + 1e-12

    def test_two_identical_frames(self):
        ds = room_dataset(2, kind="line", length=0.5)
        frame = pc.voxel_downsample(deskewed_frames(ds)[0], 0.25)
        result = lba.optimize_window([frame, frame],
                                     [Pose.identity(), Pose.identity()], 0, FAST)
        first, second = result.refined_poses
        delta = geo.compose(geo.inverse(first), second)
        assert geo.translation_error(delta, Pose.identity()) < 1e-9
        assert geo.rotation_error(delta, Pose.identity()) < 1e-9

    def test_recovers_from_perturbed_init(self):
        scene = sim.builtin_scene("corridor")
        traj = sim.make_trajectory("line", 6.0, 8, start=(2.0, 0.0, 1.5))
        ds = sim.generate_dataset(scene, traj, Pose.identity(), MODEL, 3)
        frames = [pc.voxel_downsample(f, 0.25) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(4)
        init = [traj.poses[0]]
        for p in traj.poses[1:]:
            init.append(sim.perturb(p, 0.05 / math.sqrt(3), 2.0, rng.integers(1 << 31)))
        params = lba.LbaParams(assoc_rounds=6)
        result = lba.optimize_window(frames, init, 0, params)
        for refined, gt in zip(result.refined_poses, traj.poses):
            assert geo.translation_error(refined, gt) < 0.005
            assert geo.rotation_error(refined, gt) < math.radians(0.1)

    def test_first_pose_bit_identical(self):
        ds = room_dataset(4)
        frames = [pc.voxel_downsample(f, 0.3) for f in deskewed_frames(ds)]
        init = list(ds.trajectory.poses)
        result = lba.optimize_window(frames, init, 0, FAST)
        assert result.refined_poses[0] is init[0]

    def test_single_plane_degenerate(self):
        scene = sim.Scene("floor", [sim.Rect([-30, -30, 0], [60, 0, 0], [0, 60, 0])])
        traj = sim.make_trajectory("line", 1.0, 2, start=(0.0, 0.0, 2.0))
        model = sim.LidarModel(horizontal_res_deg=3.0, vertical_fov_deg=110.0,
                               range_sigma=0.0)
        ds = sim.generate_dataset(scene, traj, Pose.identity(), model, 6)
        frames = [pc.voxel_downsample(f, 0.25) for f in deskewed_frames(ds)]
        with pytest.raises(DegenerateGeometry, match="frame 1"):
            lba.optimize_window(frames, list(traj.poses), 0, FAST)
        # the overlap prior takes no part in the observability test
        with pytest.raises(DegenerateGeometry, match="frame 1"):
            lba.optimize_window(frames, list(traj.poses), 2, FAST)

    def test_monotone_accepted_steps(self):
        ds = room_dataset(5)
        frames = [pc.voxel_downsample(f, 0.3) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(7)
        init = [ds.trajectory.poses[0]] + [
            sim.perturb(p, 0.03, 1.5, rng.integers(1 << 31))
            for p in ds.trajectory.poses[1:]]
        result = lba.optimize_window(frames, init, 0, FAST)
        for entry in result.trace:
            if entry["accepted"]:
                assert entry["cand_cost"] <= entry["cost"] + 1e-15

    def test_overlap_prior_in_solves_and_cost(self, monkeypatch):
        # the first n_overlap frames but frame 0 are tied to their init
        # poses: each of their LM solves carries the prior, and the window
        # cost adds it at the refined poses
        solves = []
        refine = lba.lm_refine

        def recording(model, prior=None):
            solves.append((model, prior))
            return refine(model, prior)

        monkeypatch.setattr(lba, "lm_refine", recording)
        ds = room_dataset(5)
        frames = [pc.voxel_downsample(f, 0.3) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(7)
        init = [ds.trajectory.poses[0]] + [
            sim.perturb(p, 0.03, 1.5, rng.integers(1 << 31))
            for p in ds.trajectory.poses[1:]]
        n_overlap = 3
        result = lba.optimize_window(frames, init, n_overlap, FAST)
        per_round = len(frames) - 1
        for k, (_, prior) in enumerate(solves):
            j = k % per_round + 1
            if j < n_overlap:
                assert prior[0] is init[j] and prior[1] == lba.OVERLAP_WEIGHT
            else:
                assert prior is None
        assert result.final_cost < result.initial_cost
        refined = result.refined_poses
        data = math.fsum(model.objective(pose) for (model, _), pose
                         in zip(solves[-per_round:], refined[1:]))
        ties = []
        for j in range(1, n_overlap):
            xi = geo.log_se3(geo.compose(geo.inverse(init[j]), refined[j]))
            ties.append(lba.OVERLAP_WEIGHT * float(np.sum(xi ** 2)))
        assert math.fsum(ties) > 1e-6 * result.final_cost
        assert result.final_cost == pytest.approx(data + math.fsum(ties),
                                                  rel=1e-12)

    @pytest.mark.parametrize("refined", [False, True])
    def test_searches_each_frame_at_most_twice(self, monkeypatch, refined):
        # round 0 searches every frame, round 1 only the frames that arrive
        # unrefined, and later rounds re-fit to the neighbors they hold; no
        # kd-tree is built after the round loop
        built = []

        class CountingKDTree(lba.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lba, "cKDTree", CountingKDTree)
        ds = room_dataset(5)
        frames = [pc.voxel_downsample(f, 0.3) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(7)
        init = [ds.trajectory.poses[0]] + [
            sim.perturb(p, 0.03, 1.5, rng.integers(1 << 31))
            for p in ds.trajectory.poses[1:]]
        n_refined = len(frames) if refined else 0
        result = lba.optimize_window(frames, init, 0, FAST, n_refined=n_refined)
        rounds = max(entry["round"] for entry in result.trace) + 1
        assert rounds >= 3
        searches = 1 if refined else 2
        assert len(built) == searches * (len(frames) - 1)

    def test_refit_at_unchanged_poses_equals_search(self, monkeypatch):
        # with the poses held (no LM step, no early stop) and the Cauchy
        # factor not annealed, every round sees the same pool: the re-fit
        # rounds 2.. must build their models from round 0's searched batches
        # bit for bit
        solves = []

        class Recording(CostModel):
            @classmethod
            def of(cls, batch, anchor):
                solves.append(batch)
                return super().of(batch, anchor)

        def holding(model, prior=None):
            return model.anchor, []

        monkeypatch.setattr(lba, "CostModel", Recording)
        monkeypatch.setattr(lba, "lm_refine", holding)
        monkeypatch.setattr(lba, "CAUCHY_DECAY", 1.0)
        monkeypatch.setattr(lba, "INNER_TOL", -1.0)
        ds = room_dataset(5)
        frames = [pc.voxel_downsample(f, 0.3) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(7)
        init = [ds.trajectory.poses[0]] + [
            sim.perturb(p, 0.03, 1.5, rng.integers(1 << 31))
            for p in ds.trajectory.poses[1:]]
        lba.optimize_window(frames, init, 0, lba.LbaParams(assoc_rounds=3))
        per_round = len(frames) - 1
        searched, refit = solves[:per_round], solves[2 * per_round:]
        assert len(refit) == per_round
        for a, b in zip(searched, refit):
            assert len(a) > 0
            for name in ("points", "normals", "centroids", "weights"):
                np.testing.assert_array_equal(getattr(b, name), getattr(a, name))

    def test_final_cost_not_above_initial(self):
        # noisy frames started 0.2 mm / 0.002 deg off their true poses: the
        # refinement gains less than the change of kNN planes and robust
        # scales between the start and refined poses, so the two costs must
        # be taken under one association to be comparable
        model = sim.LidarModel(range_sigma=0.01)
        full = sim.make_trajectory("arc", 4.0, 40)
        traj = pc.Trajectory(full.stamps[:6], full.poses[:6])
        ds = sim.generate_dataset(sim.builtin_scene("room"), traj,
                                  sim.RIG_PRESETS["config1"], model, 100)
        frames = [pc.voxel_downsample(f, 0.25) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(3)
        init = [traj.poses[0]] + [sim.perturb(p, 0.0002, 0.002, rng.integers(1 << 31))
                                  for p in traj.poses[1:]]
        result = lba.optimize_window(frames, init, 0, lba.LbaParams())
        assert result.final_cost <= result.initial_cost

    def test_gauge_invariance(self):
        # deep convergence (many rounds) so association tie-breaks between
        # the two runs stop mattering: both land on the same noise-free
        # optimum, which transforms rigidly with the gauge. Six frames keep
        # every frame's prefix pool covering all three wall directions.
        ds = room_dataset(6)
        frames = [pc.voxel_downsample(f, 0.3) for f in deskewed_frames(ds)]
        rng = np.random.default_rng(8)
        init = [ds.trajectory.poses[0]] + [
            sim.perturb(p, 0.02, 1.0, rng.integers(1 << 31))
            for p in ds.trajectory.poses[1:]]
        params = lba.LbaParams(downsample_leaf=0.25, assoc_rounds=10)
        base = lba.optimize_window(frames, list(init), 0, params)
        q = Pose(geo.rot_z(0.7) @ geo.rot_x(0.2), np.array([5.0, -3.0, 1.0]))
        moved_init = [geo.compose(q, p) for p in init]
        moved = lba.optimize_window(frames, moved_init, 0, params)
        for a, b in zip(base.refined_poses, moved.refined_poses):
            qa = geo.compose(q, a)
            assert geo.translation_error(qa, b) < 1e-6
            assert geo.rotation_error(qa, b) < 1e-6


class TestRunSlidingLba:
    def test_single_window_map_union(self):
        ds = room_dataset(6)
        frames = deskewed_frames(ds)
        result = lba.run_sliding_lba(frames, ds.trajectory, FAST)
        assert len(result.window_results) == 1
        ds_frames = [pc.voxel_downsample(f, FAST.downsample_leaf) for f in frames]
        expected = np.vstack([
            geo.apply(p, f.positions)
            for p, f in zip(result.trajectory.poses, ds_frames)])
        np.testing.assert_allclose(result.map.points, expected, atol=1e-6)
        assert len(result.map.points) == sum(len(f) for f in ds_frames)
        assert result.trajectory.poses[0] is ds.trajectory.poses[0]

    def test_noisy_trajectory_error_halved(self):
        # deskewing uses the true short-term motion (the IMU analogue: scan-
        # local interpolation stays accurate even when the pose sequence used
        # to seed the optimization carries 5 cm errors)
        ds = room_dataset(30, kind="arc", length=3.5, seed=9)
        noisy = sim.add_trajectory_noise(ds.trajectory, 0.05, 0.01, 11)
        frames = deskewed_frames(ds)
        params = lba.LbaParams(window=12, step=6, assoc_rounds=5)
        result = lba.run_sliding_lba(frames, noisy, params)
        before_t, before_r = lba.trajectory_error(noisy, ds.trajectory)
        after_t, after_r = lba.trajectory_error(result.trajectory, ds.trajectory)
        assert after_t <= 0.5 * before_t
        assert after_r <= 0.5 * before_r

    def test_overlap_discrepancy_small_on_clean_data(self):
        ds = room_dataset(18, kind="arc", length=3.0, seed=10)
        frames = deskewed_frames(ds)
        params = lba.LbaParams(window=10, step=6, assoc_rounds=3)
        result = lba.run_sliding_lba(frames, ds.trajectory, params)
        # a frame both windows refine: the later estimate against the
        # earlier one, which it overwrites
        plan = lba.plan_windows(len(frames), params.window, params.step)
        gaps = []
        for m in range(1, len(plan.windows)):
            (prev_start, prev_end), (start, _) = plan.windows[m - 1], plan.windows[m]
            prev = result.window_results[m - 1].refined_poses
            cur = result.window_results[m].refined_poses
            for idx in range(start, prev_end + 1):
                a, b = prev[idx - prev_start], cur[idx - start]
                gaps.append((geo.translation_error(b, a), geo.rotation_error(b, a)))
        assert gaps
        for dt, dr in gaps:
            assert dt < 0.01
            assert dr < math.radians(0.5)

    def test_stamp_mismatch_rejected(self):
        ds = room_dataset(4)
        frames = deskewed_frames(ds)
        bad = pc.Trajectory(ds.trajectory.stamps + 0.05, ds.trajectory.poses)
        with pytest.raises(Exception):
            lba.run_sliding_lba(frames, bad, FAST)


class TestTrajectoryError:
    def test_identical_is_zero(self):
        traj = sim.make_trajectory("arc", 3.0, 10)
        t, r = lba.trajectory_error(traj, traj)
        assert t == 0.0 and r == 0.0

    def test_gauge_shift_ignored(self):
        traj = sim.make_trajectory("arc", 3.0, 10)
        q = Pose(geo.rot_z(0.4), np.array([1.0, 2.0, 3.0]))
        shifted = pc.Trajectory(traj.stamps, [geo.compose(q, p) for p in traj.poses])
        t, r = lba.trajectory_error(shifted, traj)
        assert t < 1e-9 and r < 1e-9
