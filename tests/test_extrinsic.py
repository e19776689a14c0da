import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcalib import extrinsic as ext
from lidarcalib import geometry as geo
from lidarcalib import pointcloud as pc
from lidarcalib import ptplane
from lidarcalib import simulator as sim
from lidarcalib import voxelmap as vm
from lidarcalib.errors import InvalidParams, NoCorrespondences, Unobservable
from lidarcalib.geometry import Pose
from lidarcalib.ptplane import CostModel

from ptplane_oracle import PlaneBatch, model_of
from test_geometry import random_pose
from test_voxelmap import plane_patch


def make_batch(points, normals, centroids, weights=1.0, anchor=None):
    """PlaneBatch over rows of (point, unit normal, centroid, weight)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    centroids = np.broadcast_to(np.asarray(centroids, dtype=float), points.shape)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), len(points))
    return PlaneBatch(points, normals, centroids, weights, anchor)


class TestResidual:
    def test_height_above_plane(self):
        batch = make_batch([1.0, 2.0, 3.0], [0, 0, 1], [0, 0, 0])
        assert batch.residuals(Pose.identity())[0] == pytest.approx(3.0)

    def test_translated_transform(self):
        batch = make_batch([1.0, 2.0, 3.0], [0, 0, 1], [0, 0, 0])
        t = Pose(np.eye(3), [0.0, 0.0, 0.5])
        assert batch.residuals(t)[0] == pytest.approx(3.5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, n, c = rng.normal(size=(3, 3))
            n /= np.linalg.norm(n)
            anchor = random_pose(rng)
            # the batch folds its anchor into the plane rows
            batch = make_batch(p, n, c, anchor=anchor)
            t = random_pose(rng)
            # independent scalar evaluation of n . (R_w p + t_w - c)
            rw = anchor.rotation @ t.rotation
            tw = anchor.rotation @ t.translation + anchor.translation
            expected = (n[0] * (rw[0] @ p + tw[0] - 0) +
                        n[1] * (rw[1] @ p + tw[1] - 0) +
                        n[2] * (rw[2] @ p + tw[2] - 0) -
                        float(n @ c))
            assert batch.residuals(t)[0] == pytest.approx(expected, abs=1e-12)


class TestGlobalObjective:
    """PlaneBatch.objective: the weighted sum of squared residuals."""

    def test_zero_on_planes(self):
        batch = make_batch([[x, y, 0.0] for x in range(3) for y in range(3)],
                           [[0, 0, 1]] * 9, [0, 0, 0], weights=2.0)
        assert batch.objective(Pose.identity()) == 0.0

    def test_single_term(self):
        batch = make_batch([0.0, 0.0, 0.1], [0, 0, 1], [0, 0, 0], weights=2.0)
        assert batch.objective(Pose.identity()) == pytest.approx(0.02)

    def test_sequential_sum_oracle(self):
        rng = np.random.default_rng(1)
        rows = [(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3),
                 rng.uniform(0.1, 5.0)) for _ in range(1000)]
        batch = make_batch(*(np.array(col) for col in zip(*rows)))
        t = random_pose(rng)
        total = batch.objective(t)
        seq = math.fsum(
            w * float(n @ (t.rotation @ p + t.translation - c)) ** 2
            for p, n, c, w in zip(batch.points, batch.normals,
                                  batch.centroids, batch.weights))
        assert abs(total - seq) < 1e-10


class TestJacobianRow:
    """Rows of PlaneBatch.jacobian: d residual / d right-multiplied twist."""

    def test_translation_block_is_normal(self):
        batch = make_batch([1.0, 2.0, 3.0], [0, 0, 1], [0, 0, 0])
        row = batch.jacobian(Pose.identity())[0]
        np.testing.assert_allclose(row[3:], [0.0, 0.0, 1.0], atol=1e-12)

    def test_zero_point_zero_rotation_block(self):
        batch = make_batch([0.0, 0.0, 0.0], [0.3, -0.2, 0.9], [1, 1, 1])
        row = batch.jacobian(Pose.identity())[0]
        np.testing.assert_allclose(row[:3], 0.0, atol=1e-15)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(200):
            batch = make_batch(rng.normal(size=3) * 2, rng.normal(size=3),
                               rng.normal(size=3), anchor=random_pose(rng))
            t = random_pose(rng)
            row = batch.jacobian(t)[0]
            for k in range(6):
                delta = np.zeros(6)
                delta[k] = h
                rp = batch.residuals(geo.compose(t, geo.exp_se3(delta)))[0]
                rm = batch.residuals(geo.compose(t, geo.exp_se3(-delta)))[0]
                fd = (rp - rm) / (2 * h)
                assert row[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def orthogonal_plane_batch(rng, n_per_plane=60, weight=1.0):
    """Points sampled on three orthogonal planes, ground truth = identity."""
    rows = []
    planes = [((1, 0, 0), (2.0, 0, 0)), ((0, 1, 0), (0, 2.0, 0)),
              ((0, 0, 1), (0, 0, 2.0))]
    for normal, centroid in planes:
        n = np.asarray(normal, dtype=float)
        for _ in range(n_per_plane):
            offset = rng.uniform(-1.5, 1.5, size=3)
            pt = np.asarray(centroid) + offset - np.dot(offset, n) * n
            rows.append((pt, n, centroid))
    return make_batch(*(np.array(col) for col in zip(*rows)), weights=weight)


def solve(batch, t_init):
    """`lm_solve` on the batch's cost model at t_init."""
    return ext.lm_solve(model_of(batch, t_init))


class TestLmSolve:
    def test_ground_truth_is_fixed_point(self):
        rng = np.random.default_rng(3)
        batch = orthogonal_plane_batch(rng)
        pose, trace = solve(batch, Pose.identity())
        assert geo.translation_error(pose, Pose.identity()) < 1e-9
        assert batch.objective(pose) < 1e-18

    def test_recovers_offset(self):
        rng = np.random.default_rng(4)
        batch = orthogonal_plane_batch(rng)
        t_init = sim.perturb(Pose.identity(), 0.1 / math.sqrt(3), 5.0, 9)
        pose, _ = solve(batch, t_init)
        assert geo.translation_error(pose, Pose.identity()) < 1e-6
        assert geo.rotation_error(pose, Pose.identity()) < 1e-6

    def test_parallel_planes_unobservable(self):
        rng = np.random.default_rng(5)
        pts = []
        for _ in range(40):
            pt = rng.uniform(-2, 2, size=3)
            pt[2] = 0.0
            pts.append(pt)
        batch = make_batch(pts, [[0, 0, 1]] * 40, [0, 0, 0])
        with pytest.raises(Unobservable):
            solve(batch, Pose.identity())

    def test_accepted_steps_strictly_decrease(self):
        rng = np.random.default_rng(6)
        batch = orthogonal_plane_batch(rng)
        t_init = sim.perturb(Pose.identity(), 0.15, 10.0, 10)
        _, trace = solve(batch, t_init)
        for entry in trace:
            if entry["accepted"]:
                assert entry["cand_cost"] < entry["cost"]

    def test_crushed_weights_still_solve(self):
        # observability is a property of the match geometry: a patch whose
        # robust weights are crushed to 1e-15 leaves the weighted H with
        # condition number near 1e15, but its planes still pin all six DoF
        rng = np.random.default_rng(8)
        base = orthogonal_plane_batch(rng)
        weights = np.ones(len(base))
        weights[:60] = 1e-15
        batch = PlaneBatch(base.points, base.normals, base.centroids, weights)
        jac = batch.jacobian(Pose.identity())
        assert np.linalg.cond(jac.T @ (weights[:, None] * jac)) > 1e12
        t_init = sim.perturb(Pose.identity(), 0.05, 3.0, 12)
        pose, trace = solve(batch, t_init)
        assert trace and batch.objective(pose) < batch.objective(t_init)

    def test_weight_scaling_leaves_argmin(self, monkeypatch):
        monkeypatch.setattr(ptplane, "INNER_TOL", 1e-12)
        rng = np.random.default_rng(7)
        base = orthogonal_plane_batch(rng, weight=1.0)
        scaled = PlaneBatch(base.points, base.normals, base.centroids,
                            np.full(len(base), 7.5))
        t_init = sim.perturb(Pose.identity(), 0.05, 3.0, 11)
        p1, _ = solve(base, t_init)
        p2, _ = solve(scaled, t_init)
        assert geo.translation_error(p1, p2) < 1e-9
        assert geo.rotation_error(p1, p2) < 1e-9


# three disjoint orthogonal patches (corner, edge, edge): every mapped cell
# holds a single surface, so a transform with all residuals exactly zero
# exists. Plane offsets are deliberately off the voxel lattice so both sides
# of each surface stay inside populated cells.
PATCH_RECTS = [([4.3, -3.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 2.0]),
               ([-3.0, 4.3, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 2.0]),
               ([-3.0, -3.0, -0.7], [6.0, 0.0, 0.0], [0.0, 6.0, 0.0])]


def sample_patch(rng, corner, e1, e2, n):
    a = rng.uniform(0, 1, size=(n, 1))
    b = rng.uniform(0, 1, size=(n, 1))
    return np.asarray(corner) + a * np.asarray(e1) + b * np.asarray(e2)


def patch_world(views):
    """(map index, ground-truth extrinsic, anchors, frames) on the patch
    world; frame j sees the patches listed in views[j]."""
    rng = np.random.default_rng(41)
    map_pts = np.vstack([sample_patch(rng, *r, 4000) for r in PATCH_RECTS])
    index = vm.build_adaptive(map_pts, vm.VoxelParams())
    gt = sim.RIG_PRESETS["config2"].to_pose()
    anchors = [Pose(geo.rot_z(0.1 * j), np.array([0.2 * j, 0.1 * j, 0.0]))
               for j in range(len(views))]
    frames = []
    for anchor, seen in zip(anchors, views):
        world = np.vstack([sample_patch(rng, *PATCH_RECTS[k], 700) for k in seen])
        local = geo.apply(geo.inverse(gt), geo.apply(geo.inverse(anchor), world))
        frames.append(pc.Frame(local, 0.0, 0.0))
    return index, gt, anchors, frames


def calibrate_patch_world(index, gt, anchors, frames):
    guess = sim.perturb(gt, 0.1, 5.0, 29)
    cfg = ext.CalibConfig(convergence_delta=1e-9, downsample_leaf=0.0)
    return ext.calibrate(index, frames, anchors, guess, cfg)


def loop_chamfer(index, nearest, probes, cand, radius):
    """Seeding's score taken one probe frame (one query) at a time and
    accumulated with np.add.at: the loop that `ext._seed_score` stacks."""
    bucket_sum = np.zeros(3)
    bucket_cnt = np.zeros(3)
    for pts, local_n, anchor in probes:
        world = geo.apply(anchor, geo.apply(cand, pts))
        rot_w = anchor.rotation @ cand.rotation
        n_world = local_n @ rot_w.T
        buckets = np.argmax(np.abs(n_world), axis=1)
        np.add.at(bucket_cnt, buckets, 1.0)
        dist, ids = nearest.query(world, radius)
        hit = ids >= 0
        if not hit.any():
            continue
        plane_ids = ids[hit]
        agree = np.abs(np.einsum(
            "ij,ij->i", index.planes.normals[plane_ids], n_world[hit]))
        prox = 1.0 / (1.0 + (dist[hit] / ext.ROT_SEED_KERNEL) ** 2)
        np.add.at(bucket_sum, buckets[hit], prox * (agree >= ext.NORMAL_GATE))
    occupied = bucket_cnt > 0
    if not occupied.any():
        return 0.0
    return float(np.mean(bucket_sum[occupied] / bucket_cnt[occupied]))


def probe_frames(frames, anchors, stride=1):
    """Seeding's probe frames as (points, local normals, anchor), keeping
    the points whose index in the stacked probe points is a multiple of
    stride."""
    step = max(1, len(frames) // ext.ROT_SEED_FRAMES)
    probes, offset = [], 0
    for j in range(0, len(frames), step):
        pts = frames[j].positions
        if len(pts) > 600:
            pts = pts[:: len(pts) // 600 + 1]
        if len(pts) < 8:
            continue
        normals = ext._local_normals(pts)
        keep = (offset + np.arange(len(pts))) % stride == 0
        probes.append((pts[keep], normals[keep], anchors[j]))
        offset += len(pts)
    return probes


def test_nearest_lookup_owners(room_calib_setup):
    """The nearest-surface lookup holds every point of a leaf cell, each
    with its leaf's plane id, and no other point."""
    _, index, _ = room_calib_setup
    owner = np.full(len(index.points), -1)
    for (depth, *cell), count, plane_id in zip(
            index.leaf_keys.tolist(), index.leaf_planes.counts, index.leaf_to_plane):
        inside = np.all(np.floor(index.points / index.edge_length(depth)) == cell,
                        axis=1)
        assert np.all(owner[inside] == -1) and inside.sum() == count
        owner[inside] = plane_id
    lookup = ext._NearestPlaneLookup(index)
    owned = owner >= 0
    assert len(set(index.leaf_to_plane)) < len(index.leaf_planes)
    np.testing.assert_array_equal(lookup.plane_ids, owner[owned])
    np.testing.assert_array_equal(lookup.tree.data, index.points[owned])


def oracle_frame_model(index, points, world, anchor, estimate, gate,
                       local_normals, nearest):
    """`ext._associate_frame` point by point: each point's candidate plane
    (nearest surface or containment), kept when its residual is within the
    gate and its normal agrees with the point's rotated local normal, then
    weighted by plane confidence times the Cauchy weight of its dominant
    normal axis. (model or None, rejected by distance, rejected by
    normal)."""
    planes = index.planes
    rot_w = anchor.rotation @ estimate.rotation
    kept = []
    far = misaligned = 0
    for i, w in enumerate(world):
        if nearest is not None:
            plane = int(nearest.query(w[None], gate)[1][0])
        else:
            plane = int(vm.associate_batch(w[None], index)[0])
        if plane < 0:
            continue
        n = planes.normals[plane]
        resid = abs(float(n @ (w - planes.centroids[plane])))
        close = resid <= gate
        aligned = abs(float(n @ (rot_w @ local_normals[i]))) >= ext.NORMAL_GATE
        far += not close
        misaligned += close and not aligned
        if close and aligned:
            kept.append((i, plane, resid))
    if len(kept) < ext.MIN_FRAME_CORR:
        return None, far, misaligned
    rows, ids, resid = (np.array(c) for c in zip(*kept))
    axis = np.argmax(np.abs(planes.normals[ids]), axis=1)
    weights = planes.weights[ids]
    for b in range(3):
        sel = axis == b
        if sel.any():
            scale = max(ptplane.CAUCHY_SCALE_FLOOR, float(np.median(resid[sel])))
            weights[sel] /= 1.0 + (resid[sel] / (ptplane.CAUCHY_FACTOR * scale)) ** 2
    batch = PlaneBatch(points[rows], planes.normals[ids], planes.centroids[ids],
                       weights, anchor)
    return model_of(batch, estimate), far, misaligned


class TestAssociateFrame:
    @pytest.mark.parametrize("coarse", [True, False],
                             ids=["nearest", "containment"])
    def test_matches_point_oracle(self, room_calib_setup, coarse):
        # a coarse stage (wide gate, nearest surface, far-off estimate) and
        # the final one (reject_end, containment, near the truth); each
        # rule must reject some candidate for the check to mean anything
        ds, index, anchors = room_calib_setup
        cfg = ext.CalibConfig()
        k = 4
        points = pc.voxel_downsample(ds.frames_b[k], cfg.downsample_leaf).positions
        local_normals = ext._local_normals(points)
        if coarse:
            estimate = sim.perturb(ds.extrinsic, 0.15, 8.0, 5)
            gate, nearest = cfg.reject_start, ext._NearestPlaneLookup(index)
        else:
            estimate = sim.perturb(ds.extrinsic, 0.03, 2.0, 5)
            gate, nearest = cfg.reject_end, None
        world = geo.apply(anchors[k], geo.apply(estimate, points))
        model = ext._associate_frame(index, points, world, anchors[k], estimate,
                                     gate, local_normals, nearest=nearest)
        expected, far, misaligned = oracle_frame_model(
            index, points, world, anchors[k], estimate, gate, local_normals,
            nearest)
        assert far > 0 and misaligned > 0
        assert model is not None and expected is not None
        assert model.count == expected.count
        np.testing.assert_allclose(model.f0, expected.f0, rtol=1e-12)
        np.testing.assert_allclose(model.b, expected.b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(model.q, expected.q, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("coarse", [True, False],
                             ids=["nearest", "containment"])
    def test_reject_distance(self, coarse):
        # a frame parallel to the floor and 0.38 m above it: both lookups
        # find the floor plane, and the gate alone decides
        rng = np.random.default_rng(15)
        floor = plane_patch(rng, [0, 0, 1], [2.0, 2.0, 0.5], 1.9, 4000)
        wall = plane_patch(rng, [1, 0, 0], [0.5, 2.0, 1.5], 1.4, 3000)
        index = vm.build_adaptive(np.vstack([floor, wall]),
                                  vm.VoxelParams(max_depth=2))
        xy = rng.uniform(1.6, 2.8, size=(ext.MIN_FRAME_CORR + 10, 2))
        points = np.column_stack([xy, np.full(len(xy), 0.88)])
        nearest = ext._NearestPlaneLookup(index) if coarse else None

        def model(gate):
            return ext._associate_frame(
                index, points, points, Pose.identity(), Pose.identity(), gate,
                ext._local_normals(points), nearest=nearest)

        assert model(0.1) is None
        assert model(0.6).count == len(points)


class TestSeeding:
    @staticmethod
    def inputs(room_calib_setup):
        """(dataset, map, anchors, source frames as calibrate thins them,
        nearest-surface lookup)."""
        ds, index, anchors = room_calib_setup
        leaf = ext.CalibConfig().downsample_leaf
        frames = [pc.voxel_downsample(f, leaf) for f in ds.frames_b]
        return ds, index, anchors, frames, ext._NearestPlaneLookup(index)

    def test_stacked_score_matches_probe_loop(self, room_calib_setup):
        ds, index, anchors, frames, nearest = self.inputs(room_calib_setup)
        radius = ext.CalibConfig().reject_start
        full = ext._seed_probes(frames, anchors)
        rng = np.random.default_rng(41)
        cands = [ds.extrinsic] + [sim.perturb(ds.extrinsic, 0.4, 30.0, int(seed))
                                  for seed in rng.integers(1 << 31, size=19)]
        for stride in (1, ext.SEED_COARSE_STRIDE):
            probes = probe_frames(frames, anchors, stride)
            assert sum(len(p[0]) for p in probes) == len(full.every(stride).points)
            for cand in cands:
                stacked = ext._seed_score(index, nearest, full.every(stride),
                                          cand, radius)
                expected = loop_chamfer(index, nearest, probes, cand, radius)
                assert stacked == pytest.approx(expected, rel=0, abs=1e-12)

    def test_disabled_returns_guess(self, room_calib_setup):
        ds, index, anchors, frames, nearest = self.inputs(room_calib_setup)
        guess = sim.perturb(ds.extrinsic, 0.4, 30.0, 3)
        cfg = ext.CalibConfig(rot_seed_candidates=0)
        assert ext._seed_initial(index, nearest, frames, anchors, guess, cfg) is guess

    def test_seed_is_guess_or_clear_winner(self, room_calib_setup):
        ds, index, anchors, frames, nearest = self.inputs(room_calib_setup)
        cfg = ext.CalibConfig()
        full = ext._seed_probes(frames, anchors)

        def score(pose):
            return ext._seed_score(index, nearest, full, pose, cfg.reject_start)

        moved = 0
        for seed in (3, 5, 11, 19):
            guess = sim.perturb(ds.extrinsic, 0.4, 30.0, seed)
            seeded = ext._seed_initial(index, nearest, frames, anchors, guess, cfg)
            if seeded is guess:
                continue
            moved += 1
            # a grid candidate: a cube offset of the translation and one of
            # the rotation offsets (identity, or 0.15 rad to ROT_SEED_MAX_DEG)
            offset = np.abs(seeded.translation - guess.translation)
            assert np.all((offset < 1e-12)
                          | (np.abs(offset - ext.TRANS_SEED_STEP) < 1e-12))
            angle = geo.rotation_error(seeded, guess)
            assert angle < 1e-12 or (
                0.15 - 1e-9 <= angle <= math.radians(ext.ROT_SEED_MAX_DEG) + 1e-9)
            assert score(seeded) > 1.10 * score(guess)
        assert moved > 0


class TestCalibrate:
    def test_gt_guess_converges_immediately(self, room_calib_setup):
        ds, index, anchors = room_calib_setup
        result = ext.calibrate(index, ds.frames_b, anchors, ds.extrinsic)
        assert result.converged
        assert result.iterations == 1
        e_t, e_r = ext.evaluate(result, ds.extrinsic)
        assert e_t < 1e-6
        assert e_r < 1e-6

    def test_recovers_from_perturbed_guess(self, room_calib_setup):
        ds, index, anchors = room_calib_setup
        guess = sim.perturb(ds.extrinsic, 0.3, 20.0, 23)
        result = ext.calibrate(index, ds.frames_b, anchors, guess)
        e_t, e_r = ext.evaluate(result, ds.extrinsic)
        assert e_t < 1e-5
        assert e_r < 1e-5
        assert result.converged

    def test_zero_residual_certificate(self):
        # on the patch world calibrate must land on the zero-residual
        # transform
        index, gt, anchors, frames = patch_world([(0, 1, 2)] * 4)
        result = calibrate_patch_world(index, gt, anchors, frames)
        e_t, e_r = ext.evaluate(result, gt)
        assert e_t < 1e-9 and e_r < 1e-9
        matches = 0
        objective = 0.0
        for anchor, frame in zip(anchors, frames):
            world = geo.apply(anchor, geo.apply(result.extrinsic, frame.positions))
            ids = vm.associate_batch(world, index)
            planes = index.planes
            hit = ids >= 0
            hit[hit] = np.abs(np.einsum(
                "ij,ij->i", planes.normals[ids[hit]],
                world[hit] - planes.centroids[ids[hit]])) <= 0.3
            batch = PlaneBatch(frame.positions[hit], planes.normals[ids[hit]],
                               planes.centroids[ids[hit]], planes.weights[ids[hit]],
                               anchor)
            matches += len(batch)
            objective += batch.objective(result.extrinsic)
        assert matches > 1000
        assert objective < 1e-18

    def test_frames_seeing_two_of_three_patches(self):
        # two orthogonal patches leave translation along their intersection
        # free, so no frame pins all six DoF alone; the frames jointly do,
        # and only the joint step must be observable
        views = [(0, 1), (1, 2), (0, 2)] * 2
        index, gt, anchors, frames = patch_world(views)
        result = calibrate_patch_world(index, gt, anchors, frames)
        e_t, e_r = ext.evaluate(result, gt)
        assert e_t < 1e-9 and e_r < 1e-9

    def test_deskews_over_the_sweep_not_the_frame_interval(self):
        # sweeps last half the 0.1 s frame interval; deskewing over the
        # whole interval leaves centimetres of error on exact data
        model = sim.LidarModel(horizontal_res_deg=1.5, range_sigma=0.0,
                               scan_period=0.05)
        traj = sim.make_trajectory("arc", 3.0, 8)
        ds = sim.generate_dataset(sim.builtin_scene("room"), traj,
                                  sim.RIG_PRESETS["config1"], model, 31)
        ends = pc.scan_end_poses(traj, model.scan_period)
        map_pts = np.vstack([
            geo.apply(p, pc.voxel_downsample(pc.deskew(f, p, e), 0.1).positions)
            for f, p, e in zip(ds.frames_a, traj.poses, ends)])
        index = vm.merge_neighbors(vm.build_adaptive(map_pts, vm.VoxelParams()),
                                   np.radians(5.0), 0.5)
        result = ext.calibrate(index, ds.frames_b, list(traj.poses), ds.extrinsic,
                               ext.CalibConfig(rot_seed_candidates=0))
        e_t, e_r = ext.evaluate(result, ds.extrinsic)
        assert result.converged
        assert e_t < 1e-5
        assert e_r < 1e-5

    def test_sweeps_need_increasing_stamps(self, room_calib_setup):
        ds, index, anchors = room_calib_setup
        assert all(f.scan_duration > 0.0 for f in ds.frames_b)
        same_stamp = [pc.Frame(f.positions, 0.0, f.scan_duration, f.time_offsets)
                      for f in ds.frames_b]
        with pytest.raises(InvalidParams, match="increasing stamps"):
            ext.calibrate(index, same_stamp, anchors, ds.extrinsic)

    def test_objective_never_increases_within_iteration(self, room_calib_setup):
        ds, index, anchors = room_calib_setup
        guess = sim.perturb(ds.extrinsic, 0.35, 25.0, 31)
        result = ext.calibrate(index, ds.frames_b, anchors, guess)
        for entry in result.outer_trace:
            assert entry.objective_after <= entry.objective_before

    def test_equivariance_under_lattice_world_motion(self, room_calib_setup):
        ds, index, anchors = room_calib_setup
        guess = sim.perturb(ds.extrinsic, 0.2, 10.0, 37)
        base = ext.calibrate(index, ds.frames_b, anchors, guess)
        # axis-aligned 90 degree rotation plus lattice translation preserves
        # the voxel grid, so the rebuilt index is the transformed original
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        q = Pose(rot, np.array([3.0, -2.0, 1.0]))
        moved_pts = geo.apply(q, index.points)
        moved_index = vm.build_adaptive(moved_pts, index.params)
        moved_index = vm.merge_neighbors(moved_index, np.radians(5.0), 0.5)
        moved_anchors = [geo.compose(q, a) for a in anchors]
        moved = ext.calibrate(moved_index, ds.frames_b, moved_anchors, guess)
        assert geo.translation_error(base.extrinsic, moved.extrinsic) < 1e-6
        assert geo.rotation_error(base.extrinsic, moved.extrinsic) < 1e-6

    def test_one_lm_solve_per_outer_iteration(self, room_calib_setup,
                                              monkeypatch):
        # frames are scored by their residuals, not by a solve of their own:
        # the joint step of each outer iteration is the only LM solve, on
        # the sum of the consensus frames' models
        ds, index, anchors = room_calib_setup
        calls = []
        frame_models = []
        original = ext.lm_solve
        associate = ext._associate_frame

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        def recording(*args, **kwargs):
            frame_models.append(associate(*args, **kwargs))
            return frame_models[-1]

        monkeypatch.setattr(ext, "lm_solve", counted)
        monkeypatch.setattr(ext, "_associate_frame", recording)
        guess = sim.perturb(ds.extrinsic, 0.3, 20.0, 23)
        result = ext.calibrate(index, ds.frames_b, anchors, guess)
        assert result.iterations > 1
        assert len(calls) == result.iterations
        # every frame is associated in every outer iteration, in frame order
        n = len(ds.frames_b)
        assert len(frame_models) == result.iterations * n
        for it, (joint, entry) in enumerate(zip(calls, result.outer_trace)):
            models = frame_models[it * n:(it + 1) * n]
            consensus = [m for k, m in enumerate(models)
                         if k not in entry.skipped_frames]
            assert isinstance(joint, CostModel)
            assert len(consensus) == entry.frames_used
            assert joint.count == sum(m.count for m in consensus)

    def test_tiny_frame_sits_out(self, room_calib_setup, monkeypatch):
        # a frame with fewer points than MIN_FRAME_CORR can never be usable:
        # it is never associated, and every outer iteration skips it
        ds, index, anchors = room_calib_setup
        frames = list(ds.frames_b)
        keep = ext.MIN_FRAME_CORR - 1
        frames[3] = pc.Frame(frames[3].positions[:keep], frames[3].stamp,
                             frames[3].scan_duration,
                             frames[3].time_offsets[:keep])
        calls = []
        associate = ext._associate_frame

        def counting(*args, **kwargs):
            calls.append(1)
            return associate(*args, **kwargs)

        monkeypatch.setattr(ext, "_associate_frame", counting)
        guess = sim.perturb(ds.extrinsic, 0.1, 5.0, 23)
        result = ext.calibrate(index, frames, anchors, guess)
        assert len(calls) == result.iterations * (len(frames) - 1)
        assert all(3 in entry.skipped_frames for entry in result.outer_trace)

    def test_sweep_motion_once_per_frame(self, room_calib_setup, monkeypatch):
        # deskewing under the moving estimate reuses each sweep's point-form
        # coefficients: they are computed once per frame and call, not once
        # per frame and outer iteration
        ds, index, anchors = room_calib_setup
        calls = []
        coefficients = geo.scaled_motion

        def counting_coefficients(*args, **kwargs):
            calls.append(1)
            return coefficients(*args, **kwargs)

        monkeypatch.setattr(geo, "scaled_motion", counting_coefficients)
        guess = sim.perturb(ds.extrinsic, 0.3, 20.0, 23)
        result = ext.calibrate(index, ds.frames_b, anchors, guess)
        assert result.iterations > 1
        assert len(calls) == sum(f.scan_duration > 0.0 for f in ds.frames_b) > 0

    def test_single_plane_map_is_unobservable(self):
        # one plane pins 3 of the 6 extrinsic degrees of freedom, so every
        # frame fails the observability test
        rng = np.random.default_rng(43)

        def floor(n):
            xy = rng.uniform(-3.0, 3.0, size=(n, 2))
            return np.column_stack([xy, np.full(n, -0.7)])

        index = vm.build_adaptive(floor(20000), vm.VoxelParams())
        gt = sim.RIG_PRESETS["config2"].to_pose()
        anchors = [Pose(geo.rot_z(0.1 * j), np.array([0.2 * j, 0.1 * j, 0.0]))
                   for j in range(4)]
        frames = [pc.Frame(geo.apply(geo.inverse(gt),
                                     geo.apply(geo.inverse(a), floor(700))),
                           0.0, 0.0) for a in anchors]
        with pytest.raises(Unobservable) as exc:
            ext.calibrate(index, frames, anchors, gt)
        assert exc.value.frame_indices == list(range(len(frames)))

    def test_no_correspondences(self, room_calib_setup):
        ds, index, anchors = room_calib_setup
        far = Pose(np.eye(3), np.array([500.0, 500.0, 500.0]))
        far_anchors = [geo.compose(far, a) for a in anchors]
        with pytest.raises(NoCorrespondences):
            ext.calibrate(index, ds.frames_b, far_anchors, ds.extrinsic)

    def test_report_file(self, room_calib_setup, tmp_path):
        ds, index, anchors = room_calib_setup
        result = ext.calibrate(index, ds.frames_b, anchors, ds.extrinsic)
        path = tmp_path / "report.txt"
        ext.write_report(path, result, gt=ds.extrinsic, config_echo={"n": 30})
        text = path.read_text()
        assert "iter,objective,update_norm,frames_used" in text
        assert "frames_used,reject_dist,skipped_frames\n" in text
        rows = [ln.split(",") for ln in text.splitlines() if ln.count(",") == 5][1:]
        assert len(rows) == len(result.outer_trace)
        for row, entry in zip(rows, result.outer_trace):
            assert float(row[4]) == pytest.approx(entry.reject_dist, rel=1e-8)
            assert [int(i) for i in row[5].split()] == entry.skipped_frames
        assert "e_trans_m" in text
        stamp, pose = pc.parse_pose_line(
            [ln for ln in text.splitlines() if not ln.startswith(("#", "iter", "e_"))][0])
        assert geo.translation_error(pose, result.extrinsic) < 1e-9


class TestConsensusMask:
    """`_consensus_mask` on per-frame scores (robust RMS residuals)."""

    def test_drops_scores_above_six_medians(self):
        # median 0.0115: 0.070 is above 6x the median, 0.060 is not
        scores = np.array([0.010, 0.012, 0.011, 0.070, 0.060, 0.009])
        np.testing.assert_array_equal(ext._consensus_mask(scores),
                                      [True, True, True, False, True, True])

    def test_zero_median_keeps_every_frame(self):
        scores = np.array([0.0, 0.0, 0.0, 0.5])
        assert ext._consensus_mask(scores).all()

    def test_nan_median_keeps_every_frame(self):
        # the 6x rule would keep no frame here
        scores = np.array([0.01, np.nan, 0.02])
        assert ext._consensus_mask(scores).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6) | st.just(math.nan),
                    min_size=1, max_size=40))
    def test_never_empty(self, values):
        scores = np.array(values)
        keep = ext._consensus_mask(scores)
        assert keep.any()
        med = np.median(scores)
        if med > 0.0:
            np.testing.assert_array_equal(keep, scores <= 6.0 * med)


class TestRejectSchedule:
    """The gate shrinks one stage per outer iteration."""

    @pytest.mark.parametrize("it,expected", [
        (0, 0.5), (1, 0.5 * 0.2 ** 0.25), (2, 0.5 * 0.2 ** 0.5),
        (3, 0.5 * 0.2 ** 0.75), (4, 0.1), (5, 0.1), (29, 0.1)])
    def test_default_schedule(self, it, expected):
        assert ext._reject_schedule(ext.CalibConfig(), it) == \
            pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("it", [0, 1, 7])
    def test_single_stage_is_reject_end(self, it):
        cfg = ext.CalibConfig(reject_iters=1, reject_end=0.2)
        assert ext._reject_schedule(cfg, it) == 0.2

    def test_containment_from_last_stage(self, room_calib_setup,
                                         monkeypatch):
        # association is by nearest surface while the gate is still
        # shrinking and by containment from iteration reject_iters - 1 on
        ds, index, anchors = room_calib_setup
        cfg = ext.CalibConfig()
        calls = []
        associate = ext._associate_frame

        def recording(*args, **kwargs):
            calls.append((args[5], kwargs["nearest"] is None))
            return associate(*args, **kwargs)

        monkeypatch.setattr(ext, "_associate_frame", recording)
        guess = sim.perturb(ds.extrinsic, 0.3, 20.0, 23)
        result = ext.calibrate(index, ds.frames_b, anchors, guess, cfg)
        assert result.iterations >= cfg.reject_iters
        per_iter = len(calls) // result.iterations
        assert len(calls) == per_iter * result.iterations
        for it in range(result.iterations):
            gate = ext._reject_schedule(cfg, it)
            assert result.outer_trace[it].reject_dist == gate
            assert calls[it * per_iter:(it + 1) * per_iter] == \
                [(gate, it >= cfg.reject_iters - 1)] * per_iter


class TestEvaluate:
    def test_equal_poses(self):
        gt = sim.RIG_PRESETS["config1"].to_pose()
        assert ext.evaluate(gt, gt) == (0.0, 0.0)

    def test_translation_offset_scale(self):
        gt = sim.RIG_PRESETS["config1"].to_pose()
        est = Pose(gt.rotation, gt.translation + np.array([0.005, 0.0, 0.0]))
        e_t, e_r = ext.evaluate(est, gt)
        assert e_t == pytest.approx(0.005)
        assert e_r == pytest.approx(0.0, abs=1e-12)

    def test_rotation_offset(self):
        gt = sim.RIG_PRESETS["config2"].to_pose()
        est = Pose(geo.rot_z(math.radians(0.2)) @ gt.rotation, gt.translation)
        _, e_r = ext.evaluate(est, gt)
        assert e_r == pytest.approx(math.radians(0.2), abs=1e-9)
