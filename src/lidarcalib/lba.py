"""Sliding-window LiDAR bundle adjustment over the reference sensor's frames.

The frame sequence is cut into overlapping windows (window size w, step d,
overlap o = d/2, count k = ceil((n-d)/(d-o)) + 1, m-th window starting at
frame 1 + (m-1)(d-o), 1-based). Within a window the first pose is held fixed
and the remaining poses are refined by point-to-plane Levenberg-Marquardt
(`ptplane.lm_refine`, the solver calibration uses too): each point of a
non-reference frame is matched to a local plane fit over its k nearest
neighbors from the frames before it (`ptplane.fit_planes`, the closed-form
kernel calibration's local normals use too; collinear sets get no match),
planes are frozen during the inner LM solve, and association is repeated
for a few rounds. A window's initial and final costs are both taken under
the last round's association, with that round's annealed Cauchy factor.
Windows are stitched by seeding the shared frames from the previous
window's result and tying the first o of them with a quadratic prior on
log(prev^-1 * current).

The union of the refined, downsampled frames becomes the reference map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import geometry as geo
from . import pointcloud as pc
from .errors import DegenerateGeometry, InvalidParams, StampMismatch
from .geometry import Pose
from .pointcloud import Frame, Trajectory
from .ptplane import (CAUCHY_FACTOR, CAUCHY_SCALE_FLOOR, INNER_TOL,
                      MAX_DEV_FLOOR, PlaneBatch, cauchy_weights, fit_planes,
                      lm_refine, plane_gate, prior_residual)


# The Cauchy factor (ptplane.CAUCHY_FACTOR in round 0) anneals across
# association rounds, factor * CAUCHY_DECAY^round but at least
# CAUCHY_FACTOR_MIN (graduated non-convexity): a scale that tracks the
# shrinking error keeps partial weight on cross-surface matches and would
# stall the iteration millimeters short of the optimum.
CAUCHY_DECAY = 0.7
CAUCHY_FACTOR_MIN = 1.2
# weight of the prior tying a window's overlap frames to the last window
OVERLAP_WEIGHT = 1e3


@dataclass
class LbaParams:
    window: int = 20
    step: int = 10
    k_neighbors: int = 5
    max_corr_dist: float = 1.0
    assoc_rounds: int = 4
    downsample_leaf: float = 0.25

    def validate(self):
        _check_window(self.window, self.step)
        if self.k_neighbors < 3:
            raise InvalidParams("k_neighbors must be >= 3 (a plane takes 3)")
        if not self.max_corr_dist > 0.0:
            raise InvalidParams("max_corr_dist must be positive")
        if self.assoc_rounds < 1:
            raise InvalidParams("assoc_rounds must be >= 1")
        if not self.downsample_leaf >= 0.0:
            raise InvalidParams("downsample_leaf must be >= 0 (0 is off)")


def _check_window(w: int, d: int) -> None:
    """Window size w and step d preconditions of the window plan."""
    if w < 2:
        raise InvalidParams("window size must be >= 2")
    if d % 2 != 0:
        raise InvalidParams("step size d must be even (overlap o = d/2)")
    if d > w:
        raise InvalidParams("step size d must not exceed window size w")


@dataclass
class WindowPlan:
    n: int
    w: int
    d: int
    o: int
    windows: list[tuple[int, int]]  # 0-based inclusive (start, end)


def plan_windows(n: int, w: int, d: int) -> WindowPlan:
    """Partition n frames into k = ceil((n-d)/(d-o)) + 1 overlapping windows."""
    if n < 1:
        raise InvalidParams("need at least one frame")
    _check_window(w, d)
    o = d // 2
    if n <= d or w > n:
        return WindowPlan(n, w, d, o, [(0, n - 1)])
    k = math.ceil((n - d) / (d - o)) + 1
    windows = []
    for m in range(k):
        start = m * (d - o)
        end = min(start + w - 1, n - 1)
        windows.append((start, end))
    return WindowPlan(n, w, d, o, windows)


@dataclass
class WindowResult:
    """One window's refinement. Both costs are the window objective under
    the last round's association and annealed Cauchy factor: initial_cost
    at the start poses, final_cost at refined_poses."""

    refined_poses: list[Pose]
    final_cost: float
    initial_cost: float
    trace: list[dict] = field(default_factory=list)


@dataclass
class ReferenceMap:
    """Accumulated world-frame map: the union of the refined frames."""

    points: np.ndarray


@dataclass
class LbaResult:
    trajectory: Trajectory
    map: ReferenceMap
    window_results: list[WindowResult]


def _match_frame_to_pool(points_local: np.ndarray, pose: Pose,
                         pool_pts: np.ndarray, params: LbaParams,
                         cauchy_factor: float = CAUCHY_FACTOR):
    """Local plane fits over the k nearest pool neighbors of each point.

    Each point's neighbor set is exactly its k_neighbors nearest pool
    points, nearest first; a point with fewer than k_neighbors pool points
    within max_corr_dist (or a pool smaller than k_neighbors) gets no match.
    Returns (pt_local, normal, centroid, weight) for the accepted matches.
    Pool points are world frame and frozen. Acceptance is
    `ptplane.plane_gate`, the test voxel cells pass too. Cauchy weights are
    computed from the point's own residual against the robust per-frame
    scale.
    """
    kn = params.k_neighbors
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    if len(pool_pts) < kn or len(points_local) == 0:
        return empty
    world = geo.apply(pose, points_local)
    # sliding-midpoint splits: much faster queries on plane-sampled maps
    tree = cKDTree(pool_pts, balanced_tree=False, compact_nodes=False)
    dist, idx = tree.query(world, k=kn, distance_upper_bound=params.max_corr_dist)
    # distances come sorted, so the k-th is finite only if all k are
    enough = np.isfinite(dist.reshape(len(world), kn)[:, -1])
    if not enough.any():
        return empty
    nbr_pts = pool_pts[idx.reshape(len(world), kn)[enough]]   # (M, kn, 3)
    pts = points_local[enough]
    world_pts = world[enough]
    centroid, evals, normal = fit_planes(nbr_pts)
    centered = nbr_pts - centroid[:, None, :]
    dev = np.max(np.abs(np.einsum("mki,mi->mk", centered, normal)), axis=1)
    # planes by shape alone (an infinite floor passes any flatness) set the
    # round's residual scale; the flatness floor then tracks 3x that scale,
    # so the slab-like (but legitimate) sets of early rounds survive
    shaped = plane_gate(evals, dev, np.inf)
    if not shaped.any():
        return empty
    resid_all = np.abs(np.einsum("ij,ij->i", normal, world_pts - centroid))
    scale = max(CAUCHY_SCALE_FLOOR, float(np.median(resid_all[shaped])))
    keep = plane_gate(evals, dev, max(MAX_DEV_FLOOR, 3.0 * scale))
    if not keep.any():
        return empty
    weight = cauchy_weights(resid_all[keep], cauchy_factor, scale)
    return pts[keep], normal[keep], centroid[keep], weight


def point_to_plane_cost(poses: list[Pose], batches: list[PlaneBatch],
                        prior: tuple[list[int], list[Pose], float] | None = None,
                        ) -> float:
    """Window objective: the weighted point-to-plane cost of every
    non-reference frame against its frozen planes, summed in frame order.

    batches[j - 1] holds frame j's matches, j = 1..len(poses)-1.
    `prior` = (frame indices, reference poses, weight) adds quadratic terms
    weight * |log(ref^-1 pose)|^2, frame 0 excepted.
    """
    cost = 0.0
    for pose, batch in zip(poses[1:], batches):
        if len(batch):
            cost += batch.objective(pose)
    if prior is not None:
        indices, refs, weight = prior
        for idx, ref in zip(indices, refs):
            if idx == 0:
                continue
            rho = prior_residual(ref, poses[idx])
            cost += weight * float(rho @ rho)
    return cost


def _check_frame_constraints(j: int, batch: PlaneBatch, pose: Pose):
    """Frame j's matches, taken at the pose they were matched at, must pin
    all six DoF."""
    count = len(batch)
    if count < 6:
        raise DegenerateGeometry(
            f"frame {j} has {count} point-to-plane constraints (< 6)")
    jrow = batch.jacobian(pose)
    evals = np.linalg.eigvalsh(jrow.T @ jrow)
    if evals[0] < 1e-10 * max(evals[-1], 1e-30):
        raise DegenerateGeometry(
            f"frame {j} constraints are rank deficient (plane geometry "
            "does not pin down 6 DoF)")


def optimize_window(frames: list[Frame], init_poses: list[Pose],
                    fixed_prefix: list[Pose], params: LbaParams) -> WindowResult:
    """Refine one window's poses; the first pose is held fixed throughout.

    Each association round sweeps the frames in order: frame j is matched
    against the current world points of frames 0..j-1 and solved alone by
    damped point-to-plane LM (Gauss-Seidel on the chain, so refinements
    propagate forward within a round). Pooling neighbors from the
    already-anchored prefix (rather than from all other frames) pins every
    frame to the window reference through the chain: a plane pool that moves
    with the frames being optimized leaves a coherent whole-block drift mode
    that robust weighting cannot anchor. fixed_prefix (empty or the
    stitching overlap) overrides the leading init poses and ties them with
    the quadratic overlap prior.

    initial_cost (start poses) and final_cost (returned poses) are both
    evaluated under the last round's association, with its annealed Cauchy
    factor: costs under different associations are not comparable. The same
    two costs decide whether the refinement is kept, so final_cost <=
    initial_cost always holds.
    """
    params.validate()
    w = len(frames)
    if len(init_poses) != w:
        raise InvalidParams("frames and init_poses must have equal length")
    poses = list(init_poses)
    n_prefix = len(fixed_prefix)
    if n_prefix:
        for i, p in enumerate(fixed_prefix):
            poses[i] = p
    start_poses = list(poses)
    prior = (None if n_prefix == 0 else
             (list(range(1, n_prefix)), list(fixed_prefix[1:]), OVERLAP_WEIGHT))

    trace: list[dict] = []
    for rnd in range(params.assoc_rounds):
        factor = max(CAUCHY_FACTOR_MIN, CAUCHY_FACTOR * CAUCHY_DECAY ** rnd)
        pool = geo.apply(poses[0], frames[0].positions)
        batches: list[PlaneBatch] = []
        max_move = 0.0
        for j in range(1, w):
            batch = PlaneBatch(*_match_frame_to_pool(
                frames[j].positions, poses[j], pool, params, factor))
            if rnd == 0:
                _check_frame_constraints(j, batch, poses[j])
            frame_prior = None
            if 0 < j < n_prefix:
                frame_prior = (fixed_prefix[j], OVERLAP_WEIGHT)
            new_pose, frame_trace = lm_refine(batch, poses[j], INNER_TOL,
                                              frame_prior)
            move = geo.translation_error(new_pose, poses[j]) + \
                geo.rotation_error(new_pose, poses[j])
            max_move = max(max_move, move)
            poses[j] = new_pose
            batches.append(batch)
            for entry in frame_trace:
                entry.update({"round": rnd, "frame": j})
            trace.extend(frame_trace)
            pool = np.vstack([pool, geo.apply(new_pose, frames[j].positions)])
        if max_move < INNER_TOL:
            break

    final_cost = point_to_plane_cost(poses, batches, prior)
    initial_cost = point_to_plane_cost(start_poses, batches, prior)
    if initial_cost < final_cost:
        # refinement lost ground on the last round's association: reject it
        poses = start_poses
        final_cost = initial_cost

    return WindowResult(poses, final_cost, initial_cost, trace)


def run_sliding_lba(frames: list[Frame], trajectory: Trajectory,
                    params: LbaParams | None = None) -> LbaResult:
    """Refine the full trajectory window by window and accumulate the map.

    Frames are expected to be motion compensated already. Each frame is
    voxel-downsampled once; the same reduced clouds feed both the window
    optimizations and the final map union, so the map point count equals the
    sum of the downsampled frame sizes.
    """
    params = params or LbaParams()
    params.validate()
    if len(frames) != len(trajectory):
        raise StampMismatch("frames and trajectory must correspond one-to-one")
    for f, stamp in zip(frames, trajectory.stamps):
        if abs(f.stamp - stamp) > pc.STAMP_TOL:
            raise StampMismatch(
                f"frame stamp {f.stamp:.6f} does not match trajectory {stamp:.6f}")
    n = len(frames)
    ds_frames = [pc.voxel_downsample(f, params.downsample_leaf)
                 if params.downsample_leaf > 0 else f for f in frames]
    plan = plan_windows(n, params.window, params.step)
    poses = list(trajectory.poses)
    window_results: list[WindowResult] = []

    for m, (start, end) in enumerate(plan.windows):
        win_frames = ds_frames[start:end + 1]
        init = poses[start:end + 1]
        prefix = poses[start:start + plan.o] if m > 0 else []
        try:
            result = optimize_window(win_frames, init, prefix, params)
        except DegenerateGeometry as exc:
            raise DegenerateGeometry(str(exc), window=m) from exc
        poses[start:end + 1] = result.refined_poses
        window_results.append(result)

    map_points = np.vstack([geo.apply(poses[j], ds_frames[j].positions)
                            for j in range(n)])
    refined = Trajectory(trajectory.stamps, poses)
    return LbaResult(refined, ReferenceMap(map_points), window_results)


def trajectory_error(est: Trajectory, gt: Trajectory) -> tuple[float, float]:
    """Mean first-pose-aligned pose error (meters, radians).

    Both trajectories are expressed relative to their own first pose before
    comparison, which removes the free gauge (the first pose is pinned
    during optimization, so its error is not attributable to the refiner).
    """
    if len(est) != len(gt):
        raise InvalidParams("trajectories must have equal length")
    e0_inv = geo.inverse(est.poses[0])
    g0_inv = geo.inverse(gt.poses[0])
    terrs, rerrs = [], []
    for e, g in zip(est.poses, gt.poses):
        rel_e = geo.compose(e0_inv, e)
        rel_g = geo.compose(g0_inv, g)
        terrs.append(geo.translation_error(rel_e, rel_g))
        rerrs.append(geo.rotation_error(rel_e, rel_g))
    return float(np.mean(terrs)), float(np.mean(rerrs))
