"""Sliding-window LiDAR bundle adjustment over the reference sensor's frames.

The frame sequence is cut into overlapping windows (window size w, step d,
overlap o = d/2, count k = ceil((n-d)/(d-o)) + 1, m-th window starting at
frame 1 + (m-1)(d-o), 1-based). Within a window the first pose is held fixed
and the remaining poses are refined by point-to-plane Levenberg-Marquardt
(`ptplane.lm_refine`, the solver calibration uses too): each point of a
non-reference frame is matched to a local plane fit over its k nearest
neighbors from the frames before it (`ptplane.fit_planes`, the closed-form
kernel calibration's local normals use too; collinear sets get no match),
and planes are frozen during the inner LM solve: the frame's matches become
its `ptplane.CostModel` at its current pose, the exact quadratic that the
solver and the window costs read. Association runs for a few rounds.
Neighbors are searched (a kd-tree build and query) in round 0, and in round
1 again for the frames no earlier window refined; every other round re-fits
the planes to the neighbors a frame holds, read at the current poses, so
the planes still move with the poses. A window's initial and final costs
are both taken under the last round's association, with that round's
annealed Cauchy factor.
Windows are stitched by seeding the shared frames from the previous
window's result: the first o of them are tied to those seeds with a
quadratic prior on log(seed^-1 * current).

The union of the refined, downsampled frames becomes the reference map.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import geometry as geo
from . import pointcloud as pc
from .errors import (DegenerateGeometry, InvalidParams, StampMismatch,
                     Unobservable, check_rules)
from .geometry import Pose
from .pointcloud import Frame, Trajectory
from .ptplane import (CAUCHY_FACTOR, CAUCHY_SCALE_FLOOR, INNER_TOL,
                      MAX_DEV_FLOOR, CostModel, PlaneBatch, cauchy_weights,
                      fit_planes, lm_refine, plane_gate, prior_residual)


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
        check_rules(vars(self), (
            ("k_neighbors", self.k_neighbors >= 3, "must be >= 3 (a plane takes 3)"),
            ("max_corr_dist", self.max_corr_dist > 0.0, "must be > 0"),
            ("assoc_rounds", self.assoc_rounds >= 1, "must be >= 1"),
            ("downsample_leaf", self.downsample_leaf >= 0.0,
             "must be >= 0 (0 is off)"),
        ))


def _check_window(w: int, d: int) -> None:
    """Window size w and step d preconditions of the window plan."""
    check_rules({"window": w, "step": d}, (
        ("window", w >= 2, "must be >= 2"),
        ("step", d >= 2 and d % 2 == 0,
         "must be a positive even number (overlap o = step/2)"),
        ("step", d <= w, f"must not exceed window = {w}"),
    ))


@dataclass
class WindowPlan:
    o: int
    windows: list[tuple[int, int]]  # 0-based inclusive (start, end)


def plan_windows(n: int, w: int, d: int) -> WindowPlan:
    """Partition n frames into k = ceil((n-d)/(d-o)) + 1 overlapping windows."""
    if n < 1:
        raise InvalidParams("need at least one frame")
    _check_window(w, d)
    o = d // 2
    if n <= d or w > n:
        return WindowPlan(o, [(0, n - 1)])
    k = math.ceil((n - d) / (d - o)) + 1
    windows = []
    for m in range(k):
        start = m * (d - o)
        end = min(start + w - 1, n - 1)
        windows.append((start, end))
    return WindowPlan(o, windows)


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


def _search_pool(world: np.ndarray, pool_pts: np.ndarray,
                 params: LbaParams) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest pool neighbors of each world point.

    Returns the rows of `world` with k_neighbors pool points within
    max_corr_dist (M,), and those neighbors' pool indices (M, k), nearest
    first; a pool smaller than k_neighbors gives no rows.
    """
    kn = params.k_neighbors
    if len(pool_pts) < kn or len(world) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros((0, kn), dtype=np.intp)
    # sliding-midpoint splits: much faster queries on plane-sampled maps
    tree = cKDTree(pool_pts, balanced_tree=False, compact_nodes=False)
    dist, idx = tree.query(world, k=kn, distance_upper_bound=params.max_corr_dist)
    # distances come sorted, so the k-th is finite only if all k are
    enough = np.isfinite(dist.reshape(len(world), kn)[:, -1])
    return np.flatnonzero(enough), idx.reshape(len(world), kn)[enough]


def _fit_to_pool(points_local: np.ndarray, world: np.ndarray,
                 pool_pts: np.ndarray, rows: np.ndarray, nbr_idx: np.ndarray,
                 cauchy_factor: float = CAUCHY_FACTOR):
    """Local plane fits over given pool neighbors of a frame's points.

    `world` is the frame at its current pose, and point rows[i] gets a plane
    fit over pool_pts[nbr_idx[i]] (`ptplane.fit_planes`, the closed-form
    kernel calibration's local normals use too). Returns (pt_local, normal,
    centroid, weight) for the accepted matches. Acceptance is
    `ptplane.plane_gate`, the test voxel cells pass too. Cauchy weights are
    computed from the point's own residual against the robust per-frame
    scale.
    """
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    if len(rows) == 0:
        return empty
    nbr_pts = pool_pts[nbr_idx]   # (M, kn, 3)
    pts = points_local[rows]
    world_pts = world[rows]
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


def point_to_plane_cost(poses: list[Pose], models: list[CostModel],
                        overlap: Sequence[Pose] = ()) -> float:
    """Window objective: the weighted point-to-plane cost of every
    non-reference frame against its frozen planes, summed in frame order.

    models[j - 1] holds frame j's matches, j = 1..len(poses)-1. `overlap`
    holds the reference poses of the leading frames; each but frame 0 adds
    the prior OVERLAP_WEIGHT * |log(ref^-1 pose)|^2.
    """
    cost = 0.0
    for pose, model in zip(poses[1:], models):
        cost += model.objective(pose)
    for ref, pose in zip(overlap[1:], poses[1:]):
        rho = prior_residual(ref, pose)
        cost += OVERLAP_WEIGHT * float(rho @ rho)
    return cost


def optimize_window(frames: list[Frame], init_poses: list[Pose],
                    n_overlap: int, params: LbaParams,
                    n_refined: int = 0) -> WindowResult:
    """Refine one window's poses; the first pose is held fixed throughout.

    Each association round sweeps the frames in order: frame j is matched
    against the current world points of frames 0..j-1 and solved alone by
    damped point-to-plane LM (Gauss-Seidel on the chain, so refinements
    propagate forward within a round). Pooling neighbors from the
    already-anchored prefix (rather than from all other frames) pins every
    frame to the window reference through the chain: a plane pool that moves
    with the frames being optimized leaves a coherent whole-block drift mode
    that robust weighting cannot anchor. The first n_overlap frames (0, or
    the stitching overlap) are tied to their init poses by the quadratic
    overlap prior.

    Neighbors are searched (a kd-tree over the prefix pool) in round 0 for
    every frame, and in round 1 again for the frames past the first
    n_refined, which no earlier window has refined, so their round-0 poses
    may be far off. Every other round re-fits a frame's planes to the pool
    indices of its last search, read at the current poses: the pool keeps
    its frame order and sizes, so the planes move with the poses.

    initial_cost (start poses) and final_cost (returned poses) are both
    evaluated under the last round's association, with its annealed Cauchy
    factor: costs under different associations are not comparable. The same
    two costs decide whether the refinement is kept, so final_cost <=
    initial_cost always holds.

    Raises DegenerateGeometry naming the frame whose matches fail the
    solver's observability test (`ptplane.lm_refine`; the prior takes no part).
    """
    params.validate()
    w = len(frames)
    if len(init_poses) != w:
        raise InvalidParams("frames and init_poses must have equal length")
    if not 0 <= n_overlap <= w:
        raise InvalidParams("n_overlap must lie in 0..len(frames)")
    if not 0 <= n_refined <= w:
        raise InvalidParams("n_refined must lie in 0..len(frames)")
    poses = list(init_poses)
    start_poses = list(poses)
    # frame j's world points at its current pose sit in rows
    # offsets[j]:offsets[j + 1], so pool[:offsets[j]] is frame j's prefix
    offsets = np.cumsum([0] + [len(f) for f in frames])
    pool = np.empty((offsets[-1], 3))
    pool[:offsets[1]] = geo.apply(poses[0], frames[0].positions)
    neighbors: list[tuple[np.ndarray, np.ndarray] | None] = [None] * w

    trace: list[dict] = []
    for rnd in range(params.assoc_rounds):
        factor = max(CAUCHY_FACTOR_MIN, CAUCHY_FACTOR * CAUCHY_DECAY ** rnd)
        models: list[CostModel] = []
        max_move = 0.0
        for j in range(1, w):
            local = frames[j].positions
            world = geo.apply(poses[j], local)
            if rnd == 0 or (rnd == 1 and j >= n_refined):
                neighbors[j] = _search_pool(world, pool[:offsets[j]], params)
            batch = PlaneBatch(*_fit_to_pool(local, world, pool, *neighbors[j],
                                             factor))
            model = CostModel.of(batch, poses[j])
            frame_prior = (start_poses[j], OVERLAP_WEIGHT) if j < n_overlap else None
            try:
                new_pose, frame_trace = lm_refine(model, frame_prior)
            except Unobservable as exc:
                raise DegenerateGeometry(f"frame {j}: {exc}") from exc
            move = geo.translation_error(new_pose, poses[j]) + \
                geo.rotation_error(new_pose, poses[j])
            max_move = max(max_move, move)
            poses[j] = new_pose
            models.append(model)
            for entry in frame_trace:
                entry.update({"round": rnd, "frame": j})
            trace.extend(frame_trace)
            pool[offsets[j]:offsets[j + 1]] = geo.apply(new_pose, local)
        if max_move < INNER_TOL:
            break

    overlap = start_poses[:n_overlap]
    final_cost = point_to_plane_cost(poses, models, overlap)
    initial_cost = point_to_plane_cost(start_poses, models, overlap)
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
    ds_frames = pc.downsample_frames(frames, params.downsample_leaf)
    plan = plan_windows(n, params.window, params.step)
    poses = list(trajectory.poses)
    window_results: list[WindowResult] = []

    for m, (start, end) in enumerate(plan.windows):
        win_frames = ds_frames[start:end + 1]
        init = poses[start:end + 1]
        # frames up to the previous window's end arrive refined
        n_refined = plan.windows[m - 1][1] - start + 1 if m > 0 else 0
        try:
            result = optimize_window(win_frames, init, plan.o if m > 0 else 0,
                                     params, n_refined=n_refined)
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
