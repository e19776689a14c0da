"""Extrinsic recovery of the source LiDAR against the voxelized reference map.

Each source frame's points are carried into the map's world frame through
the synchronized reference-sensor pose (the anchor) composed with the
current extrinsic estimate, matched to voxel planes by containment, and the
extrinsic is refined by weighted point-to-plane Levenberg-Marquardt on the
Lie algebra: each frame's matches form a `ptplane.PlaneBatch` anchored at
its reference pose, and the consensus frames' batches are solved jointly by
`ptplane.lm_refine`, the solver the LBA uses too. An outer loop
re-associates every frame under a distance gate that shrinks one stage per
iteration, keeps the consensus frames (robust RMS residual at the shared
estimate within 6x the median), takes one joint LM solve over them with the
association and robust weights frozen, and stops once that step drops below
the convergence threshold.

An outer iteration recomputes only what depends on the estimate: the
deskewed points, their world positions, the association, the per-frame
residuals and the joint step.
Everything else is computed once per call: downsampling, local normals,
seeding, and each sweep's deskewing coefficients. Deskewing with the
reference motion rel conjugated by the estimate T needs no new coefficients,
because log(T^-1 rel T) = Ad_{T^-1} log rel gives
T^-1 exp(s log rel) T = exp(s log(T^-1 rel T)).

The joint batch stacks the consensus frames in frame order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from scipy.spatial import cKDTree

from . import geometry as geo
from . import pointcloud as pc
from . import voxelmap as vm
from .errors import InvalidParams, NoCorrespondences, Unobservable
from .geometry import Pose
from .pointcloud import Frame
from .ptplane import (CAUCHY_FACTOR, CAUCHY_SCALE_FLOOR, INNER_TOL, PlaneBatch,
                      cauchy_weights, fit_planes, lm_refine, normal_equations)
from .voxelmap import VoxelMapIndex


# Association additionally requires |cos| >= NORMAL_GATE between the source
# point's own local surface normal and the matched plane normal: points
# falling into a cell (or near a surface) that belongs to a different
# structure are rejected categorically instead of relying on residual-scale
# weighting. Seeding scores candidate poses with the same test.
NORMAL_GATE = 0.85
# frames with fewer matches sit out the outer iteration
MIN_FRAME_CORR = 20
# the joint batch is unobservable above this condition number of the
# undamped Gauss-Newton H at its start pose (see lm_solve)
COND_LIMIT = 1e12
# seeding scores candidates on about this many evenly spaced probe frames,
# with proximity weight 1 / (1 + (d / ROT_SEED_KERNEL)^2) at distance d (m)
ROT_SEED_FRAMES = 6
ROT_SEED_KERNEL = 0.1
# seeding's grid: rotation offsets of 0.15 rad to ROT_SEED_MAX_DEG (the
# basin covers ~10 degrees, the guess envelope 30) crossed with a
# +-TRANS_SEED_STEP (m) cube of translation offsets
ROT_SEED_MAX_DEG = 35.0
TRANS_SEED_STEP = 0.45
# the best-ranked rotations get the full translation grid; rotation ranking
# and that grid run on every SEED_COARSE_STRIDE-th probe point, and the
# SEED_FINALISTS best grid candidates are rescored on all of them
ROT_SEED_LEADERS = 8
SEED_COARSE_STRIDE = 4
SEED_FINALISTS = 8


@dataclass
class CalibConfig:
    max_outer_iters: int = 30
    convergence_delta: float = 1e-5
    frame_stride: int = 1
    # association gate shrinks geometrically from start to end over the
    # first reject_iters outer iterations, tolerating coarse initial guesses
    reject_start: float = 0.5
    reject_end: float = 0.1
    reject_iters: int = 5
    downsample_leaf: float = 0.1
    # rotation offsets of the guess that seeding scores (0 disables it)
    rot_seed_candidates: int = 40

    def validate(self):
        if self.max_outer_iters < 1:
            raise InvalidParams("max_outer_iters must be >= 1")
        if not self.convergence_delta > 0.0:
            raise InvalidParams("convergence delta must be positive")
        if self.frame_stride < 1:
            raise InvalidParams("frame stride must be >= 1")
        if not (self.reject_start > 0.0 and self.reject_end > 0.0):
            raise InvalidParams("reject_start and reject_end must be positive")
        if not self.downsample_leaf >= 0.0:
            raise InvalidParams("downsample_leaf must be >= 0 (0 is off)")


@dataclass
class OuterIteration:
    iteration: int
    objective_before: float
    objective_after: float
    update_norm: float
    frames_used: int
    reject_dist: float
    # frames left out of the joint step: too few matches, or outside the
    # consensus
    skipped_frames: list[int] = field(default_factory=list)


@dataclass
class CalibrationResult:
    extrinsic: Pose
    outer_trace: list[OuterIteration]
    # per outer iteration: the joint LM solve's trace
    lm_traces: list[list[dict]]
    converged: bool
    iterations: int


def lm_solve(batch: PlaneBatch, t_init: Pose,
             inner_tol: float) -> tuple[Pose, list[dict]]:
    """Weighted point-to-plane LM (`ptplane.lm_refine`) for one batch.

    `calibrate` runs it once per outer iteration, on the joint batch of the
    consensus frames; its test is the only observability test there.
    Raises Unobservable for fewer than 6 matches, or when the undamped
    Gauss-Newton H at t_init has condition number above COND_LIMIT.
    """
    if len(batch) < 6:
        raise Unobservable(f"only {len(batch)} correspondences (< 6)")
    h, _ = normal_equations(batch, t_init)
    if np.linalg.cond(h) > COND_LIMIT:
        raise Unobservable("normal equations are ill conditioned "
                           "(degenerate plane geometry)")
    return lm_refine(batch, t_init, inner_tol)


class _NearestPlaneLookup:
    """Nearest-surface association for the coarse stages.

    Containment association cannot reach past one voxel, which caps the
    convergence basin well below the tolerated initial-guess envelope; while
    the gate is wide, points are matched to the plane owning their nearest
    mapped surface point instead (the iteratively-tightened matching idea),
    and containment takes over for the final stage.
    """

    def __init__(self, index: VoxelMapIndex):
        owner = np.full(len(index.points), -1, dtype=int)
        if index.leaf_planes:
            # leaves own disjoint point sets
            owner[np.concatenate([p.point_indices for p in index.leaf_planes])] = \
                np.repeat(index.leaf_to_plane,
                          [len(p.point_indices) for p in index.leaf_planes])
        owned = owner >= 0
        self.plane_ids = owner[owned]
        self.tree = cKDTree(index.points[owned], balanced_tree=False,
                            compact_nodes=False)

    def query(self, points: np.ndarray,
              radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Distance to the nearest mapped surface point and its plane id;
        inf and -1 beyond radius."""
        dist, idx = self.tree.query(points, k=1, distance_upper_bound=radius)
        hit = np.isfinite(dist)
        out = np.full(len(points), -1, dtype=int)
        out[hit] = self.plane_ids[idx[hit]]
        return dist, out


def _local_normals(points: np.ndarray, k: int = 6) -> np.ndarray:
    """Unit normals of each point's k-neighborhood within its own cloud."""
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    _, idx = tree.query(points, k=min(k, len(points)))
    return fit_planes(points[idx])[2]


class _SeedProbes(NamedTuple):
    """Seeding's probe frames stacked point by point: sensor-frame
    positions and local normals, and each point's anchor rotation and
    translation."""

    points: np.ndarray
    normals: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray

    def every(self, stride: int) -> "_SeedProbes":
        return _SeedProbes(*(a[::stride] for a in self))


def _seed_probes(frames: list[Frame], anchors: list[Pose]) -> _SeedProbes | None:
    """About ROT_SEED_FRAMES evenly spaced frames, each thinned to about 600
    points; frames with fewer than 8 points are left out. None when no
    frame is left."""
    step = max(1, len(frames) // ROT_SEED_FRAMES)
    points, normals, probe_anchors = [], [], []
    for j in range(0, len(frames), step):
        pts = frames[j].positions
        if len(pts) > 600:
            pts = pts[:: len(pts) // 600 + 1]
        if len(pts) < 8:
            continue
        points.append(pts)
        normals.append(_local_normals(pts))
        probe_anchors.append(anchors[j])
    if not points:
        return None
    owner = np.repeat(np.arange(len(points)), [len(p) for p in points])
    return _SeedProbes(np.vstack(points), np.vstack(normals),
                       np.stack([a.rotation for a in probe_anchors])[owner],
                       np.stack([a.translation for a in probe_anchors])[owner])


def _seed_score(map_index: VoxelMapIndex, nearest: "_NearestPlaneLookup",
                probes: _SeedProbes, cand: Pose, radius: float) -> float:
    """Seeding's score of a candidate extrinsic, one nearest-surface query.

    Each probe point scores its proximity weight to the nearest mapped
    surface point within radius when its normal agrees with that plane's
    (NORMAL_GATE), and 0 otherwise. Points are bucketed by their normal's
    dominant world axis, and the score is the mean over occupied buckets
    of the bucket's mean: a slide along the dominant planes keeps their
    proximity and normals intact, and only the minority directions (walls
    vs. floor) expose the impostor.
    """
    world = np.einsum("nij,nj->ni", probes.rotations,
                      probes.points @ cand.rotation.T + cand.translation)
    world += probes.translations
    n_world = np.einsum("nij,nj->ni", probes.rotations,
                        probes.normals @ cand.rotation.T)
    buckets = np.argmax(np.abs(n_world), axis=1)
    bucket_cnt = np.bincount(buckets, minlength=3)
    dist, ids = nearest.query(world, radius)
    hit = ids >= 0
    agree = np.abs(np.einsum("ij,ij->i", map_index.normals[ids[hit]], n_world[hit]))
    prox = 1.0 / (1.0 + (dist[hit] / ROT_SEED_KERNEL) ** 2)
    bucket_sum = np.bincount(buckets[hit], prox * (agree >= NORMAL_GATE),
                             minlength=3)
    occupied = bucket_cnt > 0
    return float(np.mean(bucket_sum[occupied] / bucket_cnt[occupied]))


def _seed_initial(map_index: VoxelMapIndex, nearest: "_NearestPlaneLookup",
                  frames: list[Frame], anchors: list[Pose], t_guess: Pose,
                  cfg: CalibConfig) -> Pose:
    """Pick the best-scoring (rotation, translation) offset of the guess.

    The point-to-plane basin is narrower than the tolerated guess envelope,
    so a joint grid (identity plus a fixed, seeded set of axis-angle offsets
    within ROT_SEED_MAX_DEG, crossed with a +-TRANS_SEED_STEP cube) is
    scored on subsampled probe frames (`_seed_score`). The score combines
    chamfer proximity to the mapped surface points with agreement between
    each probe point's own local normal and the matched plane normal: with
    a partially covered map, proximity alone rewards sliding unmapped
    regions onto other surfaces, and only the normal term breaks such
    impostor alignments.

    The probe frames are stacked once, so a candidate costs one transform
    and one nearest-surface query over all probe points. Rotations are
    ranked, and the ROT_SEED_LEADERS leaders' translation grid is scored, on
    every SEED_COARSE_STRIDE-th probe point (successive halving: Jamieson
    & Talwalkar, AISTATS 2016). The SEED_FINALISTS best grid candidates and
    the guess are then scored on all probe points. A finalist must beat
    1.10x the guess's score, and the first in grid order wins ties. The
    result is a deterministic function of the inputs.
    """
    if cfg.rot_seed_candidates <= 0:
        return t_guess
    rng = np.random.default_rng(1234)
    rot_offsets = [np.zeros(3)]
    for _ in range(cfg.rot_seed_candidates):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.15, math.radians(ROT_SEED_MAX_DEG))
        rot_offsets.append(axis * angle)
    s = TRANS_SEED_STEP
    trans_offsets = [np.array([dx, dy, dz]) for dx in (-s, 0.0, s)
                     for dy in (-s, 0.0, s) for dz in (-s, 0.0, s)]
    full = _seed_probes(frames, anchors)
    if full is None:
        return t_guess
    coarse = full.every(SEED_COARSE_STRIDE)

    def score(cand: Pose, probes: _SeedProbes) -> float:
        return _seed_score(map_index, nearest, probes, cand, cfg.reject_start)

    # rank rotations at the guessed translation first, then run the full
    # translation grid only for the leaders (rotation ranking at a wrong
    # translation is noisy, so several leaders are kept). A challenger must
    # beat the guess by a clear margin: near the optimum the score is flat
    # and a nearby offset could displace an already-good guess.
    ranked = sorted(rot_offsets,
                    key=lambda off: -score(Pose(
                        t_guess.rotation @ geo.exp_so3(off), t_guess.translation),
                        coarse))
    grid = [Pose(t_guess.rotation @ geo.exp_so3(rot_off),
                 t_guess.translation + trans_off)
            for rot_off in ranked[:ROT_SEED_LEADERS] for trans_off in trans_offsets]
    coarse_scores = [score(cand, coarse) for cand in grid]
    # the best coarse scores (grid order breaks ties), rescored in grid order
    finalists = sorted(sorted(range(len(grid)), key=lambda i: -coarse_scores[i])
                       [:SEED_FINALISTS])
    best_pose = t_guess
    best_score = 1.10 * score(t_guess, full)
    for i in finalists:
        cand_score = score(grid[i], full)
        if cand_score > best_score:
            best_score = cand_score
            best_pose = grid[i]
    return best_pose


def _reject_schedule(cfg: CalibConfig, it: int) -> float:
    """The gate of outer iteration `it`: geometric from reject_start at
    iteration 0 down to reject_end at iteration reject_iters - 1, and
    reject_end from then on."""
    if cfg.reject_iters <= 1:
        return cfg.reject_end
    frac = min(it, cfg.reject_iters - 1) / (cfg.reject_iters - 1)
    return cfg.reject_start * (cfg.reject_end / cfg.reject_start) ** frac


def _associate_frame(index: VoxelMapIndex, points: np.ndarray,
                     world: np.ndarray, anchor: Pose, estimate: Pose,
                     reject_dist: float,
                     nearest: _NearestPlaneLookup | None = None,
                     local_normals: np.ndarray | None = None) -> PlaneBatch | None:
    """The frame's matches: sensor-frame points with their world positions
    under the anchor and the estimate."""
    if nearest is not None:
        _, ids = nearest.query(world, reject_dist)
        if (ids >= 0).any():
            resid = np.abs(np.einsum(
                "ij,ij->i", index.normals[np.maximum(ids, 0)],
                world - index.centroids[np.maximum(ids, 0)]))
            ids = np.where(resid <= reject_dist, ids, -1)
    else:
        ids = vm.associate_batch(world, index, reject_dist)
    if local_normals is not None and (ids >= 0).any():
        rot_w = anchor.rotation @ estimate.rotation
        agree = np.abs(np.einsum("ij,ij->i", index.normals[np.maximum(ids, 0)],
                                 local_normals @ rot_w.T))
        ids = np.where(agree >= NORMAL_GATE, ids, -1)
    matched = ids >= 0
    if not matched.any():
        return None
    world = world[matched]
    ids = ids[matched]
    pts = points[matched]
    normals = index.normals[ids]
    centroids = index.centroids[ids]
    resid = np.abs(np.einsum("ij,ij->i", normals, world - centroids))
    # robust scale per dominant normal axis: residual magnitudes are highly
    # anisotropic while converging, and a single global scale would crush
    # the sparse constraints along directions that are still far off
    robust = np.ones_like(resid)
    buckets = np.argmax(np.abs(normals), axis=1)
    for b in range(3):
        sel = buckets == b
        if not sel.any():
            continue
        scale = max(CAUCHY_SCALE_FLOOR, float(np.median(resid[sel])))
        robust[sel] = cauchy_weights(resid[sel], CAUCHY_FACTOR, scale)
    return PlaneBatch(pts, normals, centroids, index.weights[ids] * robust,
                      anchor)


def _joint_batch(batches: list[PlaneBatch]) -> PlaneBatch:
    """One batch over several frames with each anchor folded into its planes:
    n . (A T p - c) = (R_A^T n) . (T p - A^-1 c), so every residual depends
    on the shared extrinsic alone."""
    return PlaneBatch(
        np.vstack([b.points for b in batches]),
        np.vstack([b.normals @ b.anchor.rotation for b in batches]),
        np.vstack([geo.apply(geo.inverse(b.anchor), b.centroids) for b in batches]),
        np.concatenate([b.weights for b in batches]))


def _consensus_mask(scores: np.ndarray) -> np.ndarray:
    """Frames whose score is at most 6x the median score, or every frame
    when the median is 0 or NaN. A positive median keeps at least the
    frames at or below it, so the mask is never empty.

    At 3x, the yard's frames 35-39 (at 3.4-5.4x the median against the
    exact map) left the consensus for good, and the loop converged up to
    14 mm off on the estimate biased without them."""
    med = float(np.median(scores))
    if not med > 0.0:
        return np.ones(len(scores), dtype=bool)
    return scores <= 6.0 * med


def calibrate(map_index: VoxelMapIndex, frames_b: list[Frame],
              anchors: list[Pose], t_guess: Pose,
              cfg: CalibConfig | None = None) -> CalibrationResult:
    """Extrinsic estimation by joint weighted LM against the reference map.

    Per outer iteration every strided frame is deskewed with the reference
    motion rel conjugated by the current estimate T and associated to map
    planes under the current rejection gate, which freezes the matches and
    their robust weights. Each sweep's point-form coefficients M_s of
    exp(s log rel) are computed once per call (`pc.sweep_coefficients`):
    an iteration computes q = M_s(T p) and takes T^-1 q as the deskewed
    points and A q as their world positions under the anchor A. The gate
    shrinks one stage per iteration (`_reject_schedule`), and association
    is by nearest surface until its last stage and by containment from
    then on. Each frame with at least MIN_FRAME_CORR matches is scored by
    its robust RMS residual at T, sqrt(f_i(T) / sum of its weights), under
    the frozen weights; the consensus frames are those within 6x the median
    score (`_consensus_mask`, the only frame filter). A frame that sees too
    few surfaces to pin all six DoF alone still takes part. The next
    estimate is one joint LM solve of the summed objective over the
    consensus frames, so every outer step decreases the frozen objective
    and `lm_solve` runs once per outer iteration. The loop stops once the
    joint step drops below convergence_delta.

    Raises NoCorrespondences when no frame has enough matches, and
    Unobservable, with every usable frame's index, when the consensus
    frames jointly leave a direction unconstrained.
    """
    cfg = cfg or CalibConfig()
    cfg.validate()
    if len(frames_b) != len(anchors):
        raise InvalidParams("frames and anchors must correspond one-to-one")
    sel = list(range(0, len(frames_b), cfg.frame_stride))
    frames = [frames_b[i] for i in sel]
    anchor_list = [anchors[i] for i in sel]
    if cfg.downsample_leaf > 0:
        frames = [pc.voxel_downsample(f, cfg.downsample_leaf) for f in frames]

    # reference-frame motion over each sweep, and its point form for
    # deskewing (see the docstring); None leaves a frame as it is
    stamps = [f.stamp for f in frames_b]
    rels = [pc.sweep_motion(anchors, stamps, i, frames_b[i].scan_duration)
            if frames_b[i].scan_duration > 0.0 and len(anchors) > 1 else None
            for i in sel]
    motions = [pc.sweep_coefficients(f, rel) if rel is not None and len(f) else None
               for f, rel in zip(frames, rels)]

    nearest_lookup = _NearestPlaneLookup(map_index)
    # sensor-frame local normals, computed once per frame (deskewing warps
    # positions by at most the intra-scan motion, which leaves 6-neighbor
    # normal directions unchanged at any useful tolerance)
    frame_normals: list[np.ndarray | None] = [
        _local_normals(f.positions) if len(f) >= 8 else None for f in frames]
    t_prev = _seed_initial(map_index, nearest_lookup, frames, anchor_list,
                           t_guess, cfg)
    outer_trace: list[OuterIteration] = []
    lm_traces: list[list[dict]] = []
    converged = False
    iterations = 0
    for it in range(cfg.max_outer_iters):
        iterations = it + 1
        reject = _reject_schedule(cfg, it)
        coarse = it < cfg.reject_iters - 1
        prev_inv = geo.inverse(t_prev)
        batches: list[PlaneBatch | None] = []
        for k, (f, anchor, motion) in enumerate(zip(frames, anchor_list, motions)):
            if motion is None:
                points = f.positions
                world = geo.apply(anchor, geo.apply(t_prev, points))
            else:
                moved = geo.apply_scaled_motion(motion, geo.apply(t_prev, f.positions))
                points = geo.apply(prev_inv, moved)
                world = geo.apply(anchor, moved)
            batch = _associate_frame(map_index, points, world, anchor, t_prev,
                                     reject,
                                     nearest=nearest_lookup if coarse else None,
                                     local_normals=frame_normals[k])
            batches.append(batch)
        usable = [i for i, b in enumerate(batches)
                  if b is not None and len(b) >= MIN_FRAME_CORR]
        if not usable:
            raise NoCorrespondences(
                "no frame found enough map correspondences (check FoV overlap "
                "with the map and the initial guess)")
        scores = np.array([math.sqrt(batches[i].objective(t_prev)
                                     / float(np.sum(batches[i].weights)))
                           for i in usable])
        kept = _consensus_mask(scores)
        consensus = [usable[k] for k in np.nonzero(kept)[0]]
        skipped = [sel[i] for i in range(len(frames)) if i not in consensus]
        joint = _joint_batch([batches[i] for i in consensus])
        try:
            t_new, joint_trace = lm_solve(joint, t_prev, INNER_TOL)
        except Unobservable as exc:
            raise Unobservable(str(exc),
                               frame_indices=[sel[i] for i in usable]) from exc
        lm_traces.append(joint_trace)
        # translation norm plus half the rotation angle of the joint step
        step = geo.log_se3(geo.compose(prev_inv, t_new))
        update = float(np.linalg.norm(step.trans) + 0.5 * np.linalg.norm(step.rot))
        outer_trace.append(OuterIteration(
            it, joint.objective(t_prev), joint.objective(t_new), update,
            len(consensus), reject, skipped))
        t_prev = t_new
        if update < cfg.convergence_delta:
            converged = True
            break
    return CalibrationResult(t_prev, outer_trace, lm_traces, converged,
                             iterations)


def evaluate(result: CalibrationResult | Pose, gt: Pose) -> tuple[float, float]:
    """Translation error (m) and rotation error (rad) against ground truth."""
    est = result.extrinsic if isinstance(result, CalibrationResult) else result
    return geo.translation_error(est, gt), geo.rotation_error(est, gt)


def write_report(path, result: CalibrationResult, gt: Pose | None = None,
                 config_echo: dict | None = None) -> None:
    """Calibration report: estimate line, outer-iteration CSV, error metrics.

    Each CSV row carries the outer iteration's association gate
    (reject_dist, m) and the frames left out of its joint step
    (skipped_frames, space-separated frame indices).

    The estimate is returned as the jointly refined absolute transform; composing
    it once more with the initial guess would double-count the guess, so no
    such composition is applied (noted here for audit against descriptions
    that state a final re-composition).
    """
    with open(path, "w") as fh:
        if config_echo:
            for key in sorted(config_echo):
                fh.write(f"# config {key} = {config_echo[key]}\n")
        fh.write("# extrinsic estimate (stamp tx ty tz qx qy qz qw)\n")
        fh.write(pc.format_pose_line(result.extrinsic, 0.0) + "\n")
        fh.write(f"# converged {result.converged} iterations {result.iterations}\n")
        fh.write("iter,objective,update_norm,frames_used,reject_dist,"
                 "skipped_frames\n")
        for entry in result.outer_trace:
            skipped = " ".join(str(i) for i in entry.skipped_frames)
            fh.write(f"{entry.iteration},{entry.objective_after:.9g},"
                     f"{entry.update_norm:.9g},{entry.frames_used},"
                     f"{entry.reject_dist:.9g},{skipped}\n")
        if gt is not None:
            e_trans, e_rot = evaluate(result, gt)
            fh.write(f"e_trans_m {e_trans:.9g}\n")
            fh.write(f"e_rot_rad {e_rot:.9g}\n")
