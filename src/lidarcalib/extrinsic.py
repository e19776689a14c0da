"""Extrinsic recovery of the source LiDAR against the voxelized reference map.

Each source frame's points are carried into the map's world frame through
the synchronized reference-sensor pose (the anchor) composed with the
current extrinsic estimate and matched to voxel planes. The map only finds
each point's candidate plane (its nearest mapped surface, or its containing
leaf); this module judges the candidates, by one distance gate and a normal
test (`_associate_frame`). The extrinsic is refined by weighted
point-to-plane Levenberg-Marquardt on the Lie algebra: each frame folds
its reference pose into its matched planes and reduces its matches at once
to their exact quadratic cost, a `ptplane.CostModel` at the current
estimate. The consensus frames' models are summed and solved
jointly by `ptplane.lm_refine`, the solver the LBA uses too, whose
observability test on the match geometry is the only one here.
An outer loop re-associates every frame under a distance gate that
shrinks one stage per iteration, keeps the consensus frames (robust RMS
residual at the shared estimate within 6x the median), takes one joint LM
solve over them with the association and robust weights frozen, and stops
once that step drops below the convergence threshold.

An outer iteration recomputes only what depends on the estimate: the
deskewed points, their world positions, the association, the per-frame
residuals and the joint step.
Everything else is computed once per call: downsampling, seeding, which
frames have the MIN_FRAME_CORR points to ever be usable, and their local
normals and deskewing coefficients. Deskewing with the reference motion
rel conjugated by the estimate T needs no new coefficients, because
log(T^-1 rel T) = Ad_{T^-1} log rel gives
T^-1 exp(s log rel) T = exp(s log(T^-1 rel T)).

The joint model sums the consensus frames' models in frame order, so no
step holds more than one frame's matches.
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
from .errors import InvalidParams, NoCorrespondences, Unobservable, check_rules
from .geometry import Pose
from .pointcloud import Frame
from .ptplane import (CAUCHY_FACTOR, CAUCHY_SCALE_FLOOR, CostModel,
                      cauchy_weights, fit_planes, lm_refine)
from .voxelmap import VoxelMapIndex


# Association additionally requires |cos| >= NORMAL_GATE between the source
# point's own local surface normal and the matched plane normal: points
# falling into a cell (or near a surface) that belongs to a different
# structure are rejected categorically instead of relying on residual-scale
# weighting. Seeding scores candidate poses with the same test.
NORMAL_GATE = 0.85
# frames with fewer matches sit out the outer iteration
MIN_FRAME_CORR = 20
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
    # association gate shrinks geometrically from start to end over the
    # first reject_iters outer iterations, tolerating coarse initial guesses
    reject_start: float = 0.5
    reject_end: float = 0.1
    reject_iters: int = 5
    downsample_leaf: float = 0.1
    # rotation offsets of the guess that seeding scores (0 disables it)
    rot_seed_candidates: int = 40

    def validate(self):
        check_rules(vars(self), (
            ("max_outer_iters", self.max_outer_iters >= 1, "must be >= 1"),
            ("convergence_delta", self.convergence_delta > 0.0, "must be > 0"),
            ("reject_start", self.reject_start > 0.0, "must be > 0"),
            ("reject_end", self.reject_end > 0.0, "must be > 0"),
            ("reject_iters", self.reject_iters >= 1, "must be >= 1"),
            ("downsample_leaf", self.downsample_leaf >= 0.0,
             "must be >= 0 (0 is off)"),
            ("rot_seed_candidates", self.rot_seed_candidates >= 0,
             "must be >= 0 (0 disables seeding)"),
        ))


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


def lm_solve(model: CostModel) -> tuple[Pose, list[dict]]:
    """The joint step: weighted point-to-plane LM (`ptplane.lm_refine`) on
    one cost model, from its anchor. `calibrate` runs it once per outer
    iteration, on the sum of the consensus frames' models. Raises
    Unobservable when the model fails `lm_refine`'s observability test on
    the match geometry."""
    return lm_refine(model)


class _NearestPlaneLookup:
    """Nearest-surface association for the coarse stages.

    Containment association cannot reach past one voxel, which caps the
    convergence basin well below the tolerated initial-guess envelope; while
    the gate is wide, points are matched to the plane owning their nearest
    mapped surface point instead (the iteratively-tightened matching idea),
    and containment takes over for the final stage.
    """

    def __init__(self, index: VoxelMapIndex):
        owned = index.point_leaf >= 0
        self.plane_ids = index.leaf_to_plane[index.point_leaf[owned]]
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


def _local_normals(points: np.ndarray) -> np.ndarray:
    """Unit normals of each point's 6-neighborhood within its own cloud."""
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    _, idx = tree.query(points, k=min(6, len(points)))
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
    agree = np.abs(np.einsum("ij,ij->i", map_index.planes.normals[ids[hit]],
                             n_world[hit]))
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
                     reject_dist: float, local_normals: np.ndarray,
                     nearest: _NearestPlaneLookup | None = None) -> CostModel | None:
    """The cost model, at the estimate, of the frame's matches: sensor-frame
    points with their world positions under the anchor and the estimate,
    and their sensor-frame local normals. None with fewer than
    MIN_FRAME_CORR matches.

    Each point's candidate plane is the one owning its nearest mapped
    surface point within reject_dist when `nearest` is given, and its
    containing leaf's plane (`vm.associate_batch`) otherwise. A candidate
    is kept when its residual |n.(w - c)| is within reject_dist, the only
    distance gate of the package, and its normal agrees with the point's
    rotated local normal (NORMAL_GATE). The kept matches are weighted by
    plane confidence times a per-axis Cauchy weight.
    """
    planes = index.planes
    ids = (nearest.query(world, reject_dist)[1] if nearest is not None
           else vm.associate_batch(world, index))
    rows = np.flatnonzero(ids >= 0)
    ids = ids[rows]
    normals = planes.normals[ids]
    centroids = planes.centroids[ids]
    resid = np.abs(np.einsum("ij,ij->i", normals, world[rows] - centroids))
    rot_w = anchor.rotation @ estimate.rotation
    agree = np.abs(np.einsum("ij,ij->i", normals, local_normals[rows] @ rot_w.T))
    keep = (resid <= reject_dist) & (agree >= NORMAL_GATE)
    if np.count_nonzero(keep) < MIN_FRAME_CORR:
        return None
    rows, ids, normals, centroids, resid = (
        a[keep] for a in (rows, ids, normals, centroids, resid))
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
    # the anchor A folded into the planes:
    # n . (A T p - c) = (n R_A) . (T p - A^-1 c)
    return CostModel.of(points[rows], normals @ anchor.rotation,
                        geo.apply(geo.inverse(anchor), centroids),
                        planes.weights[ids] * robust, estimate)


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

    Per outer iteration every frame is deskewed with the reference
    motion rel conjugated by the current estimate T and associated to map
    planes under the current rejection gate, which freezes the matches and
    their robust weights (`_associate_frame`: every candidate plane is
    judged there, by the gate on its residual and by NORMAL_GATE). Each
    sweep's point-form coefficients M_s of exp(s log rel) are computed
    once per call (`pc.sweep_coefficients`):
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
    consensus frames (the sum of their cost models), so every outer step
    decreases the frozen objective and `lm_solve` runs once per outer
    iteration. The loop stops once the joint step drops below
    convergence_delta.

    Raises NoCorrespondences when no frame has enough matches, and
    Unobservable, with every usable frame's index, when the consensus
    frames jointly leave a direction unconstrained.
    """
    cfg = cfg or CalibConfig()
    cfg.validate()
    if len(frames_b) != len(anchors):
        raise InvalidParams("frames and anchors must correspond one-to-one")
    frames = pc.downsample_frames(frames_b, cfg.downsample_leaf)

    nearest_lookup = _NearestPlaneLookup(map_index)
    t_prev = _seed_initial(map_index, nearest_lookup, frames, anchors,
                           t_guess, cfg)
    # a frame with fewer points than MIN_FRAME_CORR never has enough matches
    active = [k for k, f in enumerate(frames) if len(f) >= MIN_FRAME_CORR]
    # reference-frame motion over each sweep, and its point form for
    # deskewing (see the docstring); None leaves a frame as it is
    stamps = [f.stamp for f in frames_b]
    motions = {k: pc.sweep_coefficients(frames[k], pc.sweep_motion(
                   anchors, stamps, k, frames[k].scan_duration))
               if frames[k].scan_duration > 0.0 and len(anchors) > 1 else None
               for k in active}
    # sensor-frame local normals, computed once per frame (deskewing warps
    # positions by at most the intra-scan motion, which leaves 6-neighbor
    # normal directions unchanged at any useful tolerance)
    frame_normals = {k: _local_normals(frames[k].positions) for k in active}
    outer_trace: list[OuterIteration] = []
    lm_traces: list[list[dict]] = []
    converged = False
    iterations = 0
    for it in range(cfg.max_outer_iters):
        iterations = it + 1
        reject = _reject_schedule(cfg, it)
        coarse = it < cfg.reject_iters - 1
        prev_inv = geo.inverse(t_prev)
        # the usable frames' cost models at t_prev, keyed by frame
        models: dict[int, CostModel] = {}
        for k in active:
            f, anchor, motion = frames[k], anchors[k], motions[k]
            if motion is None:
                points = f.positions
                world = geo.apply(anchor, geo.apply(t_prev, points))
            else:
                moved = geo.apply_scaled_motion(motion, geo.apply(t_prev, f.positions))
                points = geo.apply(prev_inv, moved)
                world = geo.apply(anchor, moved)
            model = _associate_frame(map_index, points, world, anchor, t_prev,
                                     reject, frame_normals[k],
                                     nearest=nearest_lookup if coarse else None)
            if model is not None:
                models[k] = model
        if not models:
            raise NoCorrespondences(
                "no frame found enough map correspondences (check FoV overlap "
                "with the map and the initial guess)")
        scores = np.array([math.sqrt(m.f0 / m.weight_sum)
                           for m in models.values()])
        consensus = [k for k, kept in zip(models, _consensus_mask(scores))
                     if kept]
        skipped = [k for k in range(len(frames)) if k not in consensus]
        joint = sum((models[k] for k in consensus[1:]), models[consensus[0]])
        try:
            t_new, joint_trace = lm_solve(joint)
        except Unobservable as exc:
            raise Unobservable(str(exc), frame_indices=list(models)) from exc
        lm_traces.append(joint_trace)
        # translation norm plus half the rotation angle of the joint step
        step = geo.log_se3(geo.compose(prev_inv, t_new))
        update = float(np.linalg.norm(step[3:]) + 0.5 * np.linalg.norm(step[:3]))
        # the joint solve's own cost at t_new (see `ptplane.lm_refine`)
        last = joint_trace[-1]
        outer_trace.append(OuterIteration(
            it, joint.f0, last["cand_cost"] if last["accepted"] else last["cost"],
            update, len(consensus), reject, skipped))
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


def write_report(path, result: CalibrationResult, gt: Pose | None,
                 config: str) -> None:
    """Calibration report: config comments, estimate line, outer-iteration
    CSV, error metrics.

    `config` is the effective configuration as `config.dump_config` writes
    it; each of its lines becomes one `# config section.key = value`
    comment. Each CSV row carries the outer iteration's association gate
    (reject_dist, m) and the frames left out of its joint step
    (skipped_frames, space-separated frame indices).
    """
    with open(path, "w") as fh:
        for line in config.splitlines():
            fh.write(f"# config {line}\n")
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
