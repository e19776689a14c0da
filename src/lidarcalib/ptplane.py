"""Weighted point-to-plane residuals and the one Levenberg-Marquardt solver
behind both the sliding-window LBA and the extrinsic calibration.

A batch pairs sensor-frame points p_i with frozen planes (unit normal n_i,
centroid c_i) and weights w_i, optionally through a fixed anchor pose A:

    r_i(T) = n_i . (A T p_i - c_i),    f(T) = sum_i w_i r_i(T)^2.

LBA refines one frame pose T against planes fitted in the world frame
(no anchor); calibration refines the extrinsic T with the reference pose
of each frame as its anchor. The pose is updated on the right,
T <- T exp(xi), xi = (rotation, translation), so the Jacobian row of r_i
is [p_i x u_i, u_i] with u_i = (R_A R)^T n_i.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .geometry import Pose

# Levenberg-Marquardt damping: start, factor on a rejected step, factor on
# an accepted one; at most MAX_INNER iterations per solve
MU0 = 1e-4
MU_UP = 10.0
MU_DOWN = 0.5
MAX_INNER = 30
# LBA stops a frame solve once a step's largest entry drops below this, and
# a window once no frame moved further in a round; calibration takes its
# own `CalibConfig.inner_tol`, which defaults to the same value
INNER_TOL = 1e-7

# Cauchy robust weight 1 / (1 + (r / (factor * scale))^2) with scale =
# max(CAUCHY_SCALE_FLOOR, median |r|), frozen per association. Soft
# weighting (not trimming): sparse constraints along weakly observed
# directions keep their gradient, while a point matched to a plane of
# another surface (a corner point against a clean fit from the adjacent
# wall, or a source point inside a map cell whose plane the reference
# sensor saw from a different band) is driven to negligible weight.
CAUCHY_FACTOR = 3.0
CAUCHY_SCALE_FLOOR = 1e-8

# Flatness gate on a fitted point set: its max |point-to-plane| deviation
# must stay below max(MAX_DEV_FLOOR, MAX_DEV_RATIO * sqrt(lambda2 + lambda3)).
# The planarity index eta is an RMS ratio and admits thin L-shaped sets
# mixing two perpendicular surfaces near a corner, with a blended normal;
# their max deviation gives them away. Voxel leaves and LBA neighbour sets
# both pass through it.
MAX_DEV_FLOOR = 0.04
MAX_DEV_RATIO = 0.3


class PlaneBatch:
    """Point-to-plane matches frozen for one solve; anchor None is the
    identity."""

    def __init__(self, points: np.ndarray, normals: np.ndarray,
                 centroids: np.ndarray, weights: np.ndarray,
                 anchor: Pose | None = None):
        self.points = points
        self.normals = normals
        self.centroids = centroids
        self.weights = weights
        self.anchor = anchor

    def __len__(self) -> int:
        return len(self.points)

    def residuals(self, transform: Pose) -> np.ndarray:
        world = geo.apply(transform, self.points)
        if self.anchor is not None:
            world = geo.apply(self.anchor, world)
        return np.einsum("ij,ij->i", self.normals, world - self.centroids)

    def objective(self, transform: Pose) -> float:
        r = self.residuals(transform)
        return float(self.weights @ (r * r))

    def jacobian(self, transform: Pose) -> np.ndarray:
        rot = (transform.rotation if self.anchor is None
               else self.anchor.rotation @ transform.rotation)
        u = self.normals @ rot
        rows = np.empty((len(self.points), 6))
        rows[:, :3] = np.cross(self.points, u)
        rows[:, 3:] = u
        return rows


def cauchy_weights(resid: np.ndarray, factor: float, scale: float) -> np.ndarray:
    """Cauchy robust weights 1 / (1 + (r / (factor * scale))^2)."""
    return 1.0 / (1.0 + (resid / (factor * scale)) ** 2)


def prior_residual(ref: Pose, pose: Pose) -> np.ndarray:
    """Twist log(ref^-1 pose) of a quadratic pose prior."""
    return geo.log_se3(geo.compose(geo.inverse(ref), pose)).as_vector()


def _evaluate(batch: PlaneBatch, pose: Pose,
              prior: tuple[Pose, float] | None):
    """(cost, residuals, prior twist or None) at pose; the prior (ref, lam)
    adds lam * |log(ref^-1 pose)|^2 to the cost."""
    r = batch.residuals(pose)
    cost = float(batch.weights @ (r * r))
    rho = None
    if prior is not None:
        ref, lam = prior
        rho = prior_residual(ref, pose)
        cost += lam * float(rho @ rho)
    return cost, r, rho


def _assemble(batch: PlaneBatch, jac: np.ndarray, r: np.ndarray,
              rho: np.ndarray | None, prior: tuple[Pose, float] | None):
    h = jac.T @ (batch.weights[:, None] * jac)
    g = jac.T @ (batch.weights * r)
    if prior is not None:
        # identity approximation of the prior's right Jacobian
        lam = prior[1]
        h += lam * np.eye(6)
        g += lam * rho
    return h, g


def normal_equations(batch: PlaneBatch, pose: Pose,
                     prior: tuple[Pose, float] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton (H, g) at pose: H = J^T W J, g = J^T W r, plus lam * I
    and lam * rho for a prior. g is half the gradient of the cost."""
    _, r, rho = _evaluate(batch, pose, prior)
    return _assemble(batch, batch.jacobian(pose), r, rho, prior)


def lm_refine(batch: PlaneBatch, pose: Pose, inner_tol: float,
              prior: tuple[Pose, float] | None = None
              ) -> tuple[Pose, list[dict]]:
    """Damped Gauss-Newton on the batch cost from pose.

    Each iteration solves (H + mu I) xi = -g, mu starting at MU0, and
    accepts T exp(xi) only if it strictly lowers the cost, so the returned
    pose never costs more than the start. The loop ends after MAX_INNER
    iterations or once a step's largest entry drops below inner_tol. Each
    trace entry records iter, cost, cand_cost, accepted, mu and step_inf.
    """
    cost, r, rho = _evaluate(batch, pose, prior)
    jac = batch.jacobian(pose)
    mu = MU0
    trace: list[dict] = []
    for it in range(MAX_INNER):
        h, g = _assemble(batch, jac, r, rho, prior)
        step = -np.linalg.solve(h + mu * np.eye(6), g)
        cand = geo.compose(pose, geo.exp_se3(step))
        cand_cost, cand_r, cand_rho = _evaluate(batch, cand, prior)
        accepted = cand_cost < cost
        step_inf = float(np.max(np.abs(step)))
        trace.append({"iter": it, "cost": cost, "cand_cost": cand_cost,
                      "accepted": accepted, "mu": mu, "step_inf": step_inf})
        if accepted:
            pose, cost, r, rho = cand, cand_cost, cand_r, cand_rho
            jac = batch.jacobian(pose)
            mu *= MU_DOWN
        else:
            mu *= MU_UP
        if step_inf < inner_tol:
            break
    return pose, trace
