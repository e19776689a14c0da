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
# an LM solve stops once a step's largest entry drops below this; LBA also
# ends a window once no frame moved further in a round
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

# Planarity gate: eta = lambda1 / (lambda2 + lambda3) below ETA_MAX.
ETA_MAX = 0.1
# Flatness gate on a fitted point set: its max |point-to-plane| deviation
# must stay below max(MAX_DEV_FLOOR, MAX_DEV_RATIO * sqrt(lambda2 + lambda3)).
# The planarity index eta is an RMS ratio and admits thin L-shaped sets
# mixing two perpendicular surfaces near a corner, with a blended normal;
# their max deviation gives them away. `plane_gate` applies it to voxel
# cells and LBA neighbour sets alike.
MAX_DEV_FLOOR = 0.04
MAX_DEV_RATIO = 0.3
# A point set whose middle covariance eigenvalue is below this (m^2) is
# collinear: it has no plane normal, and any fitted one is arbitrary.
COLLINEAR_EPS = 1e-12


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
        rows[:, :3] = geo.cross(self.points, u)
        rows[:, 3:] = u
        return rows


def _unit(v: np.ndarray) -> np.ndarray:
    """Rows of v scaled to unit length; e_z where a row is zero."""
    length = np.sqrt(np.einsum("mi,mi->m", v, v))
    zero = length == 0.0
    v = v / np.where(zero, 1.0, length)[:, None]
    v[zero] = (0.0, 0.0, 1.0)
    return v


def fit_planes(nbrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched least-squares planes of (M, k, 3) neighbour sets.

    Returns the centroids (M, 3), the eigenvalues of the covariance
    C = sum (q - c)(q - c)^T / k in ascending order (M, 3), clipped at 0,
    and unit normals (M, 3) along the smallest one's eigenvector, of
    arbitrary sign (see `_eigen`).
    """
    k = nbrs.shape[1]
    centroids = np.einsum("mkc->mc", nbrs) / k
    centered = nbrs - centroids[:, None, :]
    x, y, z = centered[:, :, 0], centered[:, :, 1], centered[:, :, 2]
    moments = (np.einsum("mk,mk->m", s, t) / k for s, t in
               ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
    return (centroids, *_eigen(*moments))


def fit_groups(points: np.ndarray, labels: np.ndarray,
               n_groups: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`fit_planes` of the non-empty point groups labels == 0..n_groups-1,
    of any sizes: two `np.bincount` passes give the centroids and then the
    centred second moments."""
    counts = np.bincount(labels, minlength=n_groups)
    centroids = np.column_stack([np.bincount(labels, points[:, a], n_groups)
                                 for a in range(3)]) / counts[:, None]
    x, y, z = (points - centroids[labels]).T
    moments = (np.bincount(labels, s * t, n_groups) / counts for s, t in
               ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
    return (centroids, *_eigen(*moments))


def _eigen(xx, yy, zz, xy, xz, yz) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (M, 3), clipped at 0, and unit eigenvectors of
    the smallest, of M symmetric 3x3 matrices given by their entries.

    The extreme eigenvalues are taken in trigonometric closed form (Smith,
    "Eigenvalues of a symmetric 3x3 matrix", CACM 1961). Of the two, the
    one farther from the middle eigenvalue is kept, and its eigenvector v
    is the longest cross product of two rows of C - lambda I, which spans
    that matrix's null space. The other two eigenpairs come from the 2x2
    block of C in an orthonormal basis of v's complement, in closed form
    with one atan2. The closed form resolves a nearly equal pair only to
    about the square root of the rounding error, so taking the isolated
    eigenvalue first keeps every eigenvalue and the normal as accurate as
    a general solver's. For collinear sets the normal is a unit vector
    orthogonal to the line, and for coincident sets any unit vector.
    """
    q = (xx + yy + zz) / 3.0
    dx, dy, dz = xx - q, yy - q, zz - q
    p = np.sqrt((dx * dx + dy * dy + dz * dz
                 + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    # det((C - qI) / p) / 2 = cos(3 phi)
    det = (dx * (dy * dz - yz * yz) - xy * (xy * dz - yz * xz)
           + xz * (xy * yz - dy * xz))
    safe_p = np.where(p > 0.0, p, 1.0)
    half_det = np.where(p > 0.0, det / (2.0 * safe_p ** 3), 0.0)
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    # the smallest eigenvalue is the isolated one when cos(3 phi) < 0
    low_first = half_det < 0.0
    lam_iso = np.where(low_first, lam_min, lam_max)

    # the cross products of the rows of C - lam_iso I are the columns of
    # its adjugate, which is symmetric
    ax, ay, az = xx - lam_iso, yy - lam_iso, zz - lam_iso
    a01, a02, a12 = xz * yz - xy * az, xy * yz - xz * ay, xy * xz - ax * yz
    adj = np.column_stack([ay * az - yz * yz, a01, a02,
                           a01, ax * az - xz * xz, a12,
                           a02, a12, ax * ay - xy * xy]).reshape(-1, 3, 3)
    longest = np.argmax(np.einsum("mrc,mrc->mr", adj, adj), axis=1)
    v = _unit(adj[np.arange(len(adj)), longest])

    # orthonormal u, w spanning v's complement, and the 2x2 block of C there
    helper = np.eye(3)[np.argmin(np.abs(v), axis=1)]
    u = _unit(geo.cross(v, helper))
    w = geo.cross(v, u)
    cov = np.column_stack([xx, xy, xz, xy, yy, yz, xz, yz, zz]).reshape(-1, 3, 3)
    cu = np.einsum("mij,mj->mi", cov, u)
    cw = np.einsum("mij,mj->mi", cov, w)
    a = np.einsum("mi,mi->m", u, cu)
    b = np.einsum("mi,mi->m", w, cu)
    c = np.einsum("mi,mi->m", w, cw)
    half = 0.5 * (a - c)
    radius = np.hypot(half, b)
    lo, hi = 0.5 * (a + c) - radius, 0.5 * (a + c) + radius
    # the block's larger eigenvector lies at angle theta from u toward w
    theta = 0.5 * np.arctan2(b, half)
    lo_vec = np.cos(theta)[:, None] * w - np.sin(theta)[:, None] * u

    normals = np.where(low_first[:, None], v, lo_vec)
    evals = np.where(low_first[:, None],
                     np.column_stack([lam_min, lo, hi]),
                     np.column_stack([lo, hi, lam_max]))
    return np.clip(evals, 0.0, None), normals


def planarity(evals: np.ndarray) -> np.ndarray:
    """eta = lambda1 / (lambda2 + lambda3) of ascending (M, 3) eigenvalues;
    inf where lambda2 + lambda3 is 0."""
    lam_sum = evals[:, 1] + evals[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam_sum > 0.0, evals[:, 0] / lam_sum, np.inf)


def plane_gate(evals: np.ndarray, max_dev: np.ndarray, dev_floor: float) -> np.ndarray:
    """The one plane test of fitted point sets, from their ascending
    eigenvalues (M, 3) and max |point-to-plane| deviations (M,): planarity
    below ETA_MAX, not collinear (middle eigenvalue at least COLLINEAR_EPS)
    and deviation within max(dev_floor, MAX_DEV_RATIO * sqrt(lambda2 +
    lambda3)). Voxel cells pass dev_floor MAX_DEV_FLOOR."""
    dev_gate = np.maximum(dev_floor,
                          MAX_DEV_RATIO * np.sqrt(evals[:, 1] + evals[:, 2]))
    return ((planarity(evals) < ETA_MAX) & (evals[:, 1] >= COLLINEAR_EPS)
            & (max_dev <= dev_gate))


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
