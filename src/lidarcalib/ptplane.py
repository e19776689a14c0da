"""Weighted point-to-plane residuals and the one Levenberg-Marquardt solver
behind both the sliding-window LBA and the extrinsic calibration.

A batch pairs sensor-frame points p_i with frozen planes (unit normal n_i,
centroid c_i) and weights w_i:

    r_i(T) = n_i . (T p_i - c_i),    f(T) = sum_i w_i r_i(T)^2.

LBA refines one frame pose T against planes fitted in the world frame;
calibration refines the extrinsic T against world planes seen through each
frame's reference pose A, which the batch folds into its planes once:
n . (A T p - c) = (R_A^T n) . (T p - A^-1 c).

A residual is linear in the entries of T = (R, t): r_i = phi_i . x + const
with phi_i = (vec(n_i p_i^T), n_i) and x = (vec R, t), vec taken row by
row. So a frozen batch's cost is exactly a quadratic in x, and a
`CostModel` holds it, built once at an anchor pose A: with dx = x(T) - x(A),

    f(T) = f0 + 2 b . dx + dx^T Q dx,

f0 = sum w r_i(A)^2, b = sum w r_i(A) phi_i, Q = sum w phi_i phi_i^T. The
anchor keeps the terms small near A, so costs there do not cancel, and
models that share an anchor add. The solver updates the pose on the right,
T <- T exp(xi), xi = (rotation, translation), and D(R) (12 x 6), with
columns vec(R [e_k]x) and R e_k, maps xi to dx; the Jacobian row of r_i is
phi_i D = [p_i x u_i, u_i] with u_i = R^T n_i. A Gauss-Newton step takes
H = D^T Q D and g = D^T (b + Q dx), so it costs the same at any match count.

Every solve first checks that its matches pin all six degrees of freedom,
a property of the match geometry alone (Zhang, Kaess & Singh, ICRA 2016):
the unweighted J^T J = D^T Q0 D at the anchor, Q0 = sum phi_i phi_i^T, must
have no eigenvalue below MIN_EIG_RATIO times its largest. Robust weights and
priors are left out of the test, so a crushed weight does not fail it and a
prior does not pass it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import Unobservable
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
# the observability test's eigenvalue ratio (see the module docstring)
MIN_EIG_RATIO = 1e-10

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
# rows and columns of a symmetric 3x3 matrix's entries xx yy zz xy xz yz
_PAIRS = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])
# [e_k]x for k = 0, 1, 2: R @ _GENERATORS[k] is d R / d xi_k
_GENERATORS = np.stack([geo.skew(e) for e in np.eye(3)])


def _pose_vector(pose: Pose) -> np.ndarray:
    """x(T) = (vec R, t), the 12 entries a residual is linear in."""
    return np.concatenate([pose.rotation.ravel(), pose.translation])


def _twist_basis(rotation: np.ndarray) -> np.ndarray:
    """D (12, 6): d x(T exp(xi)) / d xi at xi = 0."""
    d = np.zeros((12, 6))
    d[:9, :3] = (rotation @ _GENERATORS).reshape(3, 9).T
    d[9:, 3:] = rotation
    return d


class PlaneBatch:
    """Point-to-plane matches frozen for one solve. An anchor A is folded
    into the planes (normals n R_A, centroids A^-1 c), so the residuals are
    n . (A T p - c)."""

    def __init__(self, points: np.ndarray, normals: np.ndarray,
                 centroids: np.ndarray, weights: np.ndarray,
                 anchor: Pose | None = None):
        if anchor is not None:
            normals = normals @ anchor.rotation
            centroids = geo.apply(geo.inverse(anchor), centroids)
        self.points = points
        self.normals = normals
        self.centroids = centroids
        self.weights = weights

    def __len__(self) -> int:
        return len(self.points)

    def residuals(self, transform: Pose) -> np.ndarray:
        world = geo.apply(transform, self.points)
        return np.einsum("ij,ij->i", self.normals, world - self.centroids)

    def objective(self, transform: Pose) -> float:
        r = self.residuals(transform)
        return float(self.weights @ (r * r))

    def features(self) -> np.ndarray:
        """phi (M, 12): residual i is phi_i . x(T) - n_i . c_i."""
        phi = np.empty((len(self.points), 12))
        phi[:, :9] = (self.normals[:, :, None]
                      * self.points[:, None, :]).reshape(-1, 9)
        phi[:, 9:] = self.normals
        return phi

    def jacobian(self, transform: Pose) -> np.ndarray:
        """Rows d r_i / d xi of T exp(xi): phi D, the solver's D."""
        return self.features() @ _twist_basis(transform.rotation)


@dataclass(frozen=True, eq=False)
class CostModel:
    """A frozen batch's cost as the exact quadratic in x(T) about an anchor
    (module docstring): f0, b, Q, the unweighted Q0 of the observability
    test, the match count and the weight sum."""

    anchor: Pose
    f0: float
    b: np.ndarray
    q: np.ndarray
    q0: np.ndarray
    count: int
    weight_sum: float

    @classmethod
    def of(cls, batch: PlaneBatch, anchor: Pose) -> "CostModel":
        phi = batch.features()
        r = batch.residuals(anchor)
        wphi = batch.weights[:, None] * phi
        return cls(anchor, float(batch.weights @ (r * r)), wphi.T @ r,
                   phi.T @ wphi, phi.T @ phi, len(batch),
                   float(np.sum(batch.weights)))

    def __add__(self, other: "CostModel") -> "CostModel":
        if not np.array_equal(_pose_vector(other.anchor),
                              _pose_vector(self.anchor)):
            raise ValueError("cost models with different anchors do not add")
        return CostModel(self.anchor, self.f0 + other.f0, self.b + other.b,
                         self.q + other.q, self.q0 + other.q0,
                         self.count + other.count,
                         self.weight_sum + other.weight_sum)

    def objective(self, transform: Pose) -> float:
        return self.f0 + self.change(self.anchor, transform)

    def change(self, start: Pose, end: Pose) -> float:
        """f(end) - f(start) = (x_e - x_s) . (2b + Q (x_e + x_s - 2 x_A)),
        free of the cancellation of two costs taken far from the anchor."""
        xa, xs, xe = (_pose_vector(p) for p in (self.anchor, start, end))
        return float((xe - xs) @ (2.0 * self.b + self.q @ (xe + xs - 2.0 * xa)))

    def normal_equations(self, transform: Pose) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Newton (H, g) at transform: H = J^T W J = D^T Q D and
        g = J^T W r = D^T (b + Q dx), half the gradient of the cost."""
        d = _twist_basis(transform.rotation)
        dx = _pose_vector(transform) - _pose_vector(self.anchor)
        return d.T @ self.q @ d, d.T @ (self.b + self.q @ dx)


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
    moments = (np.einsum("mk,mk->m", centered[:, :, i], centered[:, :, j]) / k
               for i, j in zip(*_PAIRS))
    return (centroids, *_eigen(*moments))


def fit_groups(points: np.ndarray, labels: np.ndarray, n_groups: int):
    """`fit_planes` of the non-empty point groups labels == 0..n_groups-1,
    of any sizes: `fit_clusters` of single points, whose moments are 0."""
    return fit_clusters(np.ones(len(points)), points, np.zeros((1, 6)), labels,
                        n_groups)


def fit_clusters(counts: np.ndarray, centroids: np.ndarray,
                 moments: np.ndarray, labels: np.ndarray, n_groups: int):
    """Centroids, eigenvalues, normals and moments of the unions of point
    clusters labels == 0..n_groups-1. A cluster is a count n, a centroid mu
    and moments C (M, 6, or one row for all): the centred second moments xx
    yy zz xy xz yz divided by n. The parallel-axis rule sums them: mu = sum
    n_k mu_k / N and C = sum n_k (C_k + (mu_k - mu)(mu_k - mu)^T) / N."""
    total = np.bincount(labels, counts, n_groups)[:, None]
    mean = np.column_stack([np.bincount(labels, counts * centroids[:, a], n_groups)
                            for a in range(3)]) / total
    d = centroids - mean[labels]
    summed = np.column_stack([
        np.bincount(labels, counts * (m + d[:, i] * d[:, j]), n_groups)
        for m, i, j in zip(moments.T, *_PAIRS)]) / total
    return (mean, *_eigen(*summed.T), summed)


def cluster_sq_distance(centroids: np.ndarray, moments: np.ndarray,
                        normals: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """Mean squared distance of each cluster (centroid mu, moments C) to the
    plane through c with unit normal n: n^T (C + (mu - c)(mu - c)^T) n."""
    d = centroids - origins
    spread = moments + d[:, _PAIRS[0]] * d[:, _PAIRS[1]]
    return np.einsum("mp,mp,mp,p->m", spread, normals[:, _PAIRS[0]],
                     normals[:, _PAIRS[1]], [1, 1, 1, 2, 2, 2])


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
    """The twist log(ref^-1 pose) of a quadratic pose prior."""
    return geo.log_se3(geo.compose(geo.inverse(ref), pose))


def lm_refine(model: CostModel, prior: tuple[Pose, float] | None = None
              ) -> tuple[Pose, list[dict]]:
    """Damped Gauss-Newton on the model's cost from its anchor.

    The prior (ref, lam) adds lam * |log(ref^-1 T)|^2 to the cost, with the
    identity as its right Jacobian. Each iteration solves (H + mu I) xi =
    -g, mu starting at MU0, and accepts T exp(xi) only if it strictly lowers
    the cost, so the returned pose never costs more than the anchor. A
    candidate's cost is the current one plus `CostModel.change`, so small
    steps are judged as finely far from the anchor as near it. The loop
    ends after MAX_INNER iterations or once a step's largest entry drops
    below INNER_TOL. Each trace entry records iter, cost, cand_cost,
    accepted, mu and step_inf; the last entry's cost, or its cand_cost when
    accepted, is the returned pose's.

    Raises Unobservable, before the first step, for fewer than 6 matches or
    a model that fails the observability test at its anchor (module
    docstring).
    """
    if model.count < 6:
        raise Unobservable(f"only {model.count} point-to-plane matches (< 6)")
    pose = model.anchor
    d = _twist_basis(pose.rotation)
    evals = np.linalg.eigvalsh(d.T @ model.q0 @ d)
    if evals[0] < MIN_EIG_RATIO * max(evals[-1], 1e-30):
        raise Unobservable("the matched planes do not pin down all six "
                           "degrees of freedom")

    def tie(pose: Pose) -> tuple[float, np.ndarray | None]:
        """The prior's cost and twist at pose; (0, None) without a prior."""
        if prior is None:
            return 0.0, None
        rho = prior_residual(prior[0], pose)
        return prior[1] * float(rho @ rho), rho

    def normal_equations(pose: Pose, rho: np.ndarray | None):
        h, g = model.normal_equations(pose)
        if prior is not None:
            h += prior[1] * np.eye(6)
            g += prior[1] * rho
        return h, g

    data = model.f0
    tie_cost, rho = tie(pose)
    cost = data + tie_cost
    h, g = normal_equations(pose, rho)
    mu = MU0
    trace: list[dict] = []
    for it in range(MAX_INNER):
        step = -np.linalg.solve(h + mu * np.eye(6), g)
        cand = geo.compose(pose, geo.exp_se3(step))
        cand_data = data + model.change(pose, cand)
        cand_tie, cand_rho = tie(cand)
        cand_cost = cand_data + cand_tie
        accepted = cand_cost < cost
        step_inf = float(np.max(np.abs(step)))
        trace.append({"iter": it, "cost": cost, "cand_cost": cand_cost,
                      "accepted": accepted, "mu": mu, "step_inf": step_inf})
        if accepted:
            pose, data, cost = cand, cand_data, cand_cost
            h, g = normal_equations(pose, cand_rho)
            mu *= MU_DOWN
        else:
            mu *= MU_UP
        if step_inf < INNER_TOL:
            break
    return pose, trace
