"""The per-point oracle of the point-to-plane cost.

`PlaneBatch` evaluates frozen matches point by point: each residual, the
objective, the features phi and the Jacobian rows. The tests check
`ptplane.CostModel`, which holds the same cost as one quadratic, and the
solver that runs on it against these definitions.
"""

import numpy as np

from lidarcalib import geometry as geo
from lidarcalib.geometry import Pose
from lidarcalib.ptplane import CostModel, _twist_basis


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


def model_of(batch: PlaneBatch, anchor: Pose) -> CostModel:
    """The batch's cost model at anchor."""
    return CostModel.of(batch.points, batch.normals, batch.centroids,
                        batch.weights, anchor)
