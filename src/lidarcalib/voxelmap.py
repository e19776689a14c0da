"""Adaptive octree voxelization of a reference map into planar features.

Space is cut into l_parent cells on a grid anchored at the world origin
(cells are half-open, lower-inclusive; boundary points belong to the
higher-index cell). Cells whose point covariance is flat enough become
planes; complex cells subdivide into eight children of half the edge length
until max_depth. Face-adjacent coplanar leaves can be merged, and every
plane carries a confidence weight

    weight = point_count / (1 + sigma_lambda) * exp(-gamma * eta)

where eta = lambda1 / (lambda2 + lambda3) is the planarity index and
sigma_lambda the standard deviation of the three eigenvalues.

The finished index is immutable and safe for concurrent association queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InvalidParams
from .grid import pack_cells
from .ptplane import COLLINEAR_EPS, MAX_DEV_FLOOR, MAX_DEV_RATIO

PLANAR = "planar"
SUBDIVIDED = "subdivided"
DISCARDED = "discarded"


@dataclass
class VoxelParams:
    l_parent: float = 1.0
    eta_max: float = 0.1
    max_depth: int = 3
    min_points: int = 10
    gamma: float = 1.0
    # merge_neighbors gates: normals within tau_theta_deg, centroids within
    # tau_d (cli.build_map_index passes them on)
    tau_theta_deg: float = 5.0
    tau_d: float = 0.5

    def validate(self):
        if self.l_parent <= 0.0:
            raise InvalidParams("l_parent must be positive")
        if not 0.0 < self.eta_max < 1.0:
            raise InvalidParams("eta_max must be in (0, 1)")
        if self.max_depth < 0:
            raise InvalidParams("max_depth must be >= 0")
        if self.min_points < 3:
            raise InvalidParams("min_points must be >= 3")


@dataclass(frozen=True)
class PlaneFeature:
    """Fitted voxel plane: unit normal, centroid, ascending eigenvalues."""

    normal: np.ndarray
    centroid: np.ndarray
    eigenvalues: np.ndarray
    point_count: int
    eta: float
    sigma_lambda: float
    weight: float
    voxel_keys: tuple
    point_indices: np.ndarray


def fit_plane(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares plane of a point set via covariance eigendecomposition.

    Returns (unit normal, centroid, eigenvalues ascending). The normal sign
    is fixed so its largest-magnitude component is positive. Raises
    DegenerateGeometry for fewer than 3 points or (near-)collinear sets.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    m = len(points)
    if m < 3:
        raise DegenerateGeometry(f"need >= 3 points, got {m}")
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered / m
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    if evals[1] < COLLINEAR_EPS:
        raise DegenerateGeometry("points are collinear")
    normal = evecs[:, 0]
    k = int(np.argmax(np.abs(normal)))
    if normal[k] < 0.0:
        normal = -normal
    return normal, centroid, evals


def planarity(eigenvalues: np.ndarray) -> float:
    """eta = lambda1 / (lambda2 + lambda3), ascending eigenvalue order."""
    return float(eigenvalues[0] / (eigenvalues[1] + eigenvalues[2]))


def confidence_weight(point_count: int, sigma_lambda: float, eta: float,
                      gamma: float) -> float:
    return point_count / (1.0 + sigma_lambda) * math.exp(-gamma * eta)


class VoxelMapIndex:
    """Octree classification over map points plus the extracted planes.

    nodes maps (depth, ix, iy, iz) to PLANAR/SUBDIVIDED/DISCARDED; planar
    nodes also record their index into leaf_planes. After merge_neighbors,
    `planes` holds merged features and leaf_to_plane redirects leaves.
    `normals` (P, 3), `centroids` (P, 3) and `weights` (P,) stack the
    fields of `planes` in order, for vectorized association.
    """

    def __init__(self, points: np.ndarray, params: VoxelParams):
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.params = params
        self.nodes: dict[tuple, tuple[str, int | None]] = {}
        self.leaf_planes: list[PlaneFeature] = []
        self.planes: list[PlaneFeature] = []
        self.leaf_to_plane: np.ndarray = np.zeros(0, dtype=int)
        self.normals = np.zeros((0, 3))
        self.centroids = np.zeros((0, 3))
        self.weights = np.zeros(0)

    def _finalize(self, planes: list[PlaneFeature], leaf_to_plane: np.ndarray):
        self.planes = planes
        self.leaf_to_plane = leaf_to_plane
        self.normals = (np.stack([p.normal for p in planes])
                        if planes else np.zeros((0, 3)))
        self.centroids = (np.stack([p.centroid for p in planes])
                          if planes else np.zeros((0, 3)))
        self.weights = np.array([p.weight for p in planes], dtype=float)

    def edge_length(self, depth: int) -> float:
        return self.params.l_parent / (2 ** depth)


def build_adaptive(source, params: VoxelParams | None = None) -> VoxelMapIndex:
    """Classify a reference map (or raw (N, 3) array) into a plane index."""
    params = params or VoxelParams()
    params.validate()
    points = getattr(source, "points", source)
    index = VoxelMapIndex(points, params)
    pts = index.points
    if len(pts) == 0:
        index._finalize([], np.zeros(0, dtype=int))
        return index
    root_keys = np.floor(pts / params.l_parent).astype(np.int64)
    order = np.lexsort((root_keys[:, 2], root_keys[:, 1], root_keys[:, 0]))
    sorted_keys = root_keys[order]
    boundaries = np.nonzero(np.any(np.diff(sorted_keys, axis=0) != 0, axis=1))[0] + 1
    groups = np.split(order, boundaries)
    for grp in groups:
        coords = tuple(int(c) for c in root_keys[grp[0]])
        _classify(index, np.asarray(grp), 0, coords)
    index._finalize(list(index.leaf_planes), np.arange(len(index.leaf_planes)))
    return index


def _make_feature(index: VoxelMapIndex, point_idx: np.ndarray,
                  normal, centroid, evals, keys: tuple) -> PlaneFeature:
    params = index.params
    eta = planarity(evals)
    sigma = float(np.std(evals))
    weight = confidence_weight(len(point_idx), sigma, eta, params.gamma)
    return PlaneFeature(normal, centroid, evals, len(point_idx), eta, sigma,
                        weight, keys, point_idx)


def _classify(index: VoxelMapIndex, point_idx: np.ndarray, depth: int,
              coords: tuple[int, int, int]):
    params = index.params
    key = (depth,) + coords
    if len(point_idx) < params.min_points:
        index.nodes[key] = (DISCARDED, None)
        return
    try:
        normal, centroid, evals = fit_plane(index.points[point_idx])
    except DegenerateGeometry:
        index.nodes[key] = (DISCARDED, None)
        return
    max_dev = float(np.max(np.abs((index.points[point_idx] - centroid) @ normal)))
    # flatness gate (see ptplane): eta alone passes thin L-shaped corner sets
    dev_gate = max(MAX_DEV_FLOOR, MAX_DEV_RATIO * math.sqrt(evals[1] + evals[2]))
    if planarity(evals) < params.eta_max and max_dev <= dev_gate:
        index.nodes[key] = (PLANAR, len(index.leaf_planes))
        index.leaf_planes.append(
            _make_feature(index, point_idx, normal, centroid, evals, (key,)))
        return
    if depth >= params.max_depth:
        index.nodes[key] = (DISCARDED, None)
        return
    index.nodes[key] = (SUBDIVIDED, None)
    child_edge = index.edge_length(depth + 1)
    child_keys = np.floor(index.points[point_idx] / child_edge).astype(np.int64)
    order = np.lexsort((child_keys[:, 2], child_keys[:, 1], child_keys[:, 0]))
    sorted_keys = child_keys[order]
    boundaries = np.nonzero(np.any(np.diff(sorted_keys, axis=0) != 0, axis=1))[0] + 1
    for grp in np.split(order, boundaries):
        child_coords = tuple(int(c) for c in child_keys[grp[0]])
        _classify(index, point_idx[np.asarray(grp)], depth + 1, child_coords)


def _leaf_int_boxes(index: VoxelMapIndex) -> tuple[np.ndarray, np.ndarray]:
    """Integer AABBs of planar leaves in units of the finest cell edge."""
    max_depth = index.params.max_depth
    mins, maxs = [], []
    for plane in index.leaf_planes:
        depth, ix, iy, iz = plane.voxel_keys[0]
        scale = 2 ** (max_depth - depth)
        lo = np.array([ix, iy, iz], dtype=np.int64) * scale
        mins.append(lo)
        maxs.append(lo + scale)
    if not mins:
        return np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
    return np.stack(mins), np.stack(maxs)


def _members_fit(index: VoxelMapIndex, members: list[int], normal: np.ndarray,
                 centroid: np.ndarray) -> bool:
    """Whether every member leaf's points fit the union plane about as well
    as they fit their own plane: mean squared distance to the union plane at
    most 4 * lambda1(leaf) + 1e-12."""
    for m in members:
        leaf = index.leaf_planes[m]
        dist = (index.points[leaf.point_indices] - centroid) @ normal
        if float(np.mean(dist * dist)) > 4.0 * leaf.eigenvalues[0] + 1e-12:
            return False
    return True


def merge_neighbors(index: VoxelMapIndex, tau_theta: float, tau_d: float) -> VoxelMapIndex:
    """Merge face-adjacent coplanar leaves (transitively, via union-find).

    Candidate pairs need normals within tau_theta and centroids within
    tau_d. A candidate group is then refit over the union of its member
    points and kept only if every member leaf fits the union plane about as
    well as its own plane (see _members_fit); otherwise the group's leaves
    stay unmerged. The angle and distance gates are pairwise, so a chain of
    leaves that each hold a strip of an adjacent surface can pass them and
    still blend two surfaces into one tilted plane; the member check rejects
    such unions.

    Merging always starts over from the unmerged leaves, so applying this
    twice equals applying it once. The plane count never increases.
    """
    n = len(index.leaf_planes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    if n > 1:
        mins, maxs = _leaf_int_boxes(index)
        normals = np.stack([p.normal for p in index.leaf_planes])
        centroids = np.stack([p.centroid for p in index.leaf_planes])
        for i in range(n - 1):
            touch = ((maxs[i] == mins[i + 1:]) | (maxs[i + 1:] == mins[i]))
            overlap = (mins[i] < maxs[i + 1:]) & (mins[i + 1:] < maxs[i])
            face = (touch & ~overlap).sum(axis=1) == 1
            adjacent = face & (overlap | touch).all(axis=1)
            if not adjacent.any():
                continue
            cand = np.nonzero(adjacent)[0] + i + 1
            cos_t = np.clip(np.abs(normals[cand] @ normals[i]), 0.0, 1.0)
            theta = np.arccos(cos_t)
            dist = np.linalg.norm(centroids[cand] - centroids[i], axis=1)
            for j in cand[(theta < tau_theta) & (dist < tau_d)]:
                union(i, int(j))

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    merged: list[PlaneFeature] = []
    leaf_to_plane = np.zeros(n, dtype=int)
    for root in sorted(groups):
        members = groups[root]
        if len(members) > 1:
            point_idx = np.concatenate(
                [index.leaf_planes[m].point_indices for m in members])
            normal, centroid, evals = fit_plane(index.points[point_idx])
            if _members_fit(index, members, normal, centroid):
                leaf_to_plane[members] = len(merged)
                keys = tuple(k for m in members
                             for k in index.leaf_planes[m].voxel_keys)
                merged.append(_make_feature(index, point_idx, normal, centroid,
                                            evals, keys))
                continue
        for m in members:
            leaf_to_plane[m] = len(merged)
            merged.append(index.leaf_planes[m])

    out = VoxelMapIndex(index.points, index.params)
    out.nodes = index.nodes
    out.leaf_planes = index.leaf_planes
    out._finalize(merged, leaf_to_plane)
    return out


def associate_batch(points: np.ndarray, index: VoxelMapIndex,
                    reject_dist: float = 0.3) -> np.ndarray:
    """Vectorized containment association.

    Returns per-point indices into index.planes, -1 where the containing
    cell chain ends in a discarded/empty cell or the distance gate fails.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    out = np.full(n, -1, dtype=int)
    if n == 0 or not index.planes:
        return out
    active = np.arange(n)
    for depth in range(index.params.max_depth + 1):
        if len(active) == 0:
            break
        edge = index.edge_length(depth)
        cells = np.floor(points[active] / edge).astype(np.int64)
        keys = pack_cells(cells)
        # members of one cell are a run of the key-sorted order
        order = np.argsort(keys)
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        ends = np.r_[starts[1:], len(order)]
        keep_mask = np.zeros(len(active), dtype=bool)
        for (ix, iy, iz), s, e in zip(cells[order[starts]].tolist(),
                                      starts.tolist(), ends.tolist()):
            node = index.nodes.get((depth, ix, iy, iz))
            if node is None:
                continue
            status, leaf_idx = node
            members = order[s:e]
            if status == PLANAR:
                out[active[members]] = index.leaf_to_plane[leaf_idx]
            elif status == SUBDIVIDED:
                keep_mask[members] = True
        active = active[keep_mask]
    matched = out >= 0
    if matched.any():
        ids = out[matched]
        dist = np.abs(np.einsum(
            "ij,ij->i", index.normals[ids], points[matched] - index.centroids[ids]))
        bad = dist > reject_dist
        sel = np.nonzero(matched)[0][bad]
        out[sel] = -1
    return out
