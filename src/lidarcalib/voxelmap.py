"""Adaptive octree voxelization of a reference map into planar features.

Space is cut into l_parent cells on a grid anchored at the world origin
(cells are half-open, lower-inclusive; boundary points belong to the
higher-index cell). The octree is built one depth at a time: every cell of
a depth is fitted in one `ptplane.fit_groups` call and judged by
`ptplane.plane_gate`, the plane test LBA's neighbour sets pass too. Cells
that pass become planes; complex cells subdivide into eight children of half
the edge length until max_depth. Face-adjacent coplanar leaves can be
merged, and every plane carries a confidence weight

    weight = point_count / (1 + sigma_lambda) * exp(-GAMMA * eta)

where eta = lambda1 / (lambda2 + lambda3) is the planarity index and
sigma_lambda the standard deviation of the three eigenvalues.

Containment association walks the octree depth by depth through one sorted
key table per depth, built when the index is finished: every node's cell
key with its plane id, or whether to descend or stop. A depth's lookup is
one `np.searchsorted`, with no loop over cells. The finished index is
immutable and safe for concurrent association queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InvalidParams
from .grid import cell_box, pack_cells
from .ptplane import (COLLINEAR_EPS, MAX_DEV_FLOOR, fit_groups, plane_gate,
                      planarity)

PLANAR = "planar"
SUBDIVIDED = "subdivided"
DISCARDED = "discarded"

# cell targets in the association key tables: a PLANAR cell's target is its
# plane id, a SUBDIVIDED cell's _DESCEND, a DISCARDED or absent cell's _STOP
_STOP = -1
_DESCEND = -2
# the confidence weight's decay with planarity (see the module docstring)
GAMMA = 1.0
# merge gates, passed by cli.build_map_index: normals within TAU_THETA_DEG,
# centroids within TAU_D (m)
TAU_THETA_DEG = 5.0
TAU_D = 0.5


@dataclass
class VoxelParams:
    l_parent: float = 1.0
    max_depth: int = 3
    min_points: int = 10

    def validate(self):
        if not self.l_parent > 0.0:
            raise InvalidParams("l_parent must be positive")
        if self.max_depth < 0:
            raise InvalidParams("max_depth must be >= 0")
        if self.min_points < 3:
            raise InvalidParams("min_points must be >= 3")


@dataclass(frozen=True)
class PlaneFeature:
    """Fitted voxel plane: unit normal (of arbitrary sign), centroid,
    ascending eigenvalues."""

    normal: np.ndarray
    centroid: np.ndarray
    eigenvalues: np.ndarray
    point_count: int
    eta: float
    sigma_lambda: float
    weight: float
    voxel_keys: tuple
    point_indices: np.ndarray


class _CellTable(NamedTuple):
    """One depth's nodes for containment lookups. Cells are (3, M) arrays,
    one row per axis. The key of a cell is its C-order index in the box
    lo..hi, the nodes' cell box padded by a rim of one empty cell; `keys`
    holds the nodes' keys in ascending order, `targets` their targets."""

    lo: np.ndarray
    hi: np.ndarray
    strides: np.ndarray
    keys: np.ndarray
    targets: np.ndarray

    @classmethod
    def build(cls, cells: np.ndarray, targets: np.ndarray) -> "_CellTable":
        lo = cells.min(axis=1, keepdims=True) - 1
        hi = cells.max(axis=1, keepdims=True) + 1
        _, (_, ny, nz) = cell_box(np.hstack([lo, hi]).T)
        strides = np.array([ny * nz, nz, 1], dtype=np.int64)
        keys = strides @ (cells - lo)
        order = np.argsort(keys)
        return cls(lo, hi, strides, keys[order], targets[order])

    def lookup(self, cells: np.ndarray) -> np.ndarray:
        """Each cell's target, by one `np.searchsorted`; _STOP where no
        node holds the cell. A cell outside the box is clipped onto its
        empty rim."""
        keys = self.strides @ (np.clip(cells, self.lo, self.hi) - self.lo)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.targets[pos], _STOP)


def _cell_tables(nodes: dict, leaf_to_plane: np.ndarray) -> list[_CellTable]:
    """One `_CellTable` per depth, from the root down to the deepest node."""
    if not nodes:
        return []
    keys = np.array(list(nodes), dtype=np.int64)
    depth, cells = keys[:, 0], keys[:, 1:].T
    status = np.array([st for st, _ in nodes.values()])
    targets = np.full(len(status), _STOP)
    targets[status == SUBDIVIDED] = _DESCEND
    targets[status == PLANAR] = leaf_to_plane[
        [leaf for st, leaf in nodes.values() if st == PLANAR]]
    return [_CellTable.build(cells[:, depth == d], targets[depth == d])
            for d in range(int(depth.max()) + 1)]


def confidence_weight(point_count, sigma_lambda, eta, gamma):
    """point_count / (1 + sigma_lambda) * exp(-gamma * eta), elementwise."""
    return point_count / (1.0 + sigma_lambda) * np.exp(-gamma * eta)


def _features(fit, counts: np.ndarray, keys: list,
              point_indices: list) -> list[PlaneFeature]:
    """PlaneFeatures of fitted point sets: fit = (centroids, eigenvalues,
    normals) as `ptplane.fit_groups` returns them, one row per set."""
    centroids, evals, normals = fit
    eta = planarity(evals)
    sigma = np.std(evals, axis=1)
    weight = confidence_weight(counts, sigma, eta, GAMMA)
    return [PlaneFeature(*row) for row in zip(
        normals, centroids, evals, counts.tolist(), eta.tolist(),
        sigma.tolist(), weight.tolist(), keys, point_indices)]


class VoxelMapIndex:
    """Octree classification over map points plus the extracted planes.

    nodes maps (depth, ix, iy, iz) to PLANAR/SUBDIVIDED/DISCARDED; planar
    nodes also record their index into leaf_planes, which lists the leaves
    by depth, and by cell within a depth. After merge_neighbors, `planes`
    holds merged features and leaf_to_plane redirects leaves. `normals`
    (P, 3), `centroids` (P, 3) and `weights` (P,) stack the fields of
    `planes` in order, for vectorized association. `associate_batch` reads
    `nodes` through per-depth key tables (see the module docstring), built
    when the planes are set.
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
        self._tables: list[_CellTable] = []

    def _finalize(self, planes: list[PlaneFeature], leaf_to_plane: np.ndarray):
        self.planes = planes
        self.leaf_to_plane = leaf_to_plane
        self.normals = (np.stack([p.normal for p in planes])
                        if planes else np.zeros((0, 3)))
        self.centroids = (np.stack([p.centroid for p in planes])
                          if planes else np.zeros((0, 3)))
        self.weights = np.array([p.weight for p in planes], dtype=float)
        self._tables = _cell_tables(self.nodes, leaf_to_plane)

    def edge_length(self, depth: int) -> float:
        return self.params.l_parent / (2 ** depth)


def build_adaptive(source, params: VoxelParams | None = None) -> VoxelMapIndex:
    """Classify a reference map (or raw (N, 3) array) into a plane index.

    Depth by depth, the points not yet classified are grouped by cell, and
    all cells are fitted in one kernel call. A cell is PLANAR when it passes
    `ptplane.plane_gate` with floor MAX_DEV_FLOOR; DISCARDED when it holds
    fewer than min_points points, is collinear, or is not planar at
    max_depth; SUBDIVIDED otherwise, and its points go on to the next depth.
    """
    params = params or VoxelParams()
    params.validate()
    index = VoxelMapIndex(getattr(source, "points", source), params)
    active = np.arange(len(index.points))
    for depth in range(params.max_depth + 1):
        if len(active) == 0:
            break
        cells = np.floor(index.points[active] / index.edge_length(depth)
                         ).astype(np.int64)
        keys = pack_cells(cells)
        # members of one cell are a run of the key-sorted order, ascending
        # in point index
        order = np.argsort(keys, kind="stable")
        active, keys = active[order], keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        counts = np.diff(np.r_[starts, len(keys)])
        labels = np.repeat(np.arange(len(starts)), counts)
        pts = index.points[active]
        fit = centroids, evals, normals = fit_groups(pts, labels, len(starts))
        dev = np.abs(np.einsum("ij,ij->i", pts - centroids[labels],
                               normals[labels]))
        enough = counts >= params.min_points
        planar = enough & plane_gate(evals, np.maximum.reduceat(dev, starts),
                                     MAX_DEV_FLOOR)
        split = (enough & ~planar & (evals[:, 1] >= COLLINEAR_EPS)
                 & (depth < params.max_depth))
        node_keys = [(depth, *c) for c in cells[order[starts]].tolist()]
        status = np.where(planar, PLANAR, np.where(split, SUBDIVIDED, DISCARDED))
        leaf_ids = np.cumsum(planar) - 1 + len(index.leaf_planes)
        index.nodes.update(
            (key, (st, leaf if st == PLANAR else None))
            for key, st, leaf in zip(node_keys, status.tolist(), leaf_ids.tolist()))
        sel = np.flatnonzero(planar)
        index.leaf_planes += _features(
            [a[sel] for a in fit], counts[sel], [(node_keys[c],) for c in sel],
            [active[s:s + m] for s, m in zip(starts[sel], counts[sel])])
        active = active[np.repeat(split, counts)]
    index._finalize(list(index.leaf_planes), np.arange(len(index.leaf_planes)))
    return index


def _refit_unions(index: VoxelMapIndex,
                  unions: list[list[int]]) -> list[PlaneFeature | None]:
    """The plane of each union of leaves, fitted in one kernel call, or None
    where a member leaf's points fit it worse than their own plane: mean
    squared distance to the union plane above 4 * lambda1(leaf) + 1e-12."""
    if not unions:
        return []
    leaves = [index.leaf_planes[m] for u in unions for m in u]
    union_of_leaf = np.repeat(np.arange(len(unions)), [len(u) for u in unions])
    sizes = np.array([leaf.point_count for leaf in leaves])
    leaf_of_point = np.repeat(np.arange(len(leaves)), sizes)
    labels = union_of_leaf[leaf_of_point]
    point_idx = np.concatenate([leaf.point_indices for leaf in leaves])
    pts = index.points[point_idx]
    fit = centroids, _, normals = fit_groups(pts, labels, len(unions))
    dist = np.einsum("ij,ij->i", pts - centroids[labels], normals[labels])
    mean_sq = np.bincount(leaf_of_point, dist * dist) / sizes
    own = np.array([leaf.eigenvalues[0] for leaf in leaves])
    misfits = np.bincount(union_of_leaf, mean_sq > 4.0 * own + 1e-12,
                          len(unions))
    counts = np.bincount(labels, minlength=len(unions))
    keys = [tuple(k for m in u for k in index.leaf_planes[m].voxel_keys)
            for u in unions]
    planes = _features(fit, counts, keys, np.split(point_idx, np.cumsum(counts)[:-1]))
    return [p if bad == 0 else None for p, bad in zip(planes, misfits)]


_FACES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def _face_neighbor_pairs(index: VoxelMapIndex) -> np.ndarray:
    """(i, j) pairs of leaves, i < j, that share part of a face.

    For each face of a leaf, the cell across it at the leaf's depth is
    looked up in `index.nodes`, then that cell's ancestors; the first node
    found decides, and a PLANAR one is a neighbour. A neighbour smaller than
    the leaf is found from its own side.
    """
    pairs = set()
    for i, leaf in enumerate(index.leaf_planes):
        depth, *cell = leaf.voxel_keys[0]
        for face in _FACES:
            nbr = [c + f for c, f in zip(cell, face)]
            for d in range(depth, -1, -1):
                node = index.nodes.get((d, *nbr))
                if node is not None:
                    status, j = node
                    if status == PLANAR:
                        pairs.add((min(i, j), max(i, j)))
                    break
                nbr = [c >> 1 for c in nbr]
    return np.array(sorted(pairs), dtype=int).reshape(-1, 2)


def merge_neighbors(index: VoxelMapIndex, tau_theta: float, tau_d: float) -> VoxelMapIndex:
    """Merge face-adjacent coplanar leaves, transitively.

    Candidate pairs need normals within tau_theta and centroids within
    tau_d. A candidate group is then refit over the union of its member
    points and kept only if every member leaf fits the union plane about as
    well as its own plane (see _refit_unions); otherwise the group's leaves
    stay unmerged. The angle and distance gates are pairwise, so a chain of
    leaves that each hold a strip of an adjacent surface can pass them and
    still blend two surfaces into one tilted plane; the member check rejects
    such unions.

    Merging always starts over from the unmerged leaves, so applying this
    twice equals applying it once. The plane count never increases.
    """
    n = len(index.leaf_planes)
    pairs = _face_neighbor_pairs(index)
    normals = np.array([p.normal for p in index.leaf_planes]).reshape(n, 3)
    centroids = np.array([p.centroid for p in index.leaf_planes]).reshape(n, 3)
    i, j = pairs.T
    cos_t = np.clip(np.abs(np.einsum("ij,ij->i", normals[j], normals[i])), 0.0, 1.0)
    dist = np.linalg.norm(centroids[j] - centroids[i], axis=1)
    pairs = pairs[(np.arccos(cos_t) < tau_theta) & (dist < tau_d)]
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    # components are labelled in the order of their smallest leaf
    n_groups, labels = connected_components(graph, directed=False)
    bounds = np.cumsum(np.bincount(labels, minlength=n_groups))[:-1]
    groups = [g.tolist() for g in np.split(np.argsort(labels, kind="stable"), bounds)]
    refits = iter(_refit_unions(index, [g for g in groups if len(g) > 1]))

    merged: list[PlaneFeature] = []
    leaf_to_plane = np.zeros(n, dtype=int)
    for members in groups:
        plane = next(refits) if len(members) > 1 else None
        if plane is not None:
            leaf_to_plane[members] = len(merged)
            merged.append(plane)
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
    Depth by depth, the points still descending look their cells up in the
    index's key table for that depth (see `VoxelMapIndex`).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    out = np.full(n, -1, dtype=int)
    if n == 0 or not index.planes:
        return out
    # one row per axis, so that the lookups' arithmetic runs along the points
    coords = np.ascontiguousarray(points.T)
    active = np.arange(n)
    for depth, table in enumerate(index._tables):
        if len(active) == 0:
            break
        cells = np.floor(coords[:, active] / index.edge_length(depth)).astype(np.int64)
        targets = table.lookup(cells)
        planar = targets >= 0
        out[active[planar]] = targets[planar]
        active = active[targets == _DESCEND]
    matched = out >= 0
    if matched.any():
        ids = out[matched]
        dist = np.abs(np.einsum(
            "ij,ij->i", index.normals[ids], points[matched] - index.centroids[ids]))
        bad = dist > reject_dist
        sel = np.nonzero(matched)[0][bad]
        out[sel] = -1
    return out
