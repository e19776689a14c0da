"""Adaptive octree voxelization of a reference map into planar features.

Space is cut into l_parent cells on a grid anchored at the world origin
(cells are half-open, lower-inclusive; boundary points belong to the
higher-index cell). The octree is built one depth at a time: every cell of
a depth is fitted in one `ptplane.fit_groups` call and judged by
`ptplane.plane_gate`, the plane test LBA's neighbour sets pass too. Cells
that pass become planes; complex cells subdivide into eight children of half
the edge length until max_depth. Planes are held as `Planes`, one row
array per field; each plane keeps its point cluster (count, centroid,
centred second moments). Face-adjacent coplanar leaves can be merged,
fitted from the sum of their clusters without reading a map point, and
every plane carries a confidence weight

    weight = point_count / (1 + sigma_lambda) * exp(-GAMMA * eta)

where eta = lambda1 / (lambda2 + lambda3) is the planarity index and
sigma_lambda the standard deviation of the three eigenvalues.

The octree is recorded only as one sorted key table per depth: every
classified cell's key with its target, a leaf id for a planar cell, or
whether to descend (a subdivided cell) or stop (a discarded one). A depth's
lookup is one `np.searchsorted`, with no loop over cells. Containment
association walks the tables down from a point's root cell, and merging
finds face neighbours by walking down from the cell across each leaf face.
The finished index is a frozen record, safe for concurrent association
queries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import check_rules
from .grid import cell_box, pack_cells
from .ptplane import (COLLINEAR_EPS, MAX_DEV_FLOOR, cluster_sq_distance,
                      fit_clusters, fit_groups, plane_gate, planarity)

# cell targets in the key tables: a planar cell's target is its leaf id, a
# subdivided cell's _DESCEND, a discarded or absent cell's _STOP
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
        check_rules(vars(self), (
            ("l_parent", self.l_parent > 0.0, "must be > 0"),
            ("max_depth", self.max_depth >= 0, "must be >= 0"),
            ("min_points", self.min_points >= 3, "must be >= 3"),
        ))


def confidence_weight(point_count, sigma_lambda, eta, gamma):
    """point_count / (1 + sigma_lambda) * exp(-gamma * eta), elementwise."""
    return point_count / (1.0 + sigma_lambda) * np.exp(-gamma * eta)


@dataclass(frozen=True, eq=False)
class Planes:
    """Fitted planes, one row each: point count, centroid, centred second
    moments (see `ptplane.fit_clusters`), ascending eigenvalues, unit normal
    (of arbitrary sign) and confidence weight. The count, centroid and
    moments are the plane's point cluster."""

    counts: np.ndarray
    centroids: np.ndarray
    moments: np.ndarray
    eigenvalues: np.ndarray
    normals: np.ndarray
    weights: np.ndarray

    @classmethod
    def fitted(cls, counts: np.ndarray, fit) -> "Planes":
        """The planes of clusters fitted by `ptplane.fit_clusters`, fit =
        (centroids, eigenvalues, normals, moments), weighted here."""
        centroids, evals, normals, moments = fit
        weights = confidence_weight(counts, np.std(evals, axis=1),
                                    planarity(evals), GAMMA)
        return cls(counts, centroids, moments, evals, normals, weights)

    def __len__(self) -> int:
        return len(self.counts)


class _CellTable(NamedTuple):
    """One depth's classified cells, for lookups. Cells are (3, M) arrays,
    one row per axis. The key of a cell is its C-order index in the box
    lo..hi, the classified cells' box padded by a rim of one empty cell;
    `keys` holds their keys in ascending order, `targets` their targets."""

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
        """Each cell's target, by one `np.searchsorted`; _STOP where the
        cell was not classified. A cell outside the box is clipped onto its
        empty rim."""
        keys = self.strides @ (np.clip(cells, self.lo, self.hi) - self.lo)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.targets[pos], _STOP)


@dataclass(frozen=True, eq=False)
class VoxelMapIndex:
    """Octree classification over map points plus the extracted planes.

    `points` (N, 3) are the map points and `params` the octree's. Leaves are
    the planar cells, listed by depth, and by cell within a depth:
    `leaf_keys` (L, 4) holds each leaf's (depth, ix, iy, iz), `leaf_planes`
    its plane, and `point_leaf` each map point's leaf, -1 outside every
    leaf. `planes` holds the planes association returns and `leaf_to_plane`
    each leaf's row in it: the leaves themselves until merge_neighbors,
    whose merged planes' cells are the leaves that map to them. `_tables`
    are the per-depth key tables (see the module docstring), the octree's
    only record; they hold leaf ids and so serve every plane set.
    """

    points: np.ndarray
    params: VoxelParams
    point_leaf: np.ndarray
    leaf_keys: np.ndarray
    leaf_planes: Planes
    planes: Planes
    leaf_to_plane: np.ndarray
    _tables: list[_CellTable]

    def edge_length(self, depth: int) -> float:
        return self.params.l_parent / (2 ** depth)


def build_adaptive(points: np.ndarray,
                   params: VoxelParams | None = None) -> VoxelMapIndex:
    """Classify a reference map's (N, 3) points into a plane index.

    Depth by depth, the points not yet classified are grouped by cell, and
    all cells are fitted in one kernel call. A cell is planar, a leaf, when
    it passes `ptplane.plane_gate` with floor MAX_DEV_FLOOR; discarded when
    it holds fewer than min_points points, is collinear, or is not planar at
    max_depth; subdivided otherwise, and its points go on to the next depth.
    """
    params = params or VoxelParams()
    params.validate()
    points = np.asarray(points, dtype=float)
    point_leaf = np.full(len(points), -1)
    tables = []
    # per depth: the leaves' keys, counts and fit rows, after a row-less
    # entry that gives a map without points its empty arrays
    leaves = [(np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64),
               *fit_groups(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 0))]
    n_leaves = 0
    active = np.arange(len(points))
    for depth in range(params.max_depth + 1):
        if len(active) == 0:
            break
        cells = np.floor(points[active] / (params.l_parent / 2 ** depth)
                         ).astype(np.int64)
        keys = pack_cells(cells)
        # members of one cell are a run of the key-sorted order, ascending
        # in point index
        order = np.argsort(keys, kind="stable")
        active, keys = active[order], keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        counts = np.diff(np.r_[starts, len(keys)])
        labels = np.repeat(np.arange(len(starts)), counts)
        pts = points[active]
        fit = centroids, evals, normals, _ = fit_groups(pts, labels, len(starts))
        dev = np.abs(np.einsum("ij,ij->i", pts - centroids[labels],
                               normals[labels]))
        enough = counts >= params.min_points
        planar = enough & plane_gate(evals, np.maximum.reduceat(dev, starts),
                                     MAX_DEV_FLOOR)
        split = (enough & ~planar & (evals[:, 1] >= COLLINEAR_EPS)
                 & (depth < params.max_depth))
        node_cells = cells[order[starts]]
        leaf_ids = np.cumsum(planar) - 1 + n_leaves
        tables.append(_CellTable.build(node_cells.T, np.where(
            planar, leaf_ids, np.where(split, _DESCEND, _STOP))))
        on_leaf = np.repeat(planar, counts)
        point_leaf[active[on_leaf]] = leaf_ids[labels[on_leaf]]
        sel = np.flatnonzero(planar)
        leaves.append((np.column_stack([np.full(len(sel), depth), node_cells[sel]]),
                       counts[sel], *(a[sel] for a in fit)))
        n_leaves += len(sel)
        active = active[np.repeat(split, counts)]
    leaf_keys, counts, *fit = (np.concatenate(a) for a in zip(*leaves))
    planes = Planes.fitted(counts, fit)
    return VoxelMapIndex(points, params, point_leaf, leaf_keys, planes, planes,
                         np.arange(n_leaves), tables)


_FACES = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])


def _face_neighbor_pairs(index: VoxelMapIndex) -> np.ndarray:
    """(i, j) pairs of leaves, i < j, that share part of a face, in
    ascending order.

    The cell across each face of a leaf, at the leaf's depth, is walked down
    the key tables from its root cell, one lookup per depth for all faces:
    the first cell on the way that is not subdivided, at most at the leaf's
    depth, decides, and a planar one is a neighbour. A neighbour smaller
    than the leaf is found from its own side.
    """
    leaf = np.repeat(np.arange(len(index.leaf_keys)), len(_FACES))
    depth = index.leaf_keys[leaf, 0]
    cells = (index.leaf_keys[:, None, 1:] + _FACES).reshape(-1, 3)
    found = [np.zeros((0, 2), dtype=np.int64)]
    active = np.arange(len(leaf))
    for d, table in enumerate(index._tables):
        targets = table.lookup((cells[active] >> (depth[active] - d)[:, None]).T)
        hit = targets >= 0
        found.append(np.column_stack([leaf[active[hit]], targets[hit]]))
        active = active[(targets == _DESCEND) & (depth[active] > d)]
    return np.unique(np.sort(np.vstack(found), axis=1), axis=0)


def merge_neighbors(index: VoxelMapIndex, tau_theta: float, tau_d: float) -> VoxelMapIndex:
    """Merge face-adjacent coplanar leaves, transitively.

    Candidate pairs need normals within tau_theta and centroids within
    tau_d. Every candidate group is then fitted from the sum of its member
    leaves' point clusters, reading no map point, and a group of two or
    more leaves is kept only if each member's mean squared distance to the
    union plane, n^T (C + (mu - c)(mu - c)^T) n from the leaf's moments C
    and centroid mu, is at most 4 * lambda1(leaf) + 1e-12: every member
    fits the union about as well as its own plane. Otherwise the group's
    leaves stay unmerged. The angle and distance gates are pairwise, so a
    chain of leaves that each hold a strip of an adjacent surface can pass
    them and still blend two surfaces into one tilted plane; the member
    check rejects such unions.

    Merging always starts over from the unmerged leaves, so applying this
    twice equals applying it once. The plane count never increases.
    """
    leaves = index.leaf_planes
    n = len(leaves)
    pairs = _face_neighbor_pairs(index)
    i, j = pairs.T
    cos_t = np.clip(np.abs(np.einsum("ij,ij->i", leaves.normals[j],
                                     leaves.normals[i])), 0.0, 1.0)
    dist = np.linalg.norm(leaves.centroids[j] - leaves.centroids[i], axis=1)
    pairs = pairs[(np.arccos(cos_t) < tau_theta) & (dist < tau_d)]
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_groups, labels = connected_components(graph, directed=False)
    fit = fit_clusters(leaves.counts, leaves.centroids, leaves.moments,
                       labels, n_groups)
    unions = Planes.fitted(np.bincount(labels, leaves.counts, n_groups).astype(int),
                           fit)
    mean_sq = cluster_sq_distance(leaves.centroids, leaves.moments,
                                  unions.normals[labels], unions.centroids[labels])
    misfits = np.bincount(labels, mean_sq > 4.0 * leaves.eigenvalues[:, 0] + 1e-12,
                          n_groups)
    kept = (misfits == 0) & (np.bincount(labels, minlength=n_groups) > 1)
    # components are labelled in the order of their smallest leaf; a kept
    # union becomes one plane, and each leaf of any other group its own
    order = np.argsort(labels, kind="stable")
    group = labels[order]
    starts = np.r_[True, group[1:] != group[:-1]] | ~kept[group]
    # each plane's row in the unions' rows followed by the leaves'
    rows = np.where(kept[group[starts]], group[starts], n_groups + order[starts])
    planes = Planes(*(np.concatenate(pair)[rows] for pair in zip(
        vars(unions).values(), vars(leaves).values())))
    return replace(index, planes=planes,
                   leaf_to_plane=(np.cumsum(starts) - 1)[np.argsort(order)])


def associate_batch(points: np.ndarray, index: VoxelMapIndex) -> np.ndarray:
    """Vectorized containment lookup.

    Returns per-point indices into index.planes of the plane whose leaf
    cell contains the point, -1 where the containing cell chain ends in a
    discarded or empty cell. No residual is computed: judging a match is
    calibration's (`extrinsic._associate_frame`). Depth by depth, the points
    still descending look their cells up in the index's key table for that
    depth (see `VoxelMapIndex`); a leaf found maps to its plane through
    `leaf_to_plane`.
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
        out[active[planar]] = index.leaf_to_plane[targets[planar]]
        active = active[targets == _DESCEND]
    return out
