import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcalib import voxelmap as vm
from lidarcalib.ptplane import (COLLINEAR_EPS, ETA_MAX, MAX_DEV_FLOOR,
                                MAX_DEV_RATIO, fit_groups, planarity)


def plane_patch(rng, normal, centroid, extent, n, noise=0.0):
    """Sample n points on a finite plane patch."""
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    # build tangent basis
    a = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, a)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    uv = rng.uniform(-extent, extent, size=(n, 2))
    pts = centroid + uv[:, :1] * u + uv[:, 1:] * v
    if noise > 0.0:
        pts = pts + rng.normal(0.0, noise, size=(n, 1)) * normal
    return pts


PLANAR, SUBDIVIDED, DISCARDED = "planar", "subdivided", "discarded"


def octree_nodes(index):
    """The octree decoded from the index's per-depth key tables:
    {(depth, ix, iy, iz): (status, leaf id or None)} over every classified
    cell."""
    nodes = {}
    for depth, table in enumerate(index._tables):
        shape = (table.hi - table.lo + 1).ravel()
        cells = np.array(np.unravel_index(table.keys, shape)) + table.lo
        for cell, target in zip(cells.T.tolist(), table.targets.tolist()):
            status = (PLANAR if target >= 0 else
                      SUBDIVIDED if target == vm._DESCEND else DISCARDED)
            nodes[(depth, *cell)] = (status, target if target >= 0 else None)
    return nodes


def eigh_plane(points):
    """Oracle plane of a point set by np.linalg.eigh: (unit normal,
    centroid, ascending eigenvalues)."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(points))
    return evecs[:, 0], centroid, np.clip(evals, 0.0, None)


def eta_of(evals):
    return evals[0] / (evals[1] + evals[2])


def fit_cells(*cells):
    """fit_groups over point sets given one by one: (centroids, evals,
    normals), one row per set."""
    labels = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    return fit_groups(np.vstack(cells), labels, len(cells))[:3]


class TestFitPlane:
    """The voxel cell fit, `ptplane.fit_groups`, and the cells
    `build_adaptive` rejects before any plane test."""

    def test_unit_square(self):
        pts = np.array([[0, 0, 2], [1, 0, 2], [1, 1, 2], [0, 1, 2]], dtype=float)
        # a second, unrelated group shares the call
        other = np.array([[5, 0, 0], [5, 1, 0], [5, 0, 1], [5, 1, 1.0]])
        c, evals, n = fit_cells(pts, other)
        np.testing.assert_allclose(np.abs(n[0]), [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(c[0], [0.5, 0.5, 2.0], atol=1e-12)
        assert evals[0, 0] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(np.abs(n[1]), [1, 0, 0], atol=1e-12)

    def test_noisy_tilted_plane(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 500)
        y = rng.uniform(-1, 1, 500)
        z = 0.1 * x + 0.2 * y + rng.normal(0, 0.001, 500)
        _, evals, n = fit_cells(np.column_stack([x, y, z]))
        expected = np.array([-0.1, -0.2, 1.0])
        expected /= np.linalg.norm(expected)
        angle = math.acos(min(1.0, abs(np.dot(n[0], expected))))
        assert angle < math.radians(0.5)
        assert evals[0, 0] == pytest.approx(1e-6, rel=0.5)

    def test_rms_equals_lambda1(self):
        rng = np.random.default_rng(2)
        cells = [plane_patch(rng, normal, [0.5, 0.5, 0.5], 0.5, count, noise=0.01)
                 for normal, count in (([1, 2, 3], 200), ([0, 1, 0], 37))]
        c, evals, n = fit_cells(*cells)
        for pts, ci, ei, ni in zip(cells, c, evals, n):
            rms_sq = np.mean(((pts - ci) @ ni) ** 2)
            assert rms_sq == pytest.approx(ei[0], abs=1e-12)

    def test_collinear_discarded(self):
        pts = np.column_stack([np.linspace(0.05, 0.95, 20), np.full(20, 0.5),
                               np.full(20, 0.5)])
        index = vm.build_adaptive(pts, vm.VoxelParams(max_depth=2))
        assert octree_nodes(index) == {(0, 0, 0, 0): (DISCARDED, None)}
        assert not index.planes

    def test_too_few_points(self):
        rng = np.random.default_rng(3)
        pts = plane_patch(rng, [0, 0, 1], [0.5, 0.5, 0.5], 0.4, 9)
        index = vm.build_adaptive(pts, vm.VoxelParams(min_points=10))
        assert octree_nodes(index) == {(0, 0, 0, 0): (DISCARDED, None)}
        assert not index.planes


class TestConfidenceWeight:
    def test_neutral_attenuations(self):
        for gamma in (0.0, 0.5, 3.0):
            assert vm.confidence_weight(100, 0.0, 0.0, gamma) == pytest.approx(100.0)

    def test_direct_formula(self):
        expected = 50.0 * math.exp(-0.1)
        assert vm.confidence_weight(100, 1.0, 0.1, 1.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(45.242, abs=1e-3)

    def test_linear_in_count(self):
        w1 = vm.confidence_weight(50, 0.3, 0.05, 1.0)
        w2 = vm.confidence_weight(100, 0.3, 0.05, 1.0)
        assert w2 == pytest.approx(2.0 * w1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 10000), st.floats(0.0, 10.0), st.floats(0.0, 1.0),
           st.floats(0.0, 5.0))
    def test_matches_closed_form_and_monotone(self, m, sigma, eta, gamma):
        w = vm.confidence_weight(m, sigma, eta, gamma)
        assert w == pytest.approx(m / (1.0 + sigma) * math.exp(-gamma * eta))
        assert vm.confidence_weight(m, sigma, eta + 0.1, gamma + 1e-3) <= w + 1e-12
        assert vm.confidence_weight(m, sigma + 0.1, eta, gamma) <= w + 1e-12
        assert vm.confidence_weight(m + 1, sigma, eta, gamma) >= w - 1e-12


def single_plane_map(rng, size=10.0, spacing=0.05):
    xs = np.arange(0.025, size, spacing)
    xx, yy = np.meshgrid(xs, xs)
    return np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])


class TestBuildAdaptive:
    def test_single_plane_all_roots_planar(self):
        rng = np.random.default_rng(3)
        pts = single_plane_map(rng)
        index = vm.build_adaptive(pts, vm.VoxelParams(l_parent=1.0))
        nodes = octree_nodes(index)
        planar = [k for k, (s, _) in nodes.items() if s == PLANAR]
        assert planar and all(k[0] == 0 for k in planar)
        assert all(s == PLANAR for s, _ in nodes.values())
        assert len(index.planes) == len(planar)
        np.testing.assert_allclose(np.abs(index.planes.normals),
                                   np.tile([0, 0, 1], (len(planar), 1)), atol=1e-9)
        assert np.all(planarity(index.planes.eigenvalues) < 0.01)

    def test_perpendicular_walls_subdivide_corner(self):
        rng = np.random.default_rng(4)
        wall_a = plane_patch(rng, [0, 0, 1], [0.5, 0.5, 0.5], 0.49, 400)
        wall_b = plane_patch(rng, [1, 0, 0], [0.5, 0.5, 0.5], 0.49, 400)
        pts = np.clip(np.vstack([wall_a, wall_b]), 0.001, 0.999)
        index = vm.build_adaptive(pts, vm.VoxelParams(l_parent=1.0, max_depth=2))
        nodes = octree_nodes(index)
        status, _ = nodes[(0, 0, 0, 0)]
        assert status == SUBDIVIDED
        # sample covariance oracle: corner voxel eta above threshold
        assert eta_of(eigh_plane(pts)[2]) > 0.1
        planar_children = [k for k, (s, _) in nodes.items()
                           if s == PLANAR and k[0] > 0]
        assert planar_children

    def test_isotropic_blob_discarded(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0.5, 0.15, size=(500, 3))
        pts = pts[np.all((pts > 0) & (pts < 1), axis=1)]
        assert eta_of(eigh_plane(pts)[2]) > 0.3  # eta oracle: isotropic sample
        index = vm.build_adaptive(pts, vm.VoxelParams(l_parent=1.0, max_depth=0))
        assert octree_nodes(index)[(0, 0, 0, 0)][0] == DISCARDED
        assert not index.planes

    def test_empty_map(self):
        index = vm.build_adaptive(np.zeros((0, 3)), vm.VoxelParams())
        assert len(index.planes) == 0
        assert index.planes.normals.shape == (0, 3)

    def test_index_is_frozen(self):
        index = vm.build_adaptive(single_plane_map(None), vm.VoxelParams())
        merged = vm.merge_neighbors(index, math.radians(5.0), 0.5)
        for built in (index, merged):
            with pytest.raises(dataclasses.FrozenInstanceError):
                built.planes = built.leaf_planes

    def test_boundary_points_go_to_higher_cell(self):
        rng = np.random.default_rng(6)
        pts = plane_patch(rng, [0, 0, 1], [1.5, 1.5, 0.25], 0.45, 100)
        pts[0] = [1.0, 1.5, 0.25]  # exactly on the x = 1 boundary
        index = vm.build_adaptive(pts, vm.VoxelParams(min_points=3))
        # cell (1, 1, 0) is [1,2)x[1,2)x[0,1): boundary point belongs here
        assert (0, 1, 1, 0) in octree_nodes(index)

    def test_transformed_map_transforms_planes(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([
            plane_patch(rng, [0, 0, 1], [2.0, 2.0, 1.3], 1.8, 3000, noise=0.002),
            plane_patch(rng, [1, 0, 0], [3.7, 2.0, 2.0], 1.5, 3000, noise=0.002),
        ])
        params = vm.VoxelParams(l_parent=1.0, max_depth=2)
        index = vm.build_adaptive(pts, params)
        # lattice translation + axis-aligned 90 degree rotation about z
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        shift = np.array([2.0, -3.0, 1.0])
        moved = pts @ rot.T + shift
        index2 = vm.build_adaptive(moved, params)
        assert len(index2.planes) == len(index.planes)
        moved_c = index.planes.centroids @ rot.T + shift
        orig = np.lexsort(moved_c.T[::-1])
        new = np.lexsort(index2.planes.centroids.T[::-1])
        np.testing.assert_allclose(moved_c[orig], index2.planes.centroids[new],
                                   atol=1e-6)
        dots = np.einsum("ij,ij->i", index.planes.normals[orig] @ rot.T,
                         index2.planes.normals[new])
        assert np.all(np.abs(np.abs(dots) - 1.0) < 1e-6)


class TestMergeNeighbors:
    def _two_coplanar_cells(self, rng):
        a = plane_patch(rng, [0, 0, 1], [0.5, 0.5, 0.5], 0.45, 200)
        b = plane_patch(rng, [0, 0, 1], [1.5, 0.5, 0.5], 0.45, 200)
        return np.vstack([a, b])

    def test_adjacent_coplanar_merge(self):
        rng = np.random.default_rng(8)
        pts = self._two_coplanar_cells(rng)
        index = vm.build_adaptive(pts, vm.VoxelParams())
        assert len(index.planes) == 2
        merged = vm.merge_neighbors(index, math.radians(5.0), 1.5)
        assert len(merged.planes) == 1
        np.testing.assert_allclose(np.abs(merged.planes.normals[0]), [0, 0, 1],
                                   atol=1e-9)
        assert merged.planes.counts[0] == 400

    def test_perpendicular_not_merged(self):
        rng = np.random.default_rng(9)
        a = plane_patch(rng, [0, 0, 1], [0.5, 0.5, 0.5], 0.45, 200)
        b = plane_patch(rng, [1, 0, 0], [1.5, 0.5, 0.5], 0.45, 200)
        index = vm.build_adaptive(np.vstack([a, b]), vm.VoxelParams())
        merged = vm.merge_neighbors(index, math.radians(5.0), 1.5)
        assert len(merged.planes) == 2

    def test_chain_merges_to_one_with_union_refit(self):
        rng = np.random.default_rng(10)
        cells = [plane_patch(rng, [0, 0, 1], [0.5 + i, 0.5, 0.5], 0.45, 150, noise=0.004)
                 for i in range(5)]
        pts = np.vstack(cells)
        index = vm.build_adaptive(pts, vm.VoxelParams())
        merged = vm.merge_neighbors(index, math.radians(5.0), 1.5)
        assert len(merged.planes) == 1
        n_ref, c_ref, _ = eigh_plane(pts)
        n = merged.planes.normals[0]
        np.testing.assert_allclose(n * np.sign(n @ n_ref), n_ref, atol=1e-9)
        np.testing.assert_allclose(merged.planes.centroids[0], c_ref, atol=1e-9)

    def test_distance_gate(self):
        rng = np.random.default_rng(11)
        pts = self._two_coplanar_cells(rng)
        index = vm.build_adaptive(pts, vm.VoxelParams())
        merged = vm.merge_neighbors(index, math.radians(5.0), 0.5)
        assert len(merged.planes) == 2  # centroids ~1 m apart > tau_d

    def test_wall_strip_does_not_tilt_floor(self):
        # zero-noise floor at z = 0.97 over two root cells; a wall at x = 1.9
        # rises out of the second cell, leaving a 3 cm strip in it that still
        # passes the planarity gates with a slightly tilted normal
        rng = np.random.default_rng(19)
        floor = np.column_stack([rng.uniform(0.0, 1.9, 400),
                                 rng.uniform(0.0, 1.0, 400), np.full(400, 0.97)])
        strip = np.column_stack([np.full(40, 1.9), rng.uniform(0.0, 1.0, 40),
                                 rng.uniform(0.97, 1.0, 40)])
        index = vm.build_adaptive(np.vstack([floor, strip]), vm.VoxelParams())
        assert len(index.planes) == 2
        merged = vm.merge_neighbors(index, math.radians(5.0), 1.5)
        leaf = octree_nodes(index)[(0, 0, 0, 0)][1]
        plane = merged.leaf_to_plane[leaf]
        np.testing.assert_allclose(np.abs(merged.planes.normals[plane]), [0, 0, 1],
                                   atol=1e-9)
        assert abs(merged.planes.centroids[plane, 2] - 0.97) < 1e-9

    def test_merging_reads_no_point(self, room_calib_setup):
        """Merging works from the leaves' clusters alone: with every map
        point overwritten by NaN it gives the same planes."""
        _, index, _ = room_calib_setup
        blind = dataclasses.replace(index, points=np.full_like(index.points, np.nan))
        tau_theta, tau_d = math.radians(5.0), 0.5
        merged = vm.merge_neighbors(index, tau_theta, tau_d)
        assert len(merged.planes) < len(index.leaf_planes)
        blind_merged = vm.merge_neighbors(blind, tau_theta, tau_d)
        np.testing.assert_array_equal(blind_merged.leaf_to_plane, merged.leaf_to_plane)
        assert len(blind_merged.planes) == len(merged.planes)
        for field in ("counts", "normals", "centroids", "eigenvalues", "moments",
                      "weights"):
            np.testing.assert_array_equal(getattr(blind_merged.planes, field),
                                          getattr(merged.planes, field))

    def test_idempotent_random_layouts(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n_cells = rng.integers(2, 7)
            patches = []
            for _ in range(n_cells):
                cell = rng.integers(0, 3, size=3).astype(float)
                normal = rng.normal(size=3)
                center = cell + 0.5
                patches.append(plane_patch(rng, normal, center, 0.38, 80, noise=0.002))
            pts = np.vstack(patches)
            index = vm.build_adaptive(pts, vm.VoxelParams(min_points=5))
            once = vm.merge_neighbors(index, math.radians(8.0), 1.5)
            twice = vm.merge_neighbors(once, math.radians(8.0), 1.5)
            assert len(once.planes) == len(twice.planes)
            np.testing.assert_allclose(once.planes.normals, twice.planes.normals,
                                       atol=1e-12)
            np.testing.assert_allclose(once.planes.centroids,
                                       twice.planes.centroids, atol=1e-12)
            np.testing.assert_array_equal(once.planes.counts, twice.planes.counts)


def associate_one(point, index):
    """The plane id associate_batch gives a single point, or None."""
    ids = vm.associate_batch(np.reshape(point, (1, 3)), index)
    return int(ids[0]) if ids[0] >= 0 else None


class TestAssociate:
    def _walls_index(self, rng):
        floor = plane_patch(rng, [0, 0, 1], [2.0, 2.0, 0.5], 1.9, 4000)
        wall = plane_patch(rng, [1, 0, 0], [0.5, 2.0, 1.5], 1.4, 3000)
        pts = np.vstack([floor, wall])
        return pts, vm.build_adaptive(pts, vm.VoxelParams(max_depth=2))

    def test_point_in_planar_root(self):
        rng = np.random.default_rng(13)
        pts, index = self._walls_index(rng)
        plane = associate_one([2.2, 2.2, 0.52], index)
        assert plane is not None
        np.testing.assert_allclose(np.abs(index.planes.normals[plane]), [0, 0, 1],
                                   atol=1e-6)

    def test_point_in_empty_space(self):
        rng = np.random.default_rng(14)
        _, index = self._walls_index(rng)
        assert associate_one([20.0, 20.0, 20.0], index) is None

    def test_subdivided_cell_resolves_to_child(self):
        rng = np.random.default_rng(16)
        # two perpendicular patches inside one root cell force subdivision
        a = plane_patch(rng, [0, 0, 1], [0.5, 0.5, 0.5], 0.49, 600)
        b = plane_patch(rng, [1, 0, 0], [0.5, 0.5, 0.5], 0.49, 600)
        pts = np.clip(np.vstack([a, b]), 0.001, 0.999)
        index = vm.build_adaptive(pts, vm.VoxelParams(max_depth=2, min_points=5))
        query = np.array([0.2, 0.2, 0.505])
        plane = associate_one(query, index)
        if plane is not None:
            # brute-force containment oracle: best plane among cells containing query
            candidates = []
            nodes = octree_nodes(index)
            for depth in range(index.params.max_depth + 1):
                edge = index.edge_length(depth)
                key = (depth,) + tuple(np.floor(query / edge).astype(int))
                node = nodes.get(key)
                if node and node[0] == PLANAR:
                    candidates.append(index.leaf_to_plane[node[1]])
            assert candidates and plane == candidates[0]

    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        pts, index = self._walls_index(rng)
        queries = rng.uniform(0, 4, size=(200, 3))
        ids = vm.associate_batch(queries, index)
        for q, i in zip(queries, ids):
            single = associate_one(q, index)
            if i < 0:
                assert single is None
            else:
                assert single == i


    def test_batch_matches_node_walk(self):
        """associate_batch against a per-point walk down the decoded
        octree: the plane of the first planar cell on the way, with no
        distance gate."""
        rng = np.random.default_rng(18)
        floor = plane_patch(rng, [0, 0, 1], [0.0, 0.0, -0.5], 1.9, 3000)
        wall = plane_patch(rng, [1, 0, 0], [-1.5, 0.0, 0.5], 1.4, 2000)
        tilted = plane_patch(rng, [1, 1, 1], [0.7, 0.7, 0.3], 0.6, 1500, 0.002)
        index = vm.build_adaptive(np.vstack([floor, wall, tilted]),
                                  vm.VoxelParams(max_depth=3, min_points=8))
        index = vm.merge_neighbors(index, math.radians(5.0), 0.5)
        nodes = octree_nodes(index)
        statuses = {status for status, _ in nodes.values()}
        assert statuses == {PLANAR, SUBDIVIDED, DISCARDED}
        # cells at negative coordinates, and queries outside every node box:
        # beyond the map on one axis only, on all axes, and far away
        roots = np.array([cell for depth, *cell in nodes if depth == 0])
        lo = roots.min(axis=0) * index.params.l_parent
        hi = (roots.max(axis=0) + 1) * index.params.l_parent
        beside = rng.uniform(lo, hi, size=(300, 3))
        axis = rng.integers(0, 3, 300)
        side = rng.integers(0, 2, 300).astype(bool)
        beside[np.arange(300), axis] = np.where(
            side, hi[axis] + rng.uniform(0.0, 3.0, 300),
            lo[axis] - rng.uniform(1e-9, 3.0, 300))
        queries = np.vstack([rng.uniform(-2.5, 2.5, size=(3000, 3)),
                             rng.uniform(-3.0, 0.0, size=(300, 3)),
                             floor[:300] + rng.normal(0, 0.05, (300, 3)),
                             beside,
                             rng.uniform(-1e6, 1e6, size=(100, 3)),
                             lo - 1e-9, hi, lo + (hi - lo) * [1, 0, 0]])
        expected = np.full(len(queries), -1)
        for i, q in enumerate(queries):
            for depth in range(index.params.max_depth + 1):
                cell = np.floor(q / index.edge_length(depth)).astype(int)
                node = nodes.get((depth, *map(int, cell)))
                if node is None or node[0] == DISCARDED:
                    break
                if node[0] == PLANAR:
                    expected[i] = index.leaf_to_plane[node[1]]
                    break
        assert np.count_nonzero(expected >= 0) > 300
        np.testing.assert_array_equal(
            vm.associate_batch(queries, index), expected)


def reference_classify(points, params):
    """The recursive per-cell eigh classifier that `build_adaptive` replaced:
    (nodes {key: status}, leaves [(key, normal, centroid, evals, point
    indices)])."""
    nodes, leaves = {}, []

    def classify(idx, depth, coords):
        key = (depth,) + coords
        if len(idx) < params.min_points:
            nodes[key] = DISCARDED
            return
        normal, centroid, evals = eigh_plane(points[idx])
        if evals[1] < COLLINEAR_EPS:
            nodes[key] = DISCARDED
            return
        max_dev = np.max(np.abs((points[idx] - centroid) @ normal))
        gate = max(MAX_DEV_FLOOR, MAX_DEV_RATIO * math.sqrt(evals[1] + evals[2]))
        if eta_of(evals) < ETA_MAX and max_dev <= gate:
            nodes[key] = PLANAR
            leaves.append((key, normal, centroid, evals, idx))
            return
        if depth >= params.max_depth:
            nodes[key] = DISCARDED
            return
        nodes[key] = SUBDIVIDED
        child = np.floor(points[idx] / (params.l_parent / 2 ** (depth + 1))
                         ).astype(np.int64)
        for c in sorted(set(map(tuple, child.tolist()))):
            classify(idx[np.all(child == c, axis=1)], depth + 1, c)

    roots = np.floor(points / params.l_parent).astype(np.int64)
    for c in sorted(set(map(tuple, roots.tolist()))):
        classify(np.flatnonzero(np.all(roots == c, axis=1)), 0, c)
    return nodes, leaves


def reference_merge(points, params, leaves, tau_theta, tau_d):
    """The per-group eigh refit of merge_neighbors over reference leaves:
    {frozenset of voxel keys: (normal, evals)} of every final plane."""
    n = len(leaves)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def box(key):
        scale = 2 ** (params.max_depth - key[0])
        lo = np.array(key[1:]) * scale
        return lo, lo + scale

    for i in range(n):
        lo_i, hi_i = box(leaves[i][0])
        for j in range(i + 1, n):
            lo_j, hi_j = box(leaves[j][0])
            touch = (hi_i == lo_j) | (hi_j == lo_i)
            overlap = (lo_i < hi_j) & (lo_j < hi_i)
            if (touch & ~overlap).sum() != 1 or not (touch | overlap).all():
                continue
            cos_t = min(1.0, abs(float(leaves[i][1] @ leaves[j][1])))
            dist = np.linalg.norm(leaves[i][2] - leaves[j][2])
            if math.acos(cos_t) < tau_theta and dist < tau_d:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    planes = {}
    for members in groups.values():
        if len(members) > 1:
            idx = np.concatenate([leaves[m][4] for m in members])
            normal, centroid, evals = eigh_plane(points[idx])
            if all(np.mean(((points[leaves[m][4]] - centroid) @ normal) ** 2)
                   <= 4.0 * leaves[m][3][0] + 1e-12 for m in members):
                planes[frozenset(leaves[m][0] for m in members)] = (normal, evals)
                continue
        for m in members:
            planes[frozenset([leaves[m][0]])] = (leaves[m][1], leaves[m][3])
    return planes


def plane_cells(index):
    """Each row of index.planes as the frozenset of its leaves' (depth, ix,
    iy, iz) keys."""
    cells = [set() for _ in range(len(index.planes))]
    for key, plane in zip(index.leaf_keys.tolist(), index.leaf_to_plane):
        cells[plane].add(tuple(key))
    return [frozenset(c) for c in cells]


def assert_same_planes(index, reference):
    """index.planes has the reference's voxel-key sets, and its normals and
    eigenvalues are the eigh reference's; every plane's count is its
    leaves'."""
    planes = index.planes
    got = {keys: p for p, keys in enumerate(plane_cells(index))}
    assert len(got) == len(planes) and set(got) == set(reference)
    for keys, (normal, evals) in reference.items():
        p = got[keys]
        assert abs(float(planes.normals[p] @ normal)) >= 1.0 - 1e-12
        np.testing.assert_allclose(planes.eigenvalues[p], evals, rtol=0,
                                   atol=1e-12 * evals[2])
    np.testing.assert_array_equal(
        np.bincount(index.leaf_to_plane, index.leaf_planes.counts, len(planes)),
        planes.counts)


def assert_matches_reference(points, params, tau_theta, tau_d):
    nodes, leaves = reference_classify(points, params)
    index = vm.build_adaptive(points, params)
    decoded = octree_nodes(index)
    assert {k: s for k, (s, _) in decoded.items()} == nodes
    assert {leaf: k for k, (_, leaf) in decoded.items() if leaf is not None} == \
        {leaf: tuple(k) for leaf, k in enumerate(index.leaf_keys.tolist())}
    assert_same_planes(index, {
        frozenset([key]): (normal, evals) for key, normal, _, evals, _ in leaves})
    merged = vm.merge_neighbors(index, tau_theta, tau_d)
    assert_same_planes(merged,
                       reference_merge(points, params, leaves, tau_theta, tau_d))


class TestRecursiveReference:
    """build_adaptive and merge_neighbors against the recursive eigh
    classifier they replaced: same cells, statuses and planes."""

    def test_random_layouts(self):
        # criterion 7's layouts
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_cells = rng.integers(2, 6)
            pts = np.vstack([plane_patch(rng, rng.normal(size=3),
                                         rng.integers(0, 3, size=3) + 0.5,
                                         0.38, 60, noise=0.002)
                             for _ in range(n_cells)])
            assert_matches_reference(pts, vm.VoxelParams(min_points=5),
                                     math.radians(8.0), 1.5)

    def test_room_maps(self, room_calib_setup):
        _, index, _ = room_calib_setup
        rng = np.random.default_rng(20)
        noisy = index.points + rng.normal(0.0, 0.01, index.points.shape)
        for pts in (index.points, noisy):
            assert_matches_reference(pts, vm.VoxelParams(), math.radians(5.0), 0.5)


FACES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def reference_face_pairs(index):
    """The per-leaf walk up the decoded octree that the key-table walk of
    `_face_neighbor_pairs` replaced: for each face of a leaf, the cell
    across it at the leaf's depth, then that cell's ancestors, are looked up
    in the octree's nodes; the first node found decides, and a PLANAR one is
    a neighbour."""
    nodes = octree_nodes(index)
    pairs = set()
    for i, (depth, *cell) in enumerate(index.leaf_keys.tolist()):
        for face in FACES:
            nbr = [c + f for c, f in zip(cell, face)]
            for d in range(depth, -1, -1):
                node = nodes.get((d, *nbr))
                if node is not None:
                    status, j = node
                    if status == PLANAR:
                        pairs.add((min(i, j), max(i, j)))
                    break
                nbr = [c >> 1 for c in nbr]
    return np.array(sorted(pairs), dtype=int).reshape(-1, 2)


class TestFaceNeighborPairs:
    """The key-table walk against the per-leaf node walk."""

    def test_room_map(self, room_calib_setup):
        _, index, _ = room_calib_setup
        expected = reference_face_pairs(index)
        assert len(expected) > 500
        assert len(set(index.leaf_keys[:, 0].tolist())) > 1
        np.testing.assert_array_equal(vm._face_neighbor_pairs(index), expected)

    def test_random_mixed_depth_layouts(self):
        rng = np.random.default_rng(21)
        depths, n_pairs = set(), 0
        for _ in range(60):
            pts = np.vstack([plane_patch(rng, rng.normal(size=3),
                                         rng.uniform(-2.0, 2.0, size=3),
                                         rng.uniform(0.2, 1.5), 400, noise=0.002)
                             for _ in range(rng.integers(1, 6))])
            index = vm.build_adaptive(pts, vm.VoxelParams(min_points=5))
            expected = reference_face_pairs(index)
            np.testing.assert_array_equal(vm._face_neighbor_pairs(index), expected)
            depths.update(index.leaf_keys[:, 0].tolist())
            n_pairs += len(expected)
        assert depths == {0, 1, 2, 3} and n_pairs > 100

    def test_empty_map(self):
        index = vm.build_adaptive(np.zeros((0, 3)))
        assert vm._face_neighbor_pairs(index).shape == (0, 2)
