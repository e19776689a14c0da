"""The closed-form plane-fit kernel against numpy's general eigensolver,
and the one plane test."""

import ast
from pathlib import Path

import numpy as np

import lidarcalib
from lidarcalib.ptplane import (MAX_DEV_FLOOR, MAX_DEV_RATIO, fit_groups,
                                fit_planes, plane_gate)

from test_geometry import random_pose


def eigh_reference(nbrs):
    """Centroids, ascending covariance eigenvalues and smallest eigenvectors
    by np.linalg.eigh."""
    centroid = nbrs.mean(axis=1)
    centered = nbrs - centroid[:, None, :]
    cov = np.einsum("mki,mkj->mij", centered, centered) / nbrs.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    return centroid, evals, evecs[:, :, 0]


def rotated_sets(rng, count, k, scales, offset=5.0):
    """count sets of k points: Gaussian with per-axis scales, then a random
    rotation and an offset up to `offset` m."""
    out = np.empty((count, k, 3))
    for m in range(count):
        pose = random_pose(rng)
        local = rng.normal(size=(k, 3)) * scales
        out[m] = local @ pose.rotation.T + rng.uniform(-offset, offset, 3)
    return out


def assert_unit(normals):
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0,
                               atol=1e-15)


class TestFitPlanes:
    def test_anisotropic_sets_match_eigh(self):
        rng = np.random.default_rng(5)
        for k in (5, 6, 12):
            nbrs = rotated_sets(rng, 400, k, np.array([1.0, 0.3, 0.05]))
            centroid, evals, normal = fit_planes(nbrs)
            ref_c, ref_e, ref_n = eigh_reference(nbrs)
            np.testing.assert_allclose(centroid, ref_c, rtol=0, atol=1e-14)
            tol = 1e-12 * ref_e[:, 2:]
            assert np.all(np.abs(evals - ref_e) <= tol)
            assert np.all(evals[:, 0] <= evals[:, 1])
            assert np.all(evals[:, 1] <= evals[:, 2])
            assert_unit(normal)
            dots = np.abs(np.einsum("mi,mi->m", normal, ref_n))
            assert np.all(dots >= 1.0 - 1e-12)

    def test_strips_and_disks_match_eigh(self):
        # one eigenvalue pair nearly equal: a thin strip (the two smallest)
        # or a disk (the two largest); the isolated eigenvalue decides
        rng = np.random.default_rng(6)
        for scales in ([1.0, 1e-3, 1e-6], [1.0, 1.0 + 1e-9, 0.01]):
            nbrs = rotated_sets(rng, 300, 8, np.array(scales))
            _, evals, normal = fit_planes(nbrs)
            _, ref_e, ref_n = eigh_reference(nbrs)
            assert np.all(np.abs(evals - ref_e) <= 1e-12 * ref_e[:, 2:])
            gap = (ref_e[:, 1] - ref_e[:, 0]) / ref_e[:, 2]
            dots = np.abs(np.einsum("mi,mi->m", normal, ref_n))
            # the normal is determined to about rounding / relative gap
            assert np.all(1.0 - dots <= 1e-12 + (1e-13 / gap) ** 2)

    def test_exactly_planar_sets(self):
        rng = np.random.default_rng(7)
        flat = np.concatenate([rng.uniform(-2.0, 2.0, (500, 5, 2)),
                               np.zeros((500, 5, 1))], axis=2)
        _, evals, normal = fit_planes(flat)
        assert np.all(np.abs(evals[:, 0]) <= 1e-15)
        np.testing.assert_allclose(np.abs(normal[:, 2]), 1.0, rtol=0, atol=1e-15)

    def test_collinear_and_coincident_sets(self):
        rng = np.random.default_rng(8)
        direction = rng.normal(size=(200, 1, 3))
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        steps = rng.uniform(-1.0, 1.0, (200, 5, 1))
        lines = rng.uniform(-5.0, 5.0, (200, 1, 3)) + steps * direction
        axis_lines = np.zeros((3, 4, 3))
        for a in range(3):
            axis_lines[a, :, a] = [-1.5, -0.5, 0.5, 1.5]
        same = np.repeat(rng.normal(size=(50, 1, 3)), 6, axis=1)

        _, evals, normal = fit_planes(lines)
        assert_unit(normal)
        assert np.all(np.abs(np.einsum("mi,mi->m", normal, direction[:, 0])) <= 1e-12)
        assert np.all(evals[:, :2] <= 1e-12 * evals[:, 2:])

        _, evals, normal = fit_planes(axis_lines)
        assert_unit(normal)
        np.testing.assert_array_equal(np.diag(normal), 0.0)
        np.testing.assert_array_equal(evals[:, :2], 0.0)

        centroid, evals, normal = fit_planes(same)
        assert_unit(normal)
        # the mean of equal values may round, leaving a 1e-16 m spread
        np.testing.assert_allclose(evals, 0.0, rtol=0, atol=1e-30)
        np.testing.assert_allclose(centroid, same[:, 0], rtol=0, atol=1e-15)

    def test_point_order_does_not_matter(self):
        rng = np.random.default_rng(9)
        nbrs = rotated_sets(rng, 300, 6, np.array([1.0, 0.4, 0.02]))
        shuffled = nbrs[:, rng.permutation(6)]
        c1, e1, n1 = fit_planes(nbrs)
        c2, e2, n2 = fit_planes(shuffled)
        np.testing.assert_allclose(c1, c2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(e1, e2, rtol=0, atol=1e-14 * e1[:, 2:].max())
        dots = np.abs(np.einsum("mi,mi->m", n1, n2))
        assert np.all(dots >= 1.0 - 1e-12)


class TestFitGroups:
    def test_equals_fit_planes_on_equal_groups(self):
        rng = np.random.default_rng(10)
        nbrs = rotated_sets(rng, 200, 7, np.array([1.0, 0.3, 0.05]))
        labels = np.repeat(np.arange(200), 7)
        c1, e1, n1 = fit_planes(nbrs)
        c2, e2, n2 = fit_groups(nbrs.reshape(-1, 3), labels, 200)
        np.testing.assert_allclose(c1, c2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(e1, e2, rtol=0, atol=1e-14 * e1[:, 2:].max())
        assert np.all(np.abs(np.einsum("mi,mi->m", n1, n2)) >= 1.0 - 1e-12)

    def test_unequal_groups_in_any_point_order(self):
        rng = np.random.default_rng(11)
        sets = [rotated_sets(rng, 1, k, np.array([1.0, 0.5, 0.01]))[0]
                for k in (3, 10, 57, 4)]
        points = np.vstack(sets)
        labels = np.repeat(np.arange(4), [len(s) for s in sets])
        perm = rng.permutation(len(points))
        centroid, evals, normal = fit_groups(points[perm], labels[perm], 4)
        for m, pts in enumerate(sets):
            ref_c, ref_e, ref_n = eigh_reference(pts[None])
            np.testing.assert_allclose(centroid[m], ref_c[0], rtol=0, atol=1e-14)
            assert np.all(np.abs(evals[m] - ref_e[0]) <= 1e-12 * ref_e[0, 2])
            assert abs(normal[m] @ ref_n[0]) >= 1.0 - 1e-12


class TestPlaneGate:
    # ascending eigenvalues: a plane, a thick slab (eta 0.2) and a line
    EVALS = np.array([[1e-6, 0.04, 0.09], [0.026, 0.04, 0.09], [0.0, 0.0, 0.09]])

    def test_each_condition_rejects(self):
        flat = np.zeros(3)
        np.testing.assert_array_equal(
            plane_gate(self.EVALS, flat, MAX_DEV_FLOOR), [True, False, False])

    def test_flatness_gate_takes_the_larger_floor(self):
        # MAX_DEV_RATIO * sqrt(0.13) = 0.108
        gate = MAX_DEV_RATIO * np.sqrt(0.13)
        plane = self.EVALS[:1]
        assert plane_gate(plane, np.array([gate]), MAX_DEV_FLOOR)[0]
        assert not plane_gate(plane, np.array([1.01 * gate]), MAX_DEV_FLOOR)[0]
        assert plane_gate(plane, np.array([0.2]), 0.2)[0]
        assert plane_gate(plane, np.array([1e6]), np.inf)[0]


def test_eigh_only_in_ptplane():
    """Plane fits have one kernel: no other package module calls a general
    symmetric eigensolver by name."""
    package = Path(lidarcalib.__file__).parent
    for path in package.glob("*.py"):
        if path.name == "ptplane.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            assert "eigh" not in names, f"{path.name}:{node.lineno}"
