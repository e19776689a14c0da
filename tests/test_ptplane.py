"""The closed-form plane-fit kernel against numpy's general eigensolver,
the one plane test, and the cost models and solver against a per-point
reference."""

import ast
from pathlib import Path

import numpy as np
import pytest

import lidarcalib
from lidarcalib import geometry as geo
from lidarcalib import ptplane
from lidarcalib.errors import Unobservable
from lidarcalib.geometry import Pose
from lidarcalib.ptplane import (MAX_DEV_FLOOR, MAX_DEV_RATIO, CostModel,
                                PlaneBatch, cluster_sq_distance, fit_clusters,
                                fit_groups, fit_planes, lm_refine, plane_gate,
                                prior_residual)

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
        c2, e2, n2, _ = fit_groups(nbrs.reshape(-1, 3), labels, 200)
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
        centroid, evals, normal, moments = fit_groups(points[perm],
                                                      labels[perm], 4)
        for m, pts in enumerate(sets):
            ref_c, ref_e, ref_n = eigh_reference(pts[None])
            np.testing.assert_allclose(centroid[m], ref_c[0], rtol=0, atol=1e-14)
            assert np.all(np.abs(evals[m] - ref_e[0]) <= 1e-12 * ref_e[0, 2])
            assert abs(normal[m] @ ref_n[0]) >= 1.0 - 1e-12
            cov = np.cov(pts.T, bias=True)
            np.testing.assert_allclose(moments[m], cov[[0, 1, 2, 0, 0, 1],
                                                       [0, 1, 2, 1, 2, 2]],
                                       rtol=0, atol=1e-14)
            # a group's mean squared distance to its own plane is lambda1,
            # and to another plane the mean of its points'
            row = slice(m, m + 1)
            dist = cluster_sq_distance(centroid[row], moments[row], normal[row],
                                       centroid[row])
            assert abs(dist[0] - evals[m, 0]) <= 1e-12 * evals[m, 2]
            other = np.array([[0.6, 0.0, 0.8]]), np.array([[0.3, -1.0, 2.0]])
            dist = cluster_sq_distance(centroid[row], moments[row], *other)
            expected = np.mean(((pts - other[1]) @ other[0][0]) ** 2)
            assert abs(dist[0] - expected) <= 1e-12 * expected

    def test_clusters_sum_to_the_union_fit(self):
        """Unions fitted from their parts' clusters against `fit_groups`
        over the unions' points: a noisy plane near the origin, one about
        1e3 m away (the parallel-axis sum must not cancel there) and a
        zero-noise one."""
        rng = np.random.default_rng(12)
        unions = [patch + offset for patch, offset in (
            (rotated_sets(rng, 1, 400, np.array([1.0, 0.6, 0.01]))[0], 0.0),
            (rotated_sets(rng, 1, 400, np.array([1.0, 0.6, 0.01]))[0],
             [700.0, -500.0, 500.0]),
            (rotated_sets(rng, 1, 400, np.array([1.0, 0.6, 0.0]))[0], 3.0))]
        points = np.vstack(unions)
        union_of_point = np.repeat(np.arange(3), 400)
        # each union cut into parts of unequal sizes, as voxel leaves are
        starts = np.union1d(rng.choice(np.arange(5, 1195), 9, replace=False),
                            [0, 400, 800])
        part_of_point = np.searchsorted(starts, np.arange(1200), side="right") - 1
        mu, _, _, cov = fit_groups(points, part_of_point, len(starts))
        sizes = np.diff(np.r_[starts, 1200])
        c1, e1, n1, m1 = fit_clusters(sizes, mu, cov, union_of_point[starts], 3)
        c2, e2, n2, m2 = fit_groups(points, union_of_point, 3)
        for u in range(3):
            assert abs(n1[u] @ n2[u]) >= 1.0 - 1e-12
            assert np.all(np.abs(e1[u] - e2[u]) <= 1e-12 * e2[u, 2])
            np.testing.assert_allclose(m1[u], m2[u], rtol=0, atol=1e-12 * e2[u, 2])
            np.testing.assert_allclose(c1[u], c2[u], rtol=1e-14, atol=1e-14)
        assert e2[2, 0] < 1e-14 * e2[2, 2]


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


class TestObservability:
    """`lm_refine` checks, before its first step, that the matches pin all
    six degrees of freedom."""

    @staticmethod
    def floor_batch(n):
        xy = np.random.default_rng(9).uniform(-2.0, 2.0, size=(n, 2))
        points = np.column_stack([xy, np.full(n, 0.01)])
        normals = np.tile([0.0, 0.0, 1.0], (n, 1))
        return PlaneBatch(points, normals, np.zeros((n, 3)), np.ones(n))

    def test_five_matches_are_unobservable(self):
        batch = self.floor_batch(40)
        corner = PlaneBatch(batch.points[:5], np.eye(3)[[0, 1, 2, 0, 1]],
                            np.zeros((5, 3)), np.ones(5))
        with pytest.raises(Unobservable, match="5 point-to-plane matches"):
            lm_refine(CostModel.of(corner, Pose.identity()))

    def test_single_plane_is_unobservable(self):
        # one plane leaves its two in-plane translations and the rotation
        # about its normal free, whatever the weights or a prior
        batch = self.floor_batch(40)
        model = CostModel.of(batch, Pose.identity())
        with pytest.raises(Unobservable, match="six degrees of freedom"):
            lm_refine(model)
        with pytest.raises(Unobservable):
            lm_refine(model, (Pose.identity(), 1e3))


def reference_jacobian(batch, pose):
    """Rows [p x u, u], u = R^T n, taken point by point."""
    u = batch.normals @ pose.rotation
    return np.column_stack([geo.cross(batch.points, u), u])


def reference_lm(batch, pose, prior=None):
    """The per-point solver: every step evaluates each match's residual and
    Jacobian row for J^T W J and J^T W r, and the per-point cost decides
    acceptance by the rule `lm_refine` keeps."""

    def evaluate(pose):
        r = batch.residuals(pose)
        cost = float(batch.weights @ (r * r))
        rho = None
        if prior is not None:
            rho = prior_residual(prior[0], pose)
            cost += prior[1] * float(rho @ rho)
        return cost, r, rho

    def assemble(pose, r, rho):
        jac = reference_jacobian(batch, pose)
        h = jac.T @ (batch.weights[:, None] * jac)
        g = jac.T @ (batch.weights * r)
        if prior is not None:
            h += prior[1] * np.eye(6)
            g += prior[1] * rho
        return h, g

    cost, r, rho = evaluate(pose)
    mu = ptplane.MU0
    for _ in range(ptplane.MAX_INNER):
        h, g = assemble(pose, r, rho)
        step = -np.linalg.solve(h + mu * np.eye(6), g)
        cand = geo.compose(pose, geo.exp_se3(step))
        cand_cost, cand_r, cand_rho = evaluate(cand)
        if cand_cost < cost:
            pose, cost, r, rho = cand, cand_cost, cand_r, cand_rho
            mu *= ptplane.MU_DOWN
        else:
            mu *= ptplane.MU_UP
        if np.max(np.abs(step)) < ptplane.INNER_TOL:
            break
    return pose


def offset(rng, max_trans, max_deg):
    """A random pose within max_trans (m) and max_deg of the identity."""
    axis = rng.normal(size=3)
    direction = rng.normal(size=3)
    xi = np.concatenate([
        axis / np.linalg.norm(axis) * np.radians(rng.uniform(0.0, max_deg)),
        direction / np.linalg.norm(direction) * rng.uniform(0.0, max_trans)])
    return geo.exp_se3(xi)


def random_batch(rng, n=80, truth=None, noise=0.01):
    """n matches with a random folded anchor. With `truth`, each point lies
    within `noise` of its plane under that pose, so the cost has a proper
    minimum near it; otherwise points and planes are unrelated."""
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    centroids = rng.uniform(-5.0, 5.0, size=(n, 3))
    anchor = random_pose(rng)
    points = rng.uniform(-5.0, 5.0, size=(n, 3))
    if truth is not None:
        world = geo.apply(anchor, geo.apply(truth, points))
        height = np.einsum("ij,ij->i", normals, world - centroids)
        world -= (height - rng.normal(0.0, noise, n))[:, None] * normals
        points = geo.apply(geo.inverse(truth),
                           geo.apply(geo.inverse(anchor), world))
    return PlaneBatch(points, normals, centroids,
                      rng.uniform(0.1, 2.0, size=n), anchor)


class TestCostModel:
    """A `CostModel` is its batch's cost, exactly: the same objective, sums
    and normal equations as the per-point evaluation, and `lm_refine` on it
    ends where the per-point solver does."""

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_lm_refine_matches_per_point_solver(self, with_prior):
        rng = np.random.default_rng(21 + with_prior)
        for _ in range(10):
            truth = random_pose(rng)
            batch = random_batch(rng, truth=truth)
            start = geo.compose(truth, offset(rng, 0.2, 10.0))
            prior = ((geo.compose(truth, offset(rng, 0.01, 0.5)), 30.0)
                     if with_prior else None)
            pose, trace = lm_refine(CostModel.of(batch, start), prior)
            ref = reference_lm(batch, start, prior)
            assert trace and any(entry["accepted"] for entry in trace)
            assert np.max(np.abs(pose.rotation - ref.rotation)) < 1e-9
            assert np.max(np.abs(pose.translation - ref.translation)) < 1e-9

    def test_objective_equals_batch_objective(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            batch = random_batch(rng)
            anchor = random_pose(rng)
            model = CostModel.of(batch, anchor)
            assert model.objective(anchor) == batch.objective(anchor)
            for _ in range(10):
                pose = geo.compose(anchor, offset(rng, 0.5, 30.0))
                assert model.objective(pose) == pytest.approx(
                    batch.objective(pose), rel=1e-12)

    def test_models_add_like_stacked_batches(self):
        rng = np.random.default_rng(23)
        first, second = random_batch(rng, 50), random_batch(rng, 70)
        anchor = random_pose(rng)
        stacked = PlaneBatch(*(np.concatenate([getattr(first, name),
                                               getattr(second, name)])
                               for name in ("points", "normals", "centroids",
                                            "weights")))
        total = CostModel.of(first, anchor) + CostModel.of(second, anchor)
        whole = CostModel.of(stacked, anchor)
        assert total.anchor is anchor
        assert total.count == whole.count == 120
        assert total.weight_sum == pytest.approx(whole.weight_sum, rel=1e-14)
        assert total.f0 == pytest.approx(whole.f0, rel=1e-12)
        for name in ("b", "q", "q0"):
            a, b = getattr(total, name), getattr(whole, name)
            np.testing.assert_allclose(a, b, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(b)))

    def test_models_at_different_anchors_do_not_add(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng)
        with pytest.raises(ValueError, match="anchors"):
            CostModel.of(batch, random_pose(rng)) + \
                CostModel.of(batch, random_pose(rng))

    def test_normal_equations_equal_per_point_sums(self):
        # D^T Q D and D^T (b + Q dx) against J^T W J and J^T W r, away
        # from the anchor too
        rng = np.random.default_rng(25)
        for _ in range(20):
            batch = random_batch(rng)
            anchor = random_pose(rng)
            model = CostModel.of(batch, anchor)
            for pose in (anchor, geo.compose(anchor, offset(rng, 0.5, 30.0))):
                jac = reference_jacobian(batch, pose)
                r = batch.residuals(pose)
                h, g = model.normal_equations(pose)
                ref_h = jac.T @ (batch.weights[:, None] * jac)
                ref_g = jac.T @ (batch.weights * r)
                np.testing.assert_allclose(h, ref_h, rtol=0.0,
                                           atol=1e-12 * np.max(np.abs(ref_h)))
                np.testing.assert_allclose(g, ref_g, rtol=0.0,
                                           atol=1e-11 * np.max(np.abs(ref_g)))

    def test_jacobian_is_the_solvers_twist_map(self):
        rng = np.random.default_rng(26)
        batch = random_batch(rng)
        pose = random_pose(rng)
        np.testing.assert_allclose(batch.jacobian(pose),
                                   reference_jacobian(batch, pose),
                                   rtol=0.0, atol=1e-12)
