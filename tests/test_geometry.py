import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcalib import geometry as geo
from lidarcalib.errors import AngleNearPi
from lidarcalib.geometry import EulerZYX, Pose, Twist


def random_pose(rng, max_angle=3.0, max_trans=10.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    rot = geo.exp_so3(axis * angle)
    return Pose(rot, rng.uniform(-max_trans, max_trans, size=3))


class TestSkew:
    def test_zero(self):
        assert np.array_equal(geo.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_unit_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(geo.skew([0.0, 0.0, 1.0]), expected)

    def test_cross_product_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, w = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(geo.skew(v) @ w, np.cross(v, w), atol=1e-12)

    def test_antisymmetric(self):
        m = geo.skew([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(m, -m.T)


def _series_exp_se3(vec, terms=20):
    """Truncated matrix-power series of the 4x4 twist matrix."""
    xi_hat = np.zeros((4, 4))
    xi_hat[:3, :3] = geo.skew(vec[:3])
    xi_hat[:3, 3] = vec[3:]
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms + 1):
        term = term @ xi_hat / k
        out = out + term
    return out


class TestExpLog:
    def test_exp_zero_is_identity(self):
        p = geo.exp_se3(Twist.zero())
        np.testing.assert_allclose(p.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(p.translation, np.zeros(3), atol=1e-15)

    def test_pure_rotation_about_z(self):
        p = geo.exp_se3(Twist(np.array([0.0, 0.0, math.pi / 2]), np.zeros(3)))
        np.testing.assert_allclose(p.rotation, geo.rot_z(math.pi / 2), atol=1e-12)
        np.testing.assert_allclose(p.translation, np.zeros(3), atol=1e-15)

    def test_matches_truncated_series(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vec = rng.uniform(-1.5, 1.5, size=6)
            p = geo.exp_se3(vec)
            np.testing.assert_allclose(p.as_matrix(), _series_exp_se3(vec), atol=1e-9)

    def test_log_identity(self):
        xi = geo.log_se3(Pose.identity())
        np.testing.assert_allclose(xi.as_vector(), np.zeros(6), atol=1e-15)

    def test_log_round_trip(self):
        xi = Twist(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        back = geo.log_se3(geo.exp_se3(xi))
        np.testing.assert_allclose(back.as_vector(), xi.as_vector(), atol=1e-9)

    def test_log_near_pi_axis_extraction(self):
        angle = math.pi - 1e-3
        p = Pose(geo.exp_so3(np.array([angle, 0.0, 0.0])), np.zeros(3))
        xi = geo.log_se3(p)
        np.testing.assert_allclose(xi.rot, [angle, 0.0, 0.0], atol=1e-9)
        # axis-angle oracle: rotation eigenvector for eigenvalue 1
        vals, vecs = np.linalg.eig(p.rotation)
        axis = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        axis /= np.linalg.norm(axis)
        alignment = abs(np.dot(xi.rot / angle, axis))
        assert abs(alignment - 1.0) < 1e-9

    def test_log_rejects_angle_at_pi(self):
        p = Pose(geo.exp_so3(np.array([math.pi - 1e-9, 0.0, 0.0])), np.zeros(3))
        with pytest.raises(AngleNearPi):
            geo.log_se3(p)

    def test_small_angle_stability(self):
        vec = np.array([1e-9, -2e-9, 1e-9, 0.5, -0.25, 0.125])
        p = geo.exp_se3(vec)
        back = geo.log_se3(p).as_vector()
        np.testing.assert_allclose(back, vec, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.7, 1.7), min_size=6, max_size=6))
    def test_round_trip_property(self, vals):
        vec = np.array(vals)
        angle = np.linalg.norm(vec[:3])
        if angle >= math.pi - 1e-6:
            return
        back = geo.log_se3(geo.exp_se3(vec)).as_vector()
        np.testing.assert_allclose(back, vec, atol=1e-9)


class TestComposeApply:
    def test_compose_identity(self):
        rng = np.random.default_rng(2)
        b = random_pose(rng)
        out = geo.compose(Pose.identity(), b)
        np.testing.assert_allclose(out.rotation, b.rotation, atol=1e-15)
        np.testing.assert_allclose(out.translation, b.translation, atol=1e-15)

    def test_apply_translation_only(self):
        p = Pose(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(geo.apply(p, np.zeros(3)), [1.0, 2.0, 3.0])

    def test_chain_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(3)
        poses = [random_pose(rng) for _ in range(5)]
        chained = poses[0]
        mat = poses[0].as_matrix()
        for p in poses[1:]:
            chained = geo.compose(chained, p)
            mat = mat @ p.as_matrix()
        np.testing.assert_allclose(chained.as_matrix(), mat, atol=1e-9)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_pose(rng)
            out = geo.compose(p, geo.inverse(p))
            np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-9)

    def test_compose_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = geo.compose(geo.compose(a, b), c)
            right = geo.compose(a, geo.compose(b, c))
            np.testing.assert_allclose(left.as_matrix(), right.as_matrix(), atol=1e-9)

    def test_apply_batch_matches_single(self):
        rng = np.random.default_rng(6)
        p = random_pose(rng)
        pts = rng.normal(size=(10, 3))
        batch = geo.apply(p, pts)
        for i in range(10):
            np.testing.assert_allclose(batch[i], geo.apply(p, pts[i]), atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3500, 20000])
    def test_apply_equals_broadcast_add(self, n):
        rng = np.random.default_rng(n)
        p = random_pose(rng)
        pts = rng.normal(size=(n, 3)) * 10.0
        expected = pts @ p.rotation.T + p.translation
        assert np.array_equal(geo.apply(p, pts), expected)
        if n:
            assert np.array_equal(geo.apply(p, pts[0]),
                                  pts[0] @ p.rotation.T + p.translation)


class TestEuler:
    def test_zero_angles_identity(self):
        p = geo.euler_zyx_to_pose(EulerZYX(0.0, 0.0, 0.0))
        np.testing.assert_allclose(p.rotation, np.eye(3), atol=1e-15)

    def test_rig_preset_angles(self):
        # roll=-90 deg, pitch=0, yaw=180 deg
        e = EulerZYX(math.radians(-90.0), 0.0, math.radians(180.0))
        p = geo.euler_zyx_to_pose(e)
        expected = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        np.testing.assert_allclose(p.rotation, expected, atol=1e-12)

    def test_matches_elementary_product(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r, pch, y = rng.uniform(-1.4, 1.4, size=3)
            p = geo.euler_zyx_to_pose(EulerZYX(r, pch, y))
            oracle = geo.rot_z(y) @ geo.rot_y(pch) @ geo.rot_x(r)
            np.testing.assert_allclose(p.rotation, oracle, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r, y = rng.uniform(-math.pi + 0.01, math.pi - 0.01, size=2)
            pch = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            pose = geo.euler_zyx_to_pose(EulerZYX(r, pch, y))
            e, locked = geo.pose_to_euler_zyx(pose)
            assert not locked
            np.testing.assert_allclose([e.roll, e.pitch, e.yaw], [r, pch, y], atol=1e-9)

    def test_gimbal_lock_flag(self):
        pose = geo.euler_zyx_to_pose(EulerZYX(0.3, math.pi / 2, 0.1))
        _, locked = geo.pose_to_euler_zyx(pose)
        assert locked

    def test_output_satisfies_pose_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            angles = rng.uniform(-math.pi, math.pi, size=3)
            p = geo.euler_zyx_to_pose(EulerZYX(*angles))
            assert np.linalg.norm(p.rotation.T @ p.rotation - np.eye(3)) < 1e-9
            assert abs(np.linalg.det(p.rotation) - 1.0) < 1e-9


class TestErrorMetrics:
    def test_zero_errors_for_equal_poses(self):
        p = Pose(geo.rot_z(0.5), [1.0, 2.0, 3.0])
        assert geo.translation_error(p, p) == 0.0
        assert geo.rotation_error(p, p) == 0.0

    def test_unit_translation(self):
        est = Pose(np.eye(3), [1.0, 0.0, 0.0])
        assert geo.translation_error(est, Pose.identity()) == pytest.approx(1.0)

    def test_three_four_five(self):
        est = Pose(np.eye(3), [0.003, 0.004, 0.0])
        assert geo.translation_error(est, Pose.identity()) == pytest.approx(0.005)

    def test_quarter_turn(self):
        est = Pose(geo.rot_z(math.pi / 2), np.zeros(3))
        assert geo.rotation_error(est, Pose.identity()) == pytest.approx(math.pi / 2)

    def test_injected_angle_recovered(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            theta = rng.uniform(1e-6, math.pi - 1e-6)
            gt = random_pose(rng)
            est = Pose(geo.rot_x(theta) @ gt.rotation, gt.translation)
            assert geo.rotation_error(est, gt) == pytest.approx(theta, abs=1e-9)

    def test_tiny_angle_resolved(self):
        # an arccos of the trace reads 0.0 here: the trace rounds to 3
        for theta in (1e-9, 3e-12):
            est = Pose(geo.rot_x(theta), np.zeros(3))
            assert geo.rotation_error(est, Pose.identity()) == pytest.approx(
                theta, rel=1e-6)

    def test_rotation_error_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b = random_pose(rng), random_pose(rng)
            assert geo.rotation_error(a, b) == pytest.approx(geo.rotation_error(b, a), abs=1e-12)

    def test_rotation_error_left_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a, b = random_pose(rng), random_pose(rng)
            q = Pose(random_pose(rng).rotation, np.zeros(3))
            qa = geo.compose(q, a)
            qb = geo.compose(q, b)
            assert geo.rotation_error(qa, qb) == pytest.approx(
                geo.rotation_error(a, b), abs=1e-9)


class TestQuaternion:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rot = random_pose(rng).rotation
            back = geo.quat_to_rot(geo.rot_to_quat(rot))
            np.testing.assert_allclose(back, rot, atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(geo.rot_to_quat(np.eye(3)), [0, 0, 0, 1], atol=1e-15)


class TestScaledExp:
    def test_matches_scalar_exp(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            vec = rng.uniform(-1.0, 1.0, size=6)
            scales = np.concatenate([[0.0, 1.0, -0.5], rng.uniform(-2, 2, size=7)])
            rots, trans = geo.exp_se3_scaled(vec, scales)
            for i, s in enumerate(scales):
                ref = geo.exp_se3(vec * s)
                np.testing.assert_allclose(rots[i], ref.rotation, atol=1e-12)
                np.testing.assert_allclose(trans[i], ref.translation, atol=1e-12)

    def test_zero_rotation_twist(self):
        rots, trans = geo.exp_se3_scaled(np.array([0, 0, 0, 1.0, 2.0, 3.0]), np.array([0.25, 1.0]))
        np.testing.assert_allclose(rots[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(trans[0], [0.25, 0.5, 0.75], atol=1e-15)

    def test_point_form_matches_matrices(self):
        # twists with ordinary, series-range (|phi| < 1e-4) and zero rotation
        rng = np.random.default_rng(16)
        points = rng.uniform(-20.0, 20.0, size=(500, 3))
        scales = rng.uniform(0.0, 1.0, size=500)
        for rot_scale in (1.0, 1e-5, 0.0):
            vec = np.concatenate([rng.uniform(-1.0, 1.0, 3) * rot_scale,
                                  rng.uniform(-1.0, 1.0, 3)])
            rots, trans = geo.exp_se3_scaled(vec, scales)
            expected = np.einsum("kij,kj->ki", rots, points) + trans
            moved = geo.apply_scaled_motion(geo.scaled_motion(vec, scales), points)
            np.testing.assert_allclose(moved, expected, rtol=0, atol=1e-13)

    def test_interpolate_pose_endpoints(self):
        rng = np.random.default_rng(15)
        a, b = random_pose(rng), random_pose(rng)
        mid = geo.interpolate_pose(a, b, 0.0)
        np.testing.assert_allclose(mid.as_matrix(), a.as_matrix(), atol=1e-12)
        end = geo.interpolate_pose(a, b, 1.0)
        np.testing.assert_allclose(end.as_matrix(), b.as_matrix(), atol=1e-9)


class TestPoseValidation:
    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad = bad + 1e-6
        with pytest.raises(ValueError):
            Pose(bad, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_non_finite_entries(self, value):
        rot = np.eye(3)
        rot[0, 0] = value
        with pytest.raises(ValueError, match="rotation"):
            Pose(rot, np.zeros(3))
        with pytest.raises(ValueError, match="rotation"):
            Pose(np.full((3, 3), value), np.zeros(3))
        with pytest.raises(ValueError, match="translation"):
            Pose(np.eye(3), np.array([0.0, value, 0.0]))
