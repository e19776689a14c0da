"""Rigid-body math kernel: SO(3)/SE(3) representations, exponential and
logarithm maps, and calibration error metrics.

A twist is a (6,) array ordered (rotation, translation), the block layout
of the optimizers' Jacobians.

All values are immutable after construction and every operation is a pure
function, so the kernel is safe to use from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AngleNearPi

# Below this angle (rad) closed-form coefficients switch to their series.
_SMALL_ANGLE = 1e-4
# log is refused for rotations within this margin of pi.
NEAR_PI_MARGIN = 1e-6

_ORTHO_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the skew-symmetric matrix with skew(v) @ w = v x w."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis by component products, broadcasting (3,)
    against (N, 3); cheaper than np.cross for the batched kernels."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        trans = np.asarray(self.translation, dtype=float).reshape(3)
        # negated comparisons, so that NaN and inf entries fail them too
        err = np.linalg.norm(rot.T @ rot - np.eye(3))
        if not err <= _ORTHO_TOL:
            raise ValueError(f"rotation not orthonormal (|R'R - I| = {err:.3e})")
        if not abs(np.linalg.det(rot) - 1.0) <= _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1")
        if not np.isfinite(trans).all():
            raise ValueError("translation not finite")
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def _rot_coeffs(theta: float) -> tuple[float, float, float]:
    """Rodrigues coefficients A = sin(t)/t, B = (1-cos t)/t^2, C = (t-sin t)/t^3."""
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = math.sin(theta) / theta
        # 1 - cos(t) = 2 sin^2(t/2) without cancellation: log_se3's
        # 1 - a / (2b) would otherwise amplify b's rounding near the switch.
        half = math.sin(0.5 * theta) / theta
        b = 2.0 * half * half
        c = (theta - math.sin(theta)) / (theta ** 3)
    return a, b, c


def exp_so3(omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    a, b, _ = _rot_coeffs(theta)
    k = skew(omega)
    return np.eye(3) + a * k + b * (k @ k)


def log_so3(rot: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix; raises AngleNearPi near pi."""
    rot = np.asarray(rot, dtype=float)
    cos_theta = min(1.0, max(-1.0, (np.trace(rot) - 1.0) / 2.0))
    theta = math.acos(cos_theta)
    if theta >= math.pi - NEAR_PI_MARGIN:
        raise AngleNearPi(f"rotation angle {theta:.9f} within {NEAR_PI_MARGIN} of pi")
    w = _vee(rot - rot.T) / 2.0  # = sin(theta) * axis
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return w * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)
    if theta > 2.9:
        # sin(theta)-based extraction loses precision near pi; recover the
        # axis from the symmetric part instead.
        one_minus_c = 1.0 - cos_theta
        diag = np.clip((np.diag(rot) - cos_theta) / one_minus_c, 0.0, None)
        k = int(np.argmax(diag))
        axis = np.zeros(3)
        axis[k] = math.sqrt(diag[k])
        for j in range(3):
            if j != k:
                axis[j] = (rot[k, j] + rot[j, k]) / (2.0 * one_minus_c * axis[k])
        axis /= np.linalg.norm(axis)
        if np.dot(axis, w) < 0.0:
            axis = -axis
        return theta * axis
    return w * (theta / math.sin(theta))


def exp_se3(xi: np.ndarray) -> Pose:
    """Matrix exponential of a twist; Rodrigues rotation, V-matrix translation."""
    vec = np.asarray(xi, dtype=float).reshape(6)
    omega, rho = vec[:3], vec[3:]
    theta = float(np.linalg.norm(omega))
    a, b, c = _rot_coeffs(theta)
    k = skew(omega)
    k2 = k @ k
    rot = np.eye(3) + a * k + b * k2
    v = np.eye(3) + b * k + c * k2
    return Pose(rot, v @ rho)


def log_se3(p: Pose) -> np.ndarray:
    """Inverse of exp_se3: the (6,) twist (rotation, translation). Raises
    AngleNearPi for rotations within 1e-6 of pi."""
    omega = log_so3(p.rotation)
    theta = float(np.linalg.norm(omega))
    k = skew(omega)
    k2 = k @ k
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        d = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        a, b, _ = _rot_coeffs(theta)
        d = (1.0 - a / (2.0 * b)) / (theta * theta)
    v_inv = np.eye(3) - 0.5 * k + d * k2
    return np.concatenate([omega, v_inv @ p.translation])


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    rt = a.rotation.T
    return Pose(rt, -rt @ a.translation)


def apply(a: Pose, p: np.ndarray) -> np.ndarray:
    """Transform a point (3,) or point array (N, 3): p R^T + t."""
    out = np.asarray(p, dtype=float) @ a.rotation.T
    # one column at a time: broadcasting the (3,) translation over (N, 3)
    # runs N inner loops of length 3
    for k in range(3):
        out[..., k] += a.translation[k]
    return out


def _elementary(axis: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(3)
    i, j = [(1, 2), (0, 2), (0, 1)][axis]
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s if axis != 1 else s
    m[j, i] = s if axis != 1 else -s
    return m


def rot_x(angle: float) -> np.ndarray:
    return _elementary(0, angle)


def rot_y(angle: float) -> np.ndarray:
    return _elementary(1, angle)


def rot_z(angle: float) -> np.ndarray:
    return _elementary(2, angle)


def translation_error(est: Pose, gt: Pose) -> float:
    """Euclidean distance between the two translations (meters)."""
    return float(np.linalg.norm(est.translation - gt.translation))


def rotation_error(est: Pose, gt: Pose) -> float:
    """Angle of the relative rotation R = Rgt' Rest, from its sine and cosine:
    atan2(|vee(R - R')| / 2, (trace(R) - 1) / 2).

    An arccos of the trace alone cannot resolve angles below ~1.5e-8 rad,
    where the trace rounds to 3; the axis part keeps them.
    """
    rel = gt.rotation.T @ est.rotation
    sin_part = 0.5 * float(np.linalg.norm(_vee(rel - rel.T)))
    return math.atan2(sin_part, 0.5 * (float(np.trace(rel)) - 1.0))


def rot_to_quat(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw), scalar last, qw >= 0."""
    rot = np.asarray(rot, dtype=float)
    tr = np.trace(rot)
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        qw = 0.25 * s
        qx = (rot[2, 1] - rot[1, 2]) / s
        qy = (rot[0, 2] - rot[2, 0]) / s
        qz = (rot[1, 0] - rot[0, 1]) / s
    elif rot[0, 0] > rot[1, 1] and rot[0, 0] > rot[2, 2]:
        s = math.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0
        qw = (rot[2, 1] - rot[1, 2]) / s
        qx = 0.25 * s
        qy = (rot[0, 1] + rot[1, 0]) / s
        qz = (rot[0, 2] + rot[2, 0]) / s
    elif rot[1, 1] > rot[2, 2]:
        s = math.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2.0
        qw = (rot[0, 2] - rot[2, 0]) / s
        qx = (rot[0, 1] + rot[1, 0]) / s
        qy = 0.25 * s
        qz = (rot[1, 2] + rot[2, 1]) / s
    else:
        s = math.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2.0
        qw = (rot[1, 0] - rot[0, 1]) / s
        qx = (rot[0, 2] + rot[2, 0]) / s
        qy = (rot[1, 2] + rot[2, 1]) / s
        qz = 0.25 * s
    q = np.array([qx, qy, qz, qw])
    q /= np.linalg.norm(q)
    if q[3] < 0.0:
        q = -q
    return q


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a scalar-last quaternion (normalized first)."""
    q = np.asarray(q, dtype=float).reshape(4)
    x, y, z, w = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class ScaledMotion(NamedTuple):
    """Point-form coefficients of exp(s_k * xi) over scale factors s_k.

    For phi = s * |omega| and axis a = omega / |omega|, the motion carries
    point k by p + sin phi (a x p) + (1 - cos phi) a x (a x p) + t(s), with
        t(s) = s*rho + ((1-cos phi)/|omega|) (a x rho)
                     + ((phi - sin phi)/|omega|) (a x (a x rho)),
    and series for 1 - cos phi and phi - sin phi below _SMALL_ANGLE. axis,
    sin_phi and one_minus_cos are None for a pure translation.
    """

    axis: np.ndarray | None
    sin_phi: np.ndarray | None
    one_minus_cos: np.ndarray | None
    trans: np.ndarray


def scaled_motion(xi: np.ndarray, scales: np.ndarray) -> ScaledMotion:
    """The coefficients of exp(s_k * xi) for an array of scale factors."""
    vec = np.asarray(xi, dtype=float).reshape(6)
    scales = np.asarray(scales, dtype=float).reshape(-1)
    omega, rho = vec[:3], vec[3:]
    theta1 = float(np.linalg.norm(omega))
    if theta1 < 1e-14:
        return ScaledMotion(None, None, None, np.outer(scales, rho))
    axis = omega / theta1
    phi = scales * theta1
    sin_p = np.sin(phi)
    small = np.abs(phi) < _SMALL_ANGLE
    p2 = phi * phi
    one_minus_cos = np.where(small, p2 / 2.0 - p2 * p2 / 24.0, 1.0 - np.cos(phi))
    phi_minus_sin = np.where(small, p2 * phi / 6.0 - p2 * p2 * phi / 120.0, phi - sin_p)
    ax_rho = np.cross(axis, rho)
    ax_ax_rho = np.cross(axis, ax_rho)
    trans = (scales[:, None] * rho[None, :]
             + (one_minus_cos / theta1)[:, None] * ax_rho[None, :]
             + (phi_minus_sin / theta1)[:, None] * ax_ax_rho[None, :])
    return ScaledMotion(axis, sin_p, one_minus_cos, trans)


def exp_se3_scaled(xi: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (R, t) of exp(s_k * xi) for an array of scale factors.

    Returns rotations (K, 3, 3), I + sin phi [a]x + (1 - cos phi) [a]x^2,
    and translations (K, 3) (see `ScaledMotion`). This is the kernel
    behind constant-twist pose interpolation: the scan simulator relies on
    it, and `apply_scaled_motion` is its point form, used by deskewing.
    """
    axis, sin_p, one_minus_cos, trans = scaled_motion(xi, scales)
    if axis is None:
        return np.broadcast_to(np.eye(3), (len(trans), 3, 3)).copy(), trans
    k = skew(axis)
    rots = (np.eye(3)[None, :, :]
            + sin_p[:, None, None] * k[None, :, :]
            + one_minus_cos[:, None, None] * (k @ k)[None, :, :])
    return rots, trans


def apply_scaled_motion(motion: ScaledMotion, points: np.ndarray) -> np.ndarray:
    """The motion's k-th transform applied to point k, for points (K, 3),
    with no per-point matrix: p + sin phi (a x p) + (1 - cos phi) a x (a x p)
    + t(s)."""
    axis, sin_p, one_minus_cos, trans = motion
    if axis is None:
        return points + trans
    ax_p = cross(axis, points)
    return (points + sin_p[:, None] * ax_p
            + one_minus_cos[:, None] * cross(axis, ax_p) + trans)


def interpolate_pose(start: Pose, end: Pose, fraction: float) -> Pose:
    """Constant-twist interpolation start * exp(fraction * log(start^-1 end))."""
    xi = log_se3(compose(inverse(start), end))
    return compose(start, exp_se3(xi * fraction))
