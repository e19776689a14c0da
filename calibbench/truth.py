"""Ground truth and error measures computed apart from the program.

Nothing here calls `lidarcalib.geometry`: the reference extrinsic comes from
the rig preset's Euler angles through scipy, and the rotation angle uses
atan2 of the axis and trace parts, which resolves angles far below the
~1.5e-8 rad floor of an arccos of the trace.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.transform import Rotation


def rig_extrinsic(rig) -> tuple[np.ndarray, np.ndarray]:
    """(R, t) of a rig preset: R = Rz(yaw) Ry(pitch) Rx(roll)."""
    rot = Rotation.from_euler(
        "ZYX", [rig.yaw_deg, rig.pitch_deg, rig.roll_deg], degrees=True)
    return rot.as_matrix(), np.array([rig.x, rig.y, rig.z], dtype=float)


def rotation_angle(r_est: np.ndarray, r_ref: np.ndarray) -> float:
    """Angle of r_ref^T r_est from its sine (axis part) and cosine (trace)."""
    rel = r_ref.T @ r_est
    axis = np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0],
                     rel[1, 0] - rel[0, 1]])
    return math.atan2(0.5 * float(np.linalg.norm(axis)),
                      0.5 * (float(np.trace(rel)) - 1.0))


def _matrix(pose) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def trajectory_error(poses, ref_poses) -> float:
    """Mean translation error (m) after expressing both trajectories
    relative to their own first pose."""
    est = [_matrix(p) for p in poses]
    ref = [_matrix(p) for p in ref_poses]
    est0, ref0 = np.linalg.inv(est[0]), np.linalg.inv(ref[0])
    return float(np.mean([np.linalg.norm((est0 @ e)[:3, 3] - (ref0 @ r)[:3, 3])
                          for e, r in zip(est, ref)]))


def occupied_cells(points: np.ndarray, leaf: float) -> int:
    """Number of distinct leaf-sized grid cells the points fall in."""
    if len(points) == 0:
        return 0
    return len(np.unique(np.floor(points / leaf).astype(np.int64), axis=0))


def envelope_corner(rng: np.random.Generator, trans: float,
                    rot_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of a guess at a corner of the envelope: every translation
    component +-trans and a rotation of exactly rot_deg about a random axis."""
    signs = rng.choice([-1.0, 1.0], size=3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return (Rotation.from_rotvec(axis * math.radians(rot_deg)).as_matrix(),
            trans * signs)
