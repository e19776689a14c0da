"""Synthetic plane-world scan simulator for a rigid two-LiDAR rig.

Scenes are finite rectangles, so ray intersections are closed form and the
generated data is an exact oracle: with zero range noise every returned
point lies on a scene rectangle. Sensor motion within a scan follows the
constant-twist path between the start and end poses, and each point carries
the time offset of its azimuth column, which is what deskewing inverts.

Frames may be simulated concurrently: each (sensor, frame) pair owns an
independent RNG stream derived from (seed, sensor, frame), so results do not
depend on scheduling or frame count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import geometry as geo
from . import pointcloud as pc
from .errors import EmptyFrame, InvalidParams, ParseError, check_rules
from .geometry import Pose
from .pointcloud import Frame, Trajectory


@dataclass(frozen=True)
class Rect:
    """Finite rectangle: corner plus two non-parallel edge vectors."""

    corner: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "corner", np.asarray(self.corner, dtype=float))
        object.__setattr__(self, "e1", np.asarray(self.e1, dtype=float))
        object.__setattr__(self, "e2", np.asarray(self.e2, dtype=float))
        if np.linalg.norm(np.cross(self.e1, self.e2)) < 1e-12:
            raise InvalidParams("rectangle edges are parallel or zero area")

    @cached_property
    def normal(self) -> np.ndarray:
        n = np.cross(self.e1, self.e2)
        return n / np.linalg.norm(n)


@dataclass(frozen=True)
class Scene:
    name: str
    rects: list[Rect]


@dataclass(frozen=True)
class LidarModel:
    """Spinning-beam sensor model (Velodyne-16-like defaults)."""

    beams: int = 16
    vertical_fov_deg: float = 30.0
    horizontal_res_deg: float = 0.4
    max_range: float = 50.0
    range_sigma: float = 0.01
    scan_period: float = 0.1

    def __post_init__(self):
        check_rules(vars(self), (
            ("beams", 1 <= self.beams, "beam count must be >= 1"),
            ("vertical_fov_deg", 0.0 <= self.vertical_fov_deg <= 180.0,
             "must be in [0, 180]"),
            # a zero span casts every beam along one ray
            ("vertical_fov_deg", self.beams == 1 or self.vertical_fov_deg > 0.0,
             "must be > 0 with more than one beam"),
            ("horizontal_res_deg", 0.0 < self.horizontal_res_deg <= 360.0,
             "must be in (0, 360]"),
            ("max_range", 0.0 < self.max_range < math.inf,
             "must be finite and > 0"),
            ("range_sigma", 0.0 <= self.range_sigma < math.inf,
             "must be finite and >= 0"),
            ("scan_period", 0.0 <= self.scan_period < math.inf,
             "must be finite and >= 0"),
        ))


@dataclass(frozen=True)
class RigConfig:
    """Mounting transform of sensor B in sensor A's frame: translation in
    meters and ZYX Euler angles in degrees, the rotation being
    Rz(yaw) @ Ry(pitch) @ Rx(roll)."""

    x: float
    y: float
    z: float
    roll_deg: float
    pitch_deg: float
    yaw_deg: float

    def to_pose(self) -> Pose:
        rot = (geo.rot_z(math.radians(self.yaw_deg))
               @ geo.rot_y(math.radians(self.pitch_deg))
               @ geo.rot_x(math.radians(self.roll_deg)))
        return Pose(rot, (self.x, self.y, self.z))


RIG_PRESETS: dict[str, RigConfig] = {
    "config1": RigConfig(0.0, -0.35, -0.9, -90.0, 0.0, 180.0),
    "config2": RigConfig(0.0, 0.5, 0.5, 90.0, 0.0, 90.0),
    "config3": RigConfig(-1.0, 0.0, 0.0, 180.0, 0.0, 202.0),
    "config4": RigConfig(0.6, 0.4, 0.4, 0.0, 90.0, 180.0),
    "config5": RigConfig(0.4, -0.2, -1.0, 180.0, -90.0, 0.0),
}
# the names builtin_scene and make_trajectory take; a turning kind turns
# through sweep_deg, which must then give a finite turn radius
SCENES = ("room", "corridor", "yard")
TRAJECTORY_KINDS = ("line", "arc", "lissajous")
TURNING_KINDS = ("arc",)


def builtin_scene(kind: str) -> Scene:
    """Named test worlds; each has unit normals spanning rank 3."""
    if kind == "room":
        # 10 x 8 x 3 m box interior plus two partial partition walls. The
        # surfaces sit mid-cell on the default 1 m voxel grid (never on
        # lattice planes), as real rooms do for any grid anchoring.
        x0, x1 = 0.5, 10.5
        y0, y1 = 0.5, 8.5
        z0, z1 = 0.45, 3.45
        rects = [
            Rect([x0, y0, z0], [x1 - x0, 0, 0], [0, y1 - y0, 0]),   # floor
            Rect([x0, y0, z1], [x1 - x0, 0, 0], [0, y1 - y0, 0]),   # ceiling
            Rect([x0, y0, z0], [0, y1 - y0, 0], [0, 0, z1 - z0]),   # wall x = x0
            Rect([x1, y0, z0], [0, y1 - y0, 0], [0, 0, z1 - z0]),   # wall x = x1
            Rect([x0, y0, z0], [x1 - x0, 0, 0], [0, 0, z1 - z0]),   # wall y = y0
            Rect([x0, y1, z0], [x1 - x0, 0, 0], [0, 0, z1 - z0]),   # wall y = y1
            Rect([7.5, y0, z0], [0, 2.5, 0], [0, 0, z1 - z0]),      # partition
            Rect([4.5, 7.5, z0], [6.0, 0, 0], [0, 0, z1 - z0]),     # partition
        ]
        return Scene("room", rects)
    if kind == "corridor":
        # 30 m run; the walls are deliberately non-parallel (wedge) and the
        # ceiling pitched so the stacked normals span rank 3.
        wedge = 30.0 * math.tan(math.radians(4.0))
        pitch = 30.0 * math.tan(math.radians(3.0))
        rects = [
            Rect([0, -4, 0], [30, 0, 0], [0, 8, 0]),            # floor
            Rect([0, -4, 3], [30, 0, pitch], [0, 8, 0]),        # pitched ceiling
            Rect([0, -4, 0], [30, wedge, 0], [0, 0, 4]),        # left wall
            Rect([0, 4, 0], [30, -wedge, 0], [0, 0, 4]),        # right wall
        ]
        return Scene("corridor", rects)
    if kind == "yard":
        def face(cx, cy, yaw_deg, width, height):
            d = np.array([math.cos(math.radians(yaw_deg)),
                          math.sin(math.radians(yaw_deg)), 0.0])
            corner = np.array([cx, cy, 0.0]) - d * width / 2.0
            return Rect(corner, d * width, [0, 0, height])

        rects = [
            Rect([-20, -20, 0], [40, 0, 0], [0, 40, 0]),   # ground
            face(9.0, -5.0, 20.0, 10.0, 5.0),
            face(-12.0, 6.0, 100.0, 8.0, 4.0),
            face(3.0, 11.0, 170.0, 9.0, 6.0),
            face(-6.0, -12.0, 60.0, 7.0, 4.0),
        ]
        return Scene("yard", rects)
    raise InvalidParams(f"unknown scene kind {kind!r}")


def simulate_scan(scene: Scene, pose_start: Pose, pose_end: Pose,
                  model: LidarModel, seed, *, stamp: float = 0.0) -> Frame:
    """Cast one full rotation of beams from the moving sensor.

    Rays at azimuth step a are emitted from the interpolated sensor pose at
    time fraction a / n_azimuth. The nearest rectangle hit within max_range
    is kept and its range perturbed by Gaussian noise along the ray. Points
    are stored in the sensor frame at their own capture time (a raw, skewed
    sweep) with time_offset = fraction * scan_period.

    Rectangles are tested in scene order. For each one, only rays whose
    plane hit lies within range and strictly nearer than the nearest hit so
    far go on to the hit point and the in-rectangle solve: a hit at or
    beyond it could never replace it, so leaving those rays out changes no
    output bit. The plane offset (corner - origin) . n is computed once per
    azimuth origin, which that azimuth's beams share.
    """
    n_az = max(1, int(round(360.0 / model.horizontal_res_deg)))
    fractions = np.arange(n_az) / n_az
    azimuths = 2.0 * math.pi * fractions
    if model.beams == 1:
        elevations = np.zeros(1)
    else:
        half = math.radians(model.vertical_fov_deg) / 2.0
        elevations = np.linspace(-half, half, model.beams)
    n_el = len(elevations)

    rel = geo.compose(geo.inverse(pose_start), pose_end)
    xi = geo.log_se3(rel)
    rot_i, trans_i = geo.exp_se3_scaled(xi, fractions)
    rot_w = pose_start.rotation @ rot_i
    origins = trans_i @ pose_start.rotation.T + pose_start.translation

    cos_el = np.cos(elevations)
    dirs_local = np.empty((n_az, n_el, 3))
    dirs_local[:, :, 0] = np.cos(azimuths)[:, None] * cos_el[None, :]
    dirs_local[:, :, 1] = np.sin(azimuths)[:, None] * cos_el[None, :]
    dirs_local[:, :, 2] = np.sin(elevations)[None, :]
    dirs_world = np.einsum("aij,abj->abi", rot_w, dirs_local)

    k = n_az * n_el
    d_flat = dirs_world.reshape(k, 3)
    o_flat = np.repeat(origins, n_el, axis=0)
    best_tau = np.full(k, np.inf)
    for rect in scene.rects:
        n = rect.normal
        denom = d_flat @ n
        offset = np.repeat((rect.corner - origins) @ n, n_el)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = offset / denom
        tau = np.where(np.abs(denom) < 1e-12, np.inf, tau)
        idx = np.nonzero((tau > 1e-9) & (tau <= model.max_range)
                         & (tau < best_tau))[0]
        if not len(idx):
            continue
        # np.take gathers the same rows as fancy indexing, in about half the time
        p = (np.take(o_flat, idx, axis=0)
             + np.take(tau, idx)[:, None] * np.take(d_flat, idx, axis=0))
        basis = np.column_stack([rect.e1, rect.e2])
        coords = np.linalg.solve(basis.T @ basis, basis.T @ (p - rect.corner).T).T
        inside = np.all((coords >= -1e-12) & (coords <= 1.0 + 1e-12), axis=1)
        best_tau[idx[inside]] = tau[idx[inside]]

    hit = np.isfinite(best_tau)
    ranges = best_tau[hit]
    if model.range_sigma > 0.0 and len(ranges):
        rng = np.random.default_rng(seed)
        ranges = ranges + rng.normal(0.0, model.range_sigma, size=len(ranges))
    positions = dirs_local.reshape(k, 3)[hit] * ranges[:, None]
    offsets = np.repeat(fractions, n_el)[hit] * model.scan_period
    return Frame(positions, stamp, model.scan_period, offsets)


def make_trajectory(kind: str, length: float, frame_count: int, *,
                    dt: float = 0.1, start=(3.5, 3.5, 2.0),
                    sweep_deg: float = 75.0) -> Trajectory:
    """Smooth pose sequence; heading follows the velocity direction.

    line: straight run along +x. arc: planar left turn through sweep_deg.
    lissajous: forward run with lateral/vertical oscillation.
    """
    if frame_count < 2:
        raise InvalidParams("frame count must be >= 2")
    start = np.asarray(start, dtype=float)
    stamps = np.arange(frame_count) * dt
    poses: list[Pose] = []
    if kind == "line":
        for i in range(frame_count):
            t = start + np.array([length * i / (frame_count - 1), 0.0, 0.0])
            poses.append(Pose(np.eye(3), t))
    elif kind == "arc":
        sweep = math.radians(sweep_deg)
        radius = length / sweep
        center = start + np.array([0.0, radius, 0.0])
        for i in range(frame_count):
            phi = sweep * i / (frame_count - 1)
            t = center + radius * np.array([math.sin(phi), -math.cos(phi), 0.0])
            poses.append(Pose(geo.rot_z(phi), t))
    elif kind == "lissajous":
        amp_y = min(0.5, length / 8.0)
        amp_z = 0.08
        taus = np.pi * np.arange(frame_count) / (frame_count - 1)
        for tau in taus:
            t = start + np.array([
                length / 2.0 * (1.0 - math.cos(tau)),
                amp_y * math.sin(2.0 * tau),
                amp_z * math.sin(tau),
            ])
            vel = np.array([length / 2.0 * math.sin(tau),
                            2.0 * amp_y * math.cos(2.0 * tau), 0.0])
            yaw = math.atan2(vel[1], vel[0]) if np.linalg.norm(vel) > 1e-12 else 0.0
            poses.append(Pose(geo.rot_z(yaw), t))
    else:
        raise InvalidParams(f"unknown trajectory kind {kind!r}")
    return Trajectory(stamps, poses)


@dataclass
class SimDataset:
    frames_a: list[Frame]
    frames_b: list[Frame]
    trajectory: Trajectory
    extrinsic: Pose | None  # None for a read dataset without ground truth
    scene: str  # the scene's name
    model: LidarModel
    seed: int
    rig_name: str = ""


def generate_dataset(scene: Scene, trajectory: Trajectory, rig: RigConfig,
                     model: LidarModel, seed: int, rig_name: str = "") -> SimDataset:
    """Simulate synchronized sweeps of both sensors along the trajectory.

    Sensor A scans at the trajectory poses; sensor B at those poses composed
    with the rig extrinsic. Raises EmptyFrame if any sweep has no returns.
    """
    extrinsic = rig.to_pose()
    ends = pc.scan_end_poses(trajectory, model.scan_period)
    frames_a: list[Frame] = []
    frames_b: list[Frame] = []
    for j, (pose, end) in enumerate(zip(trajectory.poses, ends)):
        stamp = float(trajectory.stamps[j])
        fa = simulate_scan(scene, pose, end, model, (seed, 0, j), stamp=stamp)
        fb = simulate_scan(scene, geo.compose(pose, extrinsic),
                           geo.compose(end, extrinsic), model, (seed, 1, j),
                           stamp=stamp)
        if len(fa) == 0:
            raise EmptyFrame(f"sensor A frame {j} has no returns")
        if len(fb) == 0:
            raise EmptyFrame(f"sensor B frame {j} has no returns")
        frames_a.append(fa)
        frames_b.append(fb)
    return SimDataset(frames_a, frames_b, trajectory, extrinsic, scene.name,
                      model, seed, rig_name)


def check_perturb_bounds(max_trans: float, max_rot_deg: float) -> None:
    """Raise InvalidParams unless both `perturb` bounds are finite and >= 0
    (a negated test, so that NaN fails it too)."""
    if not (0.0 <= max_trans < math.inf and 0.0 <= max_rot_deg < math.inf):
        raise InvalidParams("perturbation bounds must be finite and >= 0")


def perturb(pose: Pose, max_trans: float, max_rot_deg: float, seed) -> Pose:
    """Random initial-guess error: uniform cube translation offset plus a
    rotation about a uniform random axis by an angle uniform in [0, max]."""
    check_perturb_bounds(max_trans, max_rot_deg)
    rng = np.random.default_rng(seed)
    dt = rng.uniform(-max_trans, max_trans, size=3)
    axis = rng.normal(size=3)
    norm = np.linalg.norm(axis)
    axis = np.array([1.0, 0.0, 0.0]) if norm < 1e-12 else axis / norm
    angle = rng.uniform(0.0, math.radians(max_rot_deg))
    return Pose(geo.exp_so3(axis * angle) @ pose.rotation, pose.translation + dt)


def add_trajectory_noise(traj: Trajectory, sigma_trans: float, sigma_rot: float,
                         seed) -> Trajectory:
    """Right-multiply each pose by an independent zero-mean Gaussian twist."""
    if sigma_trans < 0.0 or sigma_rot < 0.0:
        raise InvalidParams("noise sigmas must be >= 0")
    if sigma_trans == 0.0 and sigma_rot == 0.0:
        return traj
    rng = np.random.default_rng(seed)
    poses = []
    for pose in traj.poses:
        rot = rng.normal(0.0, sigma_rot, size=3) if sigma_rot > 0 else np.zeros(3)
        trans = rng.normal(0.0, sigma_trans, size=3) if sigma_trans > 0 else np.zeros(3)
        poses.append(geo.compose(pose, geo.exp_se3(np.concatenate([rot, trans]))))
    return Trajectory(traj.stamps, poses)


# ---------------------------------------------------------------------------
# Dataset directory layout


def write_dataset(ds: SimDataset, out_dir) -> None:
    out = Path(out_dir)
    (out / "A").mkdir(parents=True, exist_ok=True)
    (out / "B").mkdir(parents=True, exist_ok=True)
    for j, (fa, fb) in enumerate(zip(ds.frames_a, ds.frames_b)):
        pc.save_cloud(fa, out / "A" / f"{j:06d}.pcd")
        pc.save_cloud(fb, out / "B" / f"{j:06d}.pcd")
    pc.save_trajectory(ds.trajectory, out / "trajectory_gt.txt")
    with open(out / "extrinsic_gt.txt", "w") as fh:
        fh.write(pc.format_pose_line(ds.extrinsic, 0.0) + "\n")
    meta = {
        "scene": ds.scene,
        "rig": ds.rig_name or "custom",
        **{f.name: getattr(ds.model, f.name) for f in fields(LidarModel)},
        "seed": ds.seed,
        "frame_count": len(ds.frames_a),
    }
    with open(out / "meta.txt", "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key}={val}\n")


def read_meta(path) -> dict[str, str]:
    meta = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, val = line.split("=", 1)
                meta[key.strip()] = val.strip()
    return meta


def read_dataset(dataset_dir) -> SimDataset:
    """Load a dataset directory written by write_dataset.

    Frame j of each sensor is stamped with trajectory stamp j. The
    extrinsic is None when the directory has no extrinsic_gt.txt. Raises
    ParseError, before any cloud is read, when a meta.txt value does not
    parse or breaks a `LidarModel` rule; and when the sensors hold
    different frame counts or more frames than the trajectory has poses.
    """
    root = Path(dataset_dir)
    meta_path = root / "meta.txt"
    meta = read_meta(meta_path)

    def value(key, kind, default):
        try:
            return kind(meta.get(key, default))
        except ValueError:
            raise ParseError(f"{meta_path}: {key} = {meta[key]!r} is not "
                             f"a valid {kind.__name__}") from None

    try:
        # a key missing from meta.txt takes the model's default
        model = LidarModel(**{f.name: value(f.name, type(f.default), f.default)
                              for f in fields(LidarModel)})
    except InvalidParams as exc:
        raise ParseError(f"{meta_path}: {exc}") from None
    trajectory = pc.load_trajectory(root / "trajectory_gt.txt")
    gt_path = root / "extrinsic_gt.txt"
    extrinsic = pc.load_pose(gt_path) if gt_path.exists() else None
    files = {sensor: sorted((root / sensor).glob("*.pcd")) for sensor in "AB"}
    if len(files["A"]) != len(files["B"]):
        raise ParseError(f"{root}: {len(files['A'])} sensor A frames but "
                         f"{len(files['B'])} sensor B frames")
    if len(files["A"]) > len(trajectory):
        raise ParseError(f"{root}: {len(files['A'])} frames per sensor but "
                         f"only {len(trajectory)} trajectory poses")
    frames_a, frames_b = [], []
    for sensor, sink in (("A", frames_a), ("B", frames_b)):
        for j, path in enumerate(files[sensor]):
            sink.append(pc.load_cloud(path, stamp=float(trajectory.stamps[j]),
                                      scan_duration=model.scan_period))
    return SimDataset(frames_a, frames_b, trajectory, extrinsic,
                      meta.get("scene", "unknown"), model,
                      value("seed", int, 0), meta.get("rig", ""))
