"""Point cloud containers, motion compensation, and scan/trajectory file I/O.

Frames are immutable after construction. The cloud format is a small ASCII
PCD subset (FIELDS x y z [t] [intensity], TYPE F, DATA ascii; an intensity
column is read and dropped); trajectories are plain text lines
`stamp tx ty tz qx qy qz qw` with scalar-last unit quaternions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import (InvalidParams, NonMonotonicStamps, ParseError, StampMismatch,
                     UnsupportedField)
from .geometry import Pose
from .grid import floor_cells, pack_cells

STAMP_TOL = 1e-6


@dataclass(frozen=True)
class Frame:
    """One timestamped LiDAR sweep.

    positions: (N, 3) meters in the sensor frame at each point's capture
    time; stamp: seconds, the scan start; time_offsets: (N,) seconds from
    scan start, within [0, scan_duration] (all zero when None).
    """

    positions: np.ndarray
    stamp: float = 0.0
    scan_duration: float = 0.0
    time_offsets: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite point positions")
        offs = self.time_offsets
        offs = np.zeros(len(pos)) if offs is None else np.asarray(offs, dtype=float).reshape(-1)
        if len(offs) != len(pos):
            raise ValueError("time_offsets length mismatch")
        # negated, so that NaN offsets fail too
        if len(offs) and not (offs.min() >= 0.0
                              and offs.max() <= self.scan_duration + 1e-12):
            raise ValueError("time_offsets outside [0, scan_duration]")
        pos.flags.writeable = False
        offs.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "time_offsets", offs)

    def __len__(self) -> int:
        return len(self.positions)

    def with_positions(self, positions: np.ndarray) -> "Frame":
        return Frame(positions, self.stamp, self.scan_duration, self.time_offsets)


@dataclass(frozen=True)
class Trajectory:
    """Timestamped pose sequence; stamps must strictly increase."""

    stamps: np.ndarray
    poses: list[Pose]

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=float).reshape(-1)
        if len(stamps) != len(self.poses):
            raise ValueError("stamps/poses length mismatch")
        if len(stamps) > 1 and np.any(np.diff(stamps) <= 0.0):
            raise NonMonotonicStamps("stamps must be strictly increasing")
        stamps.flags.writeable = False
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "poses", list(self.poses))

    def __len__(self) -> int:
        return len(self.poses)

    def index_for_stamp(self, stamp: float) -> int:
        if len(self.stamps) == 0:
            raise StampMismatch(f"no trajectory sample for stamp {stamp:.6f}: "
                                "the trajectory is empty")
        i = int(np.argmin(np.abs(self.stamps - stamp)))
        if abs(self.stamps[i] - stamp) > STAMP_TOL:
            raise StampMismatch(
                f"no trajectory sample within {STAMP_TOL} s of stamp {stamp:.6f}")
        return i


def sweep_coefficients(f: Frame, rel: Pose) -> geo.ScaledMotion | None:
    """Point-form coefficients that deskew f over the sweep motion rel.

    A point captured at fraction s = time_offset / scan_duration is mapped
    by exp(s * log(rel)) (`geometry.scaled_motion`). None when deskewing
    leaves f unchanged: no motion, no points or no scan duration. Raises
    AngleNearPi if rel is a rotation too close to 180 degrees.
    """
    xi = geo.log_se3(rel)
    if np.allclose(xi, 0.0, atol=1e-15) or len(f) == 0 or f.scan_duration <= 0.0:
        return None
    return geo.scaled_motion(xi, f.time_offsets / f.scan_duration)


def deskew(f: Frame, pose_start: Pose, pose_end: Pose) -> Frame:
    """Express all points at the scan-start pose under constant-twist motion.

    The motion pose_start^-1 * pose_end is applied in point form
    (`sweep_coefficients`, `geometry.apply_scaled_motion`) without a
    per-point matrix. Raises AngleNearPi if the scan spans a rotation too
    close to 180 degrees.
    """
    motion = sweep_coefficients(f, geo.compose(geo.inverse(pose_start), pose_end))
    if motion is None:
        return f
    return f.with_positions(geo.apply_scaled_motion(motion, f.positions))


def voxel_downsample(f: Frame, leaf: float) -> Frame:
    """Replace each occupied leaf cell by the centroid of its points.

    Output cells are ordered lexicographically by integer cell index, so the
    result is independent of input ordering and worker partitioning. Raises
    InvalidParams when int64 cannot index the cells (`grid.floor_cells`,
    `grid.pack_cells`).
    """
    if leaf <= 0.0:
        raise ValueError("leaf must be positive")
    if len(f) == 0:
        return f
    keys = pack_cells(floor_cells(f.positions, leaf))
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)

    def cell_mean(values):
        return np.bincount(inv, weights=values) / counts

    positions = np.column_stack([cell_mean(f.positions[:, a]) for a in range(3)])
    return Frame(positions, f.stamp, f.scan_duration, cell_mean(f.time_offsets))


def downsample_frames(frames: list[Frame], leaf: float) -> list[Frame]:
    """`voxel_downsample` of each frame, or the frames themselves for leaf
    0 (no downsampling); an InvalidParams (a cell index or cell box too
    large for int64) is raised again naming the frame's index."""
    if leaf == 0.0:
        return frames
    out = []
    for j, f in enumerate(frames):
        try:
            out.append(voxel_downsample(f, leaf))
        except InvalidParams as exc:
            raise InvalidParams(f"frame {j}: {exc}") from exc
    return out


def sweep_motion(poses: list[Pose], stamps, i: int, duration: float) -> Pose:
    """Motion over sweep i, relative to poses[i]. The sweep runs from
    stamps[i] toward the next sample, duration / stamp gap of the way, at
    the interval's constant twist; the last sample extrapolates the interval
    before it. Needs two samples, and stamps that increase."""
    j = min(i, len(poses) - 2)
    rel = geo.compose(geo.inverse(poses[j]), poses[j + 1])
    gap = stamps[j + 1] - stamps[j]
    if gap <= 0.0:
        raise InvalidParams("frames with a scan duration need increasing stamps")
    return geo.interpolate_pose(Pose.identity(), rel, duration / gap)


def scan_end_poses(traj: Trajectory, scan_period: float) -> list[Pose]:
    """End-of-scan pose for each trajectory sample: each scan spans
    scan_period from its stamp toward the next sample, as set out in
    `sweep_motion` (a scan_period equal to the stamp gap ends at the next
    sample itself). A lone sample is its own end.
    """
    if len(traj) == 1:
        return [traj.poses[0]]
    return [geo.compose(p, sweep_motion(traj.poses, traj.stamps, i, scan_period))
            for i, p in enumerate(traj.poses)]


# ---------------------------------------------------------------------------
# ASCII PCD subset


_HEADER_ORDER = ["VERSION", "FIELDS", "SIZE", "TYPE", "COUNT", "WIDTH",
                 "HEIGHT", "VIEWPOINT", "POINTS", "DATA"]
_ALLOWED_FIELDS = [["x", "y", "z"],
                   ["x", "y", "z", "t"],
                   ["x", "y", "z", "intensity"],
                   ["x", "y", "z", "t", "intensity"]]


def save_cloud(f: Frame, path) -> None:
    n = len(f)
    lines = [
        "VERSION .7",
        "FIELDS x y z t",
        "SIZE 4 4 4 4",
        "TYPE F F F F",
        "COUNT 1 1 1 1",
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        "DATA ascii",
    ]
    data = np.column_stack([f.positions, f.time_offsets])
    buf = io.StringIO()
    buf.write("\n".join(lines) + "\n")
    np.savetxt(buf, data, fmt="%.9g")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_cloud(path, *, stamp: float = 0.0,
               scan_duration: float | None = None) -> Frame:
    """Parse the ASCII PCD subset; metadata not stored in PCD is supplied by
    the caller. scan_duration defaults to the largest time offset present.
    An intensity column is accepted and dropped."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header: dict[str, list[str]] = {}
    idx = 0
    for want in _HEADER_ORDER:
        if idx >= len(lines):
            raise ParseError(f"missing header line {want}", line=idx + 1)
        parts = lines[idx].split()
        if not parts or parts[0] != want:
            raise ParseError(f"expected {want} header, got {lines[idx]!r}", line=idx + 1)
        header[want] = parts[1:]
        idx += 1
    fields = header["FIELDS"]
    if fields not in _ALLOWED_FIELDS:
        raise UnsupportedField(f"unsupported FIELDS {' '.join(fields)}")
    k = len(fields)
    if header["TYPE"] != ["F"] * k:
        raise UnsupportedField("only TYPE F supported")
    if header["COUNT"] != ["1"] * k:
        raise UnsupportedField("only COUNT 1 supported")
    if header["HEIGHT"] != ["1"]:
        raise UnsupportedField("only HEIGHT 1 supported")
    try:
        n = int(header["POINTS"][0])
        width = int(header["WIDTH"][0])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad WIDTH/POINTS header: {exc}", line=idx) from exc
    if width != n:
        raise ParseError(f"WIDTH {width} != POINTS {n}", line=idx)
    data_lines = [ln for ln in lines[idx:] if ln.strip()]
    if len(data_lines) != n:
        raise ParseError(f"expected {n} data rows, found {len(data_lines)}",
                         line=idx + min(n, len(data_lines)) + 1)
    if n == 0:
        data = np.zeros((0, k))
    else:
        try:
            data = np.loadtxt(io.StringIO("\n".join(data_lines)), ndmin=2)
        except ValueError:
            data = _parse_rows_slow(data_lines, idx, k)
    if data.shape[1] != k:
        raise ParseError(f"rows have {data.shape[1]} columns, expected {k}", line=idx + 1)
    pos = data[:, :3]
    offs = data[:, fields.index("t")] if "t" in fields else None
    if scan_duration is None:
        scan_duration = float(offs.max()) if offs is not None and len(offs) else 0.0
    try:
        return Frame(pos, stamp, scan_duration, offs)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_rows_slow(data_lines: list[str], header_len: int, k: int) -> np.ndarray:
    rows = []
    for i, ln in enumerate(data_lines):
        parts = ln.split()
        if len(parts) != k:
            raise ParseError(f"expected {k} values, got {len(parts)}",
                             line=header_len + i + 1)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(str(exc), line=header_len + i + 1) from exc
    return np.asarray(rows).reshape(-1, k)


# ---------------------------------------------------------------------------
# Trajectory files


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("# stamp tx ty tz qx qy qz qw\n")
        for stamp, pose in zip(traj.stamps, traj.poses):
            fh.write(format_pose_line(pose, stamp) + "\n")


def format_pose_line(pose: Pose, stamp: float = 0.0) -> str:
    q = geo.rot_to_quat(pose.rotation)
    vals = [stamp, *pose.translation, *q]
    return " ".join(f"{v:.12g}" for v in vals)


def parse_pose_line(line: str) -> tuple[float, Pose]:
    """(stamp, pose) of a `stamp tx ty tz qx qy qz qw` line."""
    parts = line.split()
    if len(parts) != 8:
        raise ParseError(f"expected 8 values, got {len(parts)}")
    vals = np.array([float(p) for p in parts])
    if not (np.isfinite(vals).all() and 0.0 < np.linalg.norm(vals[4:8]) < np.inf):
        raise ParseError("non-finite value or zero-norm quaternion")
    return float(vals[0]), Pose(geo.quat_to_rot(vals[4:8]), vals[1:4])


def _pose_lines(path):
    """(stamp, pose) of each line of a file, in order, skipping blank lines
    and `#` comments; a line that is no pose raises ParseError naming it."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed = parse_pose_line(line)
            except (ValueError, ParseError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
            yield parsed


def load_trajectory(path) -> Trajectory:
    stamps: list[float] = []
    poses: list[Pose] = []
    for stamp, pose in _pose_lines(path):
        stamps.append(stamp)
        poses.append(pose)
    if len(stamps) > 1 and np.any(np.diff(np.asarray(stamps)) <= 0.0):
        raise NonMonotonicStamps(f"{path}: stamps must be strictly increasing")
    return Trajectory(np.asarray(stamps), poses)


def load_pose(path) -> Pose:
    """Read the first pose line of a file and nothing after it: a
    ground-truth extrinsic, or a calibration report, whose estimate is its
    first line that is not a comment."""
    for _, pose in _pose_lines(path):
        return pose
    raise ParseError(f"{path}: no pose lines found")
