import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcalib import geometry as geo
from lidarcalib import pointcloud as pc
from lidarcalib.errors import (InvalidParams, NonMonotonicStamps, ParseError,
                               StampMismatch, UnsupportedField)
from lidarcalib.geometry import Pose

from test_geometry import random_pose


def make_frame(positions, duration=0.1, offsets=None):
    return pc.Frame(np.asarray(positions, dtype=float), stamp=1.0,
                    scan_duration=duration, time_offsets=offsets)


class TestFrame:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_frame([[0.0, 0.0, np.nan]])

    def test_rejects_offsets_beyond_duration(self):
        with pytest.raises(ValueError):
            make_frame([[0.0, 0.0, 0.0]], duration=0.1, offsets=[0.2])

    def test_immutable(self):
        f = make_frame([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            f.positions[0, 0] = 9.0


class TestDeskew:
    def test_no_motion_is_identity(self):
        rng = np.random.default_rng(2)
        pose = random_pose(rng)
        f = make_frame(rng.normal(size=(20, 3)), duration=0.1,
                       offsets=rng.uniform(0, 0.1, 20))
        out = pc.deskew(f, pose, pose)
        np.testing.assert_allclose(out.positions, f.positions, atol=1e-12)

    def test_midpoint_pure_translation(self):
        start = Pose.identity()
        end = Pose(np.eye(3), [1.0, 0.0, 0.0])
        f = make_frame([[0.0, 0.0, 0.0]], duration=0.1, offsets=[0.05])
        out = pc.deskew(f, start, end)
        np.testing.assert_allclose(out.positions[0], [0.5, 0.0, 0.0], atol=1e-12)

    def test_endpoint_equals_full_relative_pose(self):
        rng = np.random.default_rng(3)
        start = random_pose(rng)
        rel = Pose(geo.rot_z(math.radians(10.0)), [0.05, 0.0, 0.0])
        end = geo.compose(start, rel)
        pt = rng.normal(size=3)
        f = make_frame([pt], duration=0.1, offsets=[0.1])
        out = pc.deskew(f, start, end)
        np.testing.assert_allclose(out.positions[0], geo.apply(rel, pt), atol=1e-9)

    def test_rotation_only_endpoint(self):
        start = Pose.identity()
        end = Pose(geo.rot_z(math.radians(10.0)), np.zeros(3))
        f = make_frame([[2.0, 0.0, 0.0]], duration=0.1, offsets=[0.1])
        out = pc.deskew(f, start, end)
        np.testing.assert_allclose(out.positions[0],
                                   geo.rot_z(math.radians(10.0)) @ np.array([2.0, 0.0, 0.0]),
                                   atol=1e-12)


class TestSweepCoefficients:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["general", "translation", "identity"]))
    def test_precomputed_motion_matches_conjugated_deskew(self, seed, kind):
        # a sweep's coefficients, computed once, deskew under any estimate T
        # as T^-1 M_s(T p): log(T^-1 rel T) = Ad_{T^-1} log rel
        rng = np.random.default_rng(seed)
        t = random_pose(rng)
        rel = {"general": random_pose(rng, max_angle=1.0, max_trans=0.5),
               "translation": Pose(np.eye(3), rng.uniform(-0.5, 0.5, 3)),
               "identity": Pose.identity()}[kind]
        f = make_frame(rng.uniform(-20.0, 20.0, size=(200, 3)), duration=0.1,
                       offsets=rng.uniform(0.0, 0.1, 200))
        expected = pc.deskew(f, Pose.identity(),
                             geo.compose(geo.inverse(t), geo.compose(rel, t)))
        motion = pc.sweep_coefficients(f, rel)
        assert (motion is None) == (kind == "identity")
        if motion is None:
            got = f.positions
        else:
            moved = geo.apply_scaled_motion(motion, geo.apply(t, f.positions))
            got = geo.apply(geo.inverse(t), moved)
        np.testing.assert_allclose(got, expected.positions, rtol=0, atol=1e-12)

    def test_nothing_to_deskew(self):
        rel = Pose(geo.rot_z(0.1), [0.1, 0.0, 0.0])
        f = make_frame(np.ones((3, 3)), duration=0.1, offsets=[0.0, 0.05, 0.1])
        assert pc.sweep_coefficients(f, rel) is not None
        assert pc.sweep_coefficients(make_frame(np.ones((3, 3)), duration=0.0), rel) is None
        assert pc.sweep_coefficients(make_frame(np.zeros((0, 3))), rel) is None


class TestVoxelDownsample:
    def test_duplicate_points_collapse(self):
        f = make_frame([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], duration=0.0)
        out = pc.voxel_downsample(f, 0.5)
        assert len(out) == 1
        np.testing.assert_allclose(out.positions[0], [1.0, 1.0, 1.0])

    def test_distinct_cells_retained(self):
        f = make_frame([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]], duration=0.0)
        out = pc.voxel_downsample(f, 1.0)
        assert len(out) == 2

    def test_grid_matches_bucket_means(self):
        xs = np.arange(100) * 0.1
        pts = np.column_stack([np.repeat(xs, 100), np.tile(xs, 100), np.zeros(10000)])
        f = make_frame(pts, duration=0.0)
        out = pc.voxel_downsample(f, 1.0)
        assert len(out) == 100
        # brute-force bucketing oracle
        buckets = {}
        for p in pts:
            key = tuple(np.floor(p / 1.0).astype(int))
            buckets.setdefault(key, []).append(p)
        expected = {k: np.mean(v, axis=0) for k, v in buckets.items()}
        for row in out.positions:
            key = tuple(np.floor(row / 1.0).astype(int))
            np.testing.assert_allclose(row, expected[key], atol=1e-9)

    @staticmethod
    def unique_rows_reference(f, leaf):
        """Cell means through np.unique over the cell rows."""
        cells = np.floor(f.positions / leaf).astype(np.int64)
        uniq, inv = np.unique(cells, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        counts = np.bincount(inv, minlength=len(uniq)).astype(float)

        def cell_mean(values):
            sums = np.zeros((len(uniq),) + values.shape[1:])
            np.add.at(sums, inv, values)
            return sums / counts.reshape(-1, *([1] * (values.ndim - 1)))

        return cell_mean(f.positions), cell_mean(f.time_offsets)

    def test_matches_unique_rows_reference(self):
        rng = np.random.default_rng(5)
        # negative and positive coordinates, shuffled, many points per cell
        pts = rng.uniform(-3.7, 2.9, size=(4000, 3))
        f = make_frame(pts, duration=0.1, offsets=rng.uniform(0, 0.1, 4000))
        for leaf in (0.25, 0.9):
            out = pc.voxel_downsample(f, leaf)
            pos, offs = self.unique_rows_reference(f, leaf)
            np.testing.assert_array_equal(out.positions, pos)
            np.testing.assert_array_equal(out.time_offsets, offs)

    def test_single_occupied_cell(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.99, -0.01, size=(50, 3))
        f = make_frame(pts, duration=0.1, offsets=rng.uniform(0, 0.1, 50))
        out = pc.voxel_downsample(f, 1.0)
        pos, offs = self.unique_rows_reference(f, 1.0)
        assert len(out) == 1
        np.testing.assert_array_equal(out.positions, pos)
        np.testing.assert_array_equal(out.time_offsets, offs)

    def test_cell_span_beyond_int64_raises(self):
        f = make_frame([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], duration=0.0)
        with pytest.raises(InvalidParams, match="int64"):
            pc.voxel_downsample(f, 1e-7)

    def test_output_within_input_bbox(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5, 5, size=(500, 3))
        f = make_frame(pts, duration=0.0)
        out = pc.voxel_downsample(f, 0.7)
        assert np.all(out.positions.min(axis=0) >= pts.min(axis=0) - 1e-12)
        assert np.all(out.positions.max(axis=0) <= pts.max(axis=0) + 1e-12)


class TestCloudIO:
    def test_round_trip_small(self, tmp_path):
        f = make_frame([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
                       duration=0.1, offsets=[0.0, 0.05, 0.1])
        path = tmp_path / "f.pcd"
        pc.save_cloud(f, path)
        back = pc.load_cloud(path, stamp=f.stamp, scan_duration=0.1)
        np.testing.assert_array_equal(back.positions, f.positions)
        np.testing.assert_array_equal(back.time_offsets, f.time_offsets)

    def test_header_count_mismatch(self, tmp_path):
        f = make_frame(np.arange(15.0).reshape(5, 3), duration=0.0)
        path = tmp_path / "f.pcd"
        pc.save_cloud(f, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one data row
        with pytest.raises(ParseError):
            pc.load_cloud(path)

    def test_unsupported_fields(self, tmp_path):
        path = tmp_path / "f.pcd"
        text = ("VERSION .7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F F\n"
                "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                "POINTS 1\nDATA ascii\n0 0 0 0\n")
        path.write_text(text)
        with pytest.raises(UnsupportedField):
            pc.load_cloud(path)

    def test_round_trip_10k_random(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-50, 50, size=(10000, 3))
        f = make_frame(pts, duration=0.1, offsets=rng.uniform(0, 0.1, 10000))
        path = tmp_path / "big.pcd"
        pc.save_cloud(f, path)
        back = pc.load_cloud(path, scan_duration=0.1)
        assert np.max(np.abs(back.positions - pts)) < 1e-6

    def test_intensity_column_is_dropped(self, tmp_path):
        def load(fields, rows):
            k = len(fields.split())
            path = tmp_path / f"{k}.pcd"
            path.write_text(
                f"VERSION .7\nFIELDS {fields}\nSIZE {' '.join(['4'] * k)}\n"
                f"TYPE {' '.join(['F'] * k)}\nCOUNT {' '.join(['1'] * k)}\n"
                f"WIDTH {len(rows)}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                f"POINTS {len(rows)}\nDATA ascii\n" + "".join(r + "\n" for r in rows))
            return pc.load_cloud(path)

        plain = load("x y z t", ["1.5 -2 3 0.25", "4 5.5 -6 0.5"])
        dropped = load("x y z t intensity", ["1.5 -2 3 0.25 42", "4 5.5 -6 0.5 7"])
        np.testing.assert_array_equal(dropped.positions, plain.positions)
        np.testing.assert_array_equal(dropped.time_offsets, plain.time_offsets)
        np.testing.assert_array_equal(plain.time_offsets, [0.25, 0.5])
        assert dropped.scan_duration == plain.scan_duration == 0.5

    def test_missing_t_field_defaults_zero(self, tmp_path):
        path = tmp_path / "xyz.pcd"
        text = ("VERSION .7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                "COUNT 1 1 1\nWIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                "POINTS 2\nDATA ascii\n1 2 3\n4 5 6\n")
        path.write_text(text)
        f = pc.load_cloud(path)
        np.testing.assert_array_equal(f.time_offsets, [0.0, 0.0])


class TestTrajectoryIO:
    def test_identity_round_trip(self, tmp_path):
        traj = pc.Trajectory(np.array([0.0]), [Pose.identity()])
        path = tmp_path / "t.txt"
        pc.save_trajectory(traj, path)
        back = pc.load_trajectory(path)
        assert len(back) == 1
        np.testing.assert_allclose(back.poses[0].as_matrix(), np.eye(4), atol=1e-12)

    def test_out_of_order_stamps(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(NonMonotonicStamps):
            pc.load_trajectory(path)

    def test_random_poses_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        poses = [random_pose(rng) for _ in range(100)]
        traj = pc.Trajectory(np.arange(100) * 0.1, poses)
        path = tmp_path / "t.txt"
        pc.save_trajectory(traj, path)
        back = pc.load_trajectory(path)
        for orig, rt in zip(poses, back.poses):
            assert geo.rotation_error(rt, orig) < 1e-7
            assert geo.translation_error(rt, orig) < 1e-8

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0.0 0 0 0 0 0 0 1\nnot a pose\n")
        with pytest.raises(ParseError) as err:
            pc.load_trajectory(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("line", [
        "0.0 0 0 0 0 0 0 0",        # zero-norm quaternion
        "0.0 0 0 0 nan 0 0 1",
        "0.0 0 inf 0 0 0 0 1",
        "nan 0 0 0 0 0 0 1",
        "0.0 0 0 0 0 0 0 inf",
    ])
    def test_rejects_degenerate_pose_line(self, line):
        with pytest.raises(ParseError):
            pc.parse_pose_line(line)

    def test_stamp_association(self):
        traj = pc.Trajectory(np.array([0.0, 0.1, 0.2]), [Pose.identity()] * 3)
        assert traj.index_for_stamp(0.1 + 5e-7) == 1
        with pytest.raises(StampMismatch):
            traj.index_for_stamp(0.15)

    def test_empty_trajectory_has_no_stamp(self):
        # np.argmin over no stamps raised ValueError
        with pytest.raises(StampMismatch, match="empty"):
            pc.Trajectory(np.zeros(0), []).index_for_stamp(0.0)


class TestScanEndPoses:
    def test_contiguous_scanning_uses_next_pose(self):
        rng = np.random.default_rng(7)
        poses = [random_pose(rng) for _ in range(4)]
        traj = pc.Trajectory(np.arange(4) * 0.1, poses)
        ends = pc.scan_end_poses(traj, 0.1)
        for j in range(3):
            np.testing.assert_allclose(ends[j].as_matrix(), poses[j + 1].as_matrix())

    def test_last_pose_extrapolates(self):
        xi = np.array([0.0, 0.0, 0.1, 0.5, 0.0, 0.0])
        poses = [geo.exp_se3(xi * k) for k in range(3)]
        traj = pc.Trajectory(np.arange(3) * 0.1, poses)
        ends = pc.scan_end_poses(traj, 0.1)
        expected = geo.exp_se3(xi * 3)
        np.testing.assert_allclose(ends[-1].as_matrix(), expected.as_matrix(), atol=1e-9)

    def test_scan_period_moves_a_fraction_of_the_interval(self):
        # constant twist per 0.1 s interval, sweeps of 0.04 s: every sweep,
        # the last one too, ends 0.4 of the way to the next sample
        xi = np.array([0.0, 0.0, 0.1, 0.5, 0.0, 0.0])
        poses = [geo.exp_se3(xi * k) for k in range(3)]
        traj = pc.Trajectory(np.arange(3) * 0.1, poses)
        ends = pc.scan_end_poses(traj, 0.04)
        for k, end in enumerate(ends):
            np.testing.assert_allclose(end.as_matrix(),
                                       geo.exp_se3(xi * (k + 0.4)).as_matrix(),
                                       atol=1e-12)
