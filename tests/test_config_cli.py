import csv
import shutil

import numpy as np
import pytest

from lidarcalib import cli
from lidarcalib import config as cfgmod
from lidarcalib import errors
from lidarcalib import geometry as geo
from lidarcalib import pointcloud as pc
from lidarcalib import simulator as sim
from lidarcalib.errors import ConfigError

FAST_CONFIG = """
sim.frames = 8
sim.traj_length = 2.0
sim.horizontal_res_deg = 2.0
sim.range_sigma = 0
lba.window = 8
lba.step = 4
lba.downsample_leaf = 0.25
calib.downsample_leaf = 0.15
"""


class TestConfig:
    def test_defaults_validate(self):
        cfg = cfgmod.RunConfig()
        cfg.validate()
        assert cfg.voxel.l_parent == 1.0
        assert cfg.calib.reject_start == 0.5
        # one beam needs no vertical span
        cfgmod.parse_config_lines(["sim.beams = 1", "sim.vertical_fov_deg = 0"])

    def test_sensor_defaults_are_the_models(self):
        # the CLI's defaults and a dataset's missing meta.txt keys agree
        assert cfgmod.SimSection().lidar_model() == sim.LidarModel()

    def test_parse_overrides(self):
        cfg = cfgmod.parse_config_lines(FAST_CONFIG.splitlines())
        assert cfg.sim.frames == 8
        assert cfg.lba.window == 8
        assert cfg.calib.downsample_leaf == 0.15

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_lines(["sim.wibble = 3"])
        with pytest.raises(ConfigError):
            cfgmod.parse_config_lines(["wibble.frames = 3"])
        # solver internals are module constants, not keys
        with pytest.raises(ConfigError):
            cfgmod.parse_config_lines(["calib.normal_gate = 0.5"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_lines(["sim.frames = many"])
        with pytest.raises(ConfigError):
            cfgmod.parse_config_lines(["sim.frames = 1"])
        with pytest.raises(ConfigError):
            cfgmod.parse_config_lines(["lba.step = 7"])
        for line in ("calib.reject_start = 0", "calib.reject_start = -0.5",
                     "calib.reject_end = 0", "lba.k_neighbors = 0",
                     "lba.k_neighbors = 2", "lba.max_corr_dist = 0",
                     "lba.assoc_rounds = 0", "calib.downsample_leaf = -0.1",
                     "lba.downsample_leaf = -0.1", "calib.downsample_leaf = nan",
                     "calib.convergence_delta = nan", "calib.reject_end = nan",
                     "lba.max_corr_dist = nan", "voxel.l_parent = nan"):
            with pytest.raises(ConfigError):
                cfgmod.parse_config_lines([line])
        # each rule's message names its key
        for line in ("lba.step = 0", "lba.step = -2", "lba.window = 1",
                     "calib.reject_iters = 0", "calib.rot_seed_candidates = -1"):
            section, key = line.split(" =")[0].split(".")
            with pytest.raises(ConfigError, match=f"{section}.{key} = "):
                cfgmod.parse_config_lines([line])
        # the sensor model's rules, reported under their sim. key
        for line in ("sim.beams = 0", "sim.horizontal_res_deg = 0",
                     "sim.horizontal_res_deg = -2", "sim.horizontal_res_deg = 361",
                     "sim.horizontal_res_deg = nan", "sim.vertical_fov_deg = -1",
                     "sim.vertical_fov_deg = 181", "sim.vertical_fov_deg = nan",
                     "sim.max_range = 0", "sim.max_range = inf",
                     "sim.max_range = nan", "sim.range_sigma = -0.01",
                     "sim.range_sigma = inf", "sim.range_sigma = nan",
                     "sim.scan_period = -0.1", "sim.scan_period = inf",
                     "sim.scan_period = nan"):
            with pytest.raises(ConfigError, match=line.split(" =")[0]):
                cfgmod.parse_config_lines(["sim.frames = 2", line])
        cfg = cfgmod.parse_config_lines([
            "sim.horizontal_res_deg = 360", "sim.vertical_fov_deg = 0",
            "sim.vertical_fov_deg = 180", "sim.range_sigma = 0",
            "sim.scan_period = 0"])
        assert cfg.sim.lidar_model().scan_period == 0.0
        # 0 turns downsampling off
        cfg = cfgmod.parse_config_lines(["calib.downsample_leaf = 0",
                                         "lba.downsample_leaf = 0"])
        assert cfg.calib.downsample_leaf == cfg.lba.downsample_leaf == 0.0

    @pytest.mark.parametrize("key", [
        "lba.eta_max", "lba.overlap_weight", "voxel.eta_max", "voxel.gamma",
        "voxel.tau_theta_deg", "voxel.tau_d", "calib.rot_seed_max_deg",
        "calib.trans_seed_step", "calib.inner_tol", "calib.frame_stride"])
    def test_constant_key_exits_2(self, tmp_path, capsys, key):
        # each is a module constant or gone, not a key
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} = 0.1\n")
        rc = cli.main(["simulate", "--config", str(bad),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG
        assert f"unknown key {key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_deskew_key_rejected(self):
        # calibrate deskews exactly the frames with a scan duration
        with pytest.raises(ConfigError, match="unknown key calib.deskew"):
            cfgmod.parse_config_lines(["calib.deskew = false"])

    def test_comments_ignored(self):
        cfg = cfgmod.parse_config_lines(["# a comment", "sim.seed = 5  # inline"])
        assert cfg.sim.seed == 5

    def test_dump_parse_round_trip(self):
        cfg = cfgmod.parse_config_lines(FAST_CONFIG.splitlines())
        back = cfgmod.parse_config_lines(cfgmod.dump_config(cfg).splitlines())
        assert cfgmod.dump_config(back) == cfgmod.dump_config(cfg)


@pytest.fixture(scope="session")
def cli_dataset(tmp_path_factory):
    """Small noise-free dataset generated through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "fast.cfg"
    cfg_path.write_text(FAST_CONFIG)
    out = root / "dataset"
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out),
                   "--seed", "7"])
    assert rc == 0
    return root, cfg_path, out


@pytest.fixture(scope="session")
def cli_lba_dir(cli_dataset):
    root, cfg_path, out = cli_dataset
    lba_out = root / "lba"
    rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                   "--traj", str(out / "trajectory_gt.txt"),
                   "--out", str(lba_out)])
    assert rc == 0
    return lba_out


class TestSimulateCommand:
    def test_rerun_byte_identical(self, cli_dataset, tmp_path):
        root, cfg_path, out = cli_dataset
        out2 = tmp_path / "dataset2"
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                       "--seed", "7"])
        assert rc == 0
        for rel in ["A/000000.pcd", "B/000003.pcd", "trajectory_gt.txt",
                    "extrinsic_gt.txt", "meta.txt"]:
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_invalid_rig_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.rig = config9\n")
        rc = cli.main(["simulate", "--config", str(bad),
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "sim.rig" in capsys.readouterr().err


class TestLbaCommand:
    def test_noise_free_fixed_point(self, cli_dataset, capsys):
        root, cfg_path, out = cli_dataset
        lba_out = root / "lba"
        rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                       "--traj", str(out / "trajectory_gt.txt"),
                       "--out", str(lba_out)])
        assert rc == 0
        refined = pc.load_trajectory(lba_out / "trajectory_refined.txt")
        gt = pc.load_trajectory(out / "trajectory_gt.txt")
        for a, b in zip(refined.poses, gt.poses):
            assert geo.translation_error(a, b) < 1e-6
        assert (lba_out / "map_A.pcd").exists()

    def test_missing_trajectory_exits_3(self, cli_dataset, tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                       "--traj", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "lba")])
        assert rc == 3
        assert "nope.txt" in capsys.readouterr().err

    def test_no_traj_exits_2(self, cli_dataset, tmp_path, capsys):
        # ground truth is never a silent default trajectory
        _, cfg_path, out = cli_dataset
        rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                       "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        assert "--traj" in capsys.readouterr().err
        assert not (tmp_path / "lba").exists()

    def test_short_traj_exits_2(self, cli_dataset, tmp_path, capsys):
        # zipping frames with poses dropped the frames beyond the last pose
        _, cfg_path, out = cli_dataset
        gt = pc.load_trajectory(out / "trajectory_gt.txt")
        traj = tmp_path / "short.txt"
        pc.save_trajectory(pc.Trajectory(gt.stamps[:3], gt.poses[:3]), traj)
        rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                       "--traj", str(traj), "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--traj" in err and "has 3 poses" in err and "has 8 frames" in err
        assert not (tmp_path / "lba").exists()


class TestCalibrateCommand:
    def test_gt_guess(self, cli_dataset, cli_lba_dir, capsys):
        root, cfg_path, out = cli_dataset
        lba_out = cli_lba_dir
        calib_out = root / "calib"
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(lba_out),
                       "--guess", str(out / "extrinsic_gt.txt"),
                       "--out", str(calib_out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "e_trans" in text
        report = (calib_out / "calibration_report.txt").read_text()
        assert "iter,objective,update_norm,frames_used" in report
        # one comment per line of the effective config
        assert "# config lba.window = 8" in report.splitlines()
        e_line = [ln for ln in report.splitlines() if ln.startswith("e_trans_m")]
        assert float(e_line[0].split()[1]) < 1e-6

    def test_perturbed_guess(self, cli_dataset, cli_lba_dir, capsys):
        root, cfg_path, out = cli_dataset
        lba_out = cli_lba_dir
        calib_out = root / "calib_perturbed"
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(lba_out), "--perturb", "0.2", "10",
                       "--seed", "3", "--out", str(calib_out)])
        assert rc == 0
        report = (calib_out / "calibration_report.txt").read_text()
        e_line = [ln for ln in report.splitlines() if ln.startswith("e_trans_m")]
        # smoke-test bound; the precision claims run in the acceptance suite
        # on the full-resolution configuration
        assert float(e_line[0].split()[1]) < 2e-3

    @pytest.mark.parametrize("bounds", [("nan", "30"), ("0.1", "inf"),
                                        ("-0.1", "5")])
    def test_bad_perturb_bounds_exit_2(self, cli_dataset, cli_lba_dir,
                                       tmp_path, capsys, bounds):
        _, cfg_path, out = cli_dataset
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(cli_lba_dir), "--perturb", *bounds,
                       "--out", str(tmp_path / "calib")])
        assert rc == cli.EXIT_CONFIG
        assert "perturbation bounds" in capsys.readouterr().err

    def test_stride_option_exits_2(self, cli_dataset, cli_lba_dir, tmp_path,
                                   capsys):
        # every frame takes part in calibration: there is no frame stride
        _, cfg_path, out = cli_dataset
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", str(out), "--config", str(cfg_path),
                      "--lba-dir", str(cli_lba_dir),
                      "--guess", str(out / "extrinsic_gt.txt"),
                      "--stride", "2", "--out", str(tmp_path / "calib")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--stride" in capsys.readouterr().err
        assert not (tmp_path / "calib").exists()

    def test_dataset_without_ground_truth(self, cli_dataset, cli_lba_dir,
                                          tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        guess = tmp_path / "guess.txt"
        (ds / "extrinsic_gt.txt").rename(guess)
        args = ["calibrate", str(ds), "--config", str(cfg_path),
                "--lba-dir", str(cli_lba_dir), "--out", str(tmp_path / "calib")]
        assert cli.main(args + ["--guess", str(guess)]) == cli.EXIT_OK
        report = (tmp_path / "calib" / "calibration_report.txt").read_text()
        assert "# converged True" in report
        assert "e_trans_m" not in report
        assert "e_trans" not in capsys.readouterr().out
        # a perturbation of the ground truth needs the ground truth
        assert cli.main(args + ["--perturb", "0.2", "10"]) == cli.EXIT_CONFIG
        assert "extrinsic_gt.txt" in capsys.readouterr().err

    def test_no_guess_exits_2(self, cli_dataset, cli_lba_dir, tmp_path, capsys):
        # ground truth is never a silent default guess
        _, cfg_path, out = cli_dataset
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(cli_lba_dir),
                       "--out", str(tmp_path / "calib")])
        assert rc == cli.EXIT_CONFIG
        assert "no initial guess" in capsys.readouterr().err
        assert not (tmp_path / "calib").exists()

    def test_missing_refined_trajectory_exits_3(self, cli_dataset, cli_lba_dir,
                                                tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        empty = tmp_path / "no_lba"
        empty.mkdir()
        args = ["calibrate", str(out), "--config", str(cfg_path),
                "--lba-dir", str(empty), "--map", str(cli_lba_dir / "map_A.pcd"),
                "--guess", str(out / "extrinsic_gt.txt"),
                "--out", str(tmp_path / "calib")]
        assert cli.main(args) == cli.EXIT_IO
        assert "trajectory_refined.txt" in capsys.readouterr().err
        # an explicit --traj is taken as given, ground truth included
        rc = cli.main(args + ["--traj", str(out / "trajectory_gt.txt")])
        assert rc == cli.EXIT_OK

    def test_traj_without_poses_exits_2(self, cli_dataset, cli_lba_dir,
                                        tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        traj = tmp_path / "empty.txt"
        traj.write_text("# stamp x y z qx qy qz qw\n")
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(cli_lba_dir), "--traj", str(traj),
                       "--guess", str(out / "extrinsic_gt.txt"),
                       "--out", str(tmp_path / "calib")])
        assert rc == cli.EXIT_CONFIG
        assert "trajectory is empty" in capsys.readouterr().err
        assert not (tmp_path / "calib").exists()


class TestReadDataset:
    def test_frame_count_mismatch_exits_2(self, cli_dataset, tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        sorted((ds / "B").glob("*.pcd"))[-1].unlink()
        rc = cli.main(["lba", str(ds), "--config", str(cfg_path),
                       "--traj", str(ds / "trajectory_gt.txt"),
                       "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        assert "sensor B frames" in capsys.readouterr().err

    def test_frames_beyond_trajectory_exit_2(self, cli_dataset, tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        traj = ds / "trajectory_gt.txt"
        lines = traj.read_text().splitlines()
        traj.write_text("\n".join(lines[:-1]) + "\n")
        rc = cli.main(["lba", str(ds), "--config", str(cfg_path),
                       "--traj", str(ds / "trajectory_gt.txt"),
                       "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        assert "trajectory poses" in capsys.readouterr().err

    def test_malformed_meta_value_exits_2(self, cli_dataset, tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        meta = ds / "meta.txt"
        lines = [("beams=sixteen" if ln.split("=")[0].strip() == "beams" else ln)
                 for ln in meta.read_text().splitlines()]
        assert "beams=sixteen" in lines
        meta.write_text("\n".join(lines) + "\n")
        rc = cli.main(["lba", str(ds), "--config", str(cfg_path),
                       "--traj", str(ds / "trajectory_gt.txt"),
                       "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(meta) in err and "beams" in err

    # caught before any cloud is read, so the message names meta.txt and
    # the key, not the first .pcd file
    @pytest.mark.parametrize("key, value", [
        ("scan_period", "nan"), ("scan_period", "-1"), ("beams", "0"),
        ("range_sigma", "nan"), ("horizontal_res_deg", "0"),
        ("vertical_fov_deg", "0")])
    def test_bad_meta_model_exits_2(self, cli_dataset, tmp_path, capsys,
                                    key, value):
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        meta = ds / "meta.txt"
        lines = [(f"{key}={value}" if ln.split("=")[0].strip() == key else ln)
                 for ln in meta.read_text().splitlines()]
        assert f"{key}={value}" in lines
        meta.write_text("\n".join(lines) + "\n")
        rc = cli.main(["lba", str(ds), "--config", str(cfg_path),
                       "--traj", str(ds / "trajectory_gt.txt"),
                       "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{meta}: {key} = " in err
        assert ".pcd" not in err

    @pytest.mark.parametrize("column, value, error", [
        (0, "nan", "non-finite point positions"),
        (3, "1.0", "time_offsets outside"),  # t beyond the 0.1 s sweep
        (3, "nan", "time_offsets outside"),
    ])
    def test_bad_point_row_exits_2(self, cli_dataset, tmp_path, capsys,
                                   column, value, error):
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        cloud = ds / "A" / "000000.pcd"
        lines = cloud.read_text().splitlines()
        row = lines[-1].split()
        row[column] = value
        lines[-1] = " ".join(row)
        cloud.write_text("\n".join(lines) + "\n")
        rc = cli.main(["lba", str(ds), "--config", str(cfg_path),
                       "--traj", str(ds / "trajectory_gt.txt"),
                       "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(cloud) in err and error in err


# every exception `cli.main` maps, with its exit code
MAPPED_ERRORS = [
    (errors.ConfigError, cli.EXIT_CONFIG), (errors.ParseError, cli.EXIT_CONFIG),
    (errors.InvalidParams, cli.EXIT_CONFIG),
    (errors.UnsupportedField, cli.EXIT_CONFIG),
    (errors.NonMonotonicStamps, cli.EXIT_CONFIG),
    (errors.StampMismatch, cli.EXIT_CONFIG), (errors.EmptyFrame, cli.EXIT_CONFIG),
    (OSError, cli.EXIT_IO), (errors.DegenerateGeometry, cli.EXIT_DEGENERATE),
    (errors.NoCorrespondences, cli.EXIT_NO_CORRESPONDENCES),
    (errors.Unobservable, cli.EXIT_UNOBSERVABLE),
    (errors.AngleNearPi, cli.EXIT_UNOBSERVABLE),
]


# the simulator's float keys outside the sensor model
SIM_FLOAT_KEYS = ["traj_length", "dt", "sweep_deg", "start_x", "start_y",
                  "start_z", "rig_x", "rig_y", "rig_z", "rig_roll_deg",
                  "rig_pitch_deg", "rig_yaw_deg"]


class TestExitCodes:
    """Each documented error reaches its exit code, with a message."""

    @pytest.mark.parametrize("error, code", MAPPED_ERRORS,
                             ids=[e.__name__ for e, _ in MAPPED_ERRORS])
    def test_error_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("the reason")

        monkeypatch.setitem(cli._HANDLERS, "evaluate", fail)
        assert cli.main(["evaluate"]) == code
        assert "the reason" in capsys.readouterr().err

    def test_every_package_error_is_mapped(self):
        # every subclass, wherever defined: one left out of `cli.main`
        # would exit 1 with a traceback
        package, pending = set(), [errors.LidarCalibError]
        while pending:
            subclasses = pending.pop().__subclasses__()
            package.update(subclasses)
            pending.extend(subclasses)
        assert package == {e for e, _ in MAPPED_ERRORS} - {OSError}

    def test_invalid_params_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.beams = 0\n")
        rc = cli.main(["simulate", "--config", str(bad),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG
        assert "beam count" in capsys.readouterr().err

    # each must stop before anything is simulated: 0 divides 360, a NaN
    # period breaks the sweep's rotations, a NaN sigma reads as no noise, a
    # zero vertical span stores each point once per beam, and numpy's
    # generators take no negative seed
    @pytest.mark.parametrize("line", ["sim.horizontal_res_deg = 0",
                                      "sim.scan_period = nan",
                                      "sim.range_sigma = nan",
                                      "sim.vertical_fov_deg = 0",
                                      "sim.seed = -1"])
    def test_bad_sensor_model_exits_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"sim.frames = 2\n{line}\n")
        out = tmp_path / "x"
        rc = cli.main(["simulate", "--config", str(bad), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()

    # each float went on to the simulator unchecked: a NaN dt or sweep broke
    # a rotation, a non-finite length or start a translation, a zero sweep
    # divided by zero, a subnormal sweep made the turn radius infinite (or
    # divided by zero once in radians), and a non-finite custom rig failed
    # building its pose
    @pytest.mark.parametrize("command", [
        ["simulate", "--out", "out"],
        ["sweep", "--trials", "2", "--jobs", "1", "--out-csv", "out"]],
        ids=["simulate", "sweep"])
    @pytest.mark.parametrize("line", [
        *(f"sim.{key} = {value}" for key in SIM_FLOAT_KEYS
          for value in ("nan", "inf")),
        "sim.sweep_deg = 0", "sim.sweep_deg = 1e-320", "sim.sweep_deg = 5e-324",
        "sim.scene = nowhere", "sim.traj_kind = nowhere", "sim.rig = nowhere"])
    def test_bad_sim_key_exits_2_before_simulating(self, tmp_path, capsys,
                                                   monkeypatch, command, line):
        def run_trial(cfg, trial, base_seed, perturb_spec):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", run_trial)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text(f"sim.rig = custom\n{line}\n")
        rc = cli.main([*command, "--config", "bad.cfg"])
        assert rc == cli.EXIT_CONFIG
        assert f"{line.split(' =')[0]} = " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--out", "x"],
        ["calibrate", "ds", "--perturb", "0.1", "5", "--out", "x"],
        ["sweep", "--trials", "1", "--out-csv", "x.csv"]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        rc = cli.main([*command, "--seed", "-1"])
        assert rc == cli.EXIT_CONFIG
        assert "sim.seed = -1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_zero_reject_start_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("calib.reject_start = 0\n")
        rc = cli.main(["simulate", "--config", str(bad),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG
        assert "reject_start" in capsys.readouterr().err

    def test_empty_frame_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "blind.cfg"
        cfg.write_text(FAST_CONFIG + "sim.max_range = 0.001\n")
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG
        assert "no returns" in capsys.readouterr().err

    def test_unsupported_field_exits_2(self, cli_dataset, cli_lba_dir,
                                       tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        text = (cli_lba_dir / "map_A.pcd").read_text()
        fields = next(ln for ln in text.splitlines() if ln.startswith("FIELDS"))
        bad = tmp_path / "map_rgb.pcd"
        bad.write_text(text.replace(fields, "FIELDS x y z rgb", 1))
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(cli_lba_dir), "--map", str(bad),
                       "--out", str(tmp_path / "calib")])
        assert rc == cli.EXIT_CONFIG
        assert "unsupported FIELDS" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["lba", "calibrate", "calibrate-source"])
    def test_far_point_exits_2(self, cli_dataset, cli_lba_dir, tmp_path,
                               capsys, case):
        # one point 1e10 m out spans more grid cells than int64 keys hold;
        # the message names the cloud that holds it
        _, cfg_path, out = cli_dataset
        ds = tmp_path / "ds"
        shutil.copytree(out, ds)
        command = case.split("-")[0]
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        if command == "lba":
            source = cloud = ds / "A" / "000000.pcd"
            name = "sensor A: frame 0:"
            args += ["--traj", str(ds / "trajectory_gt.txt")]
        elif case == "calibrate":
            source, cloud = cli_lba_dir / "map_A.pcd", tmp_path / "map.pcd"
            name = f"map {cloud}:"
            args += ["--lba-dir", str(cli_lba_dir), "--map", str(cloud),
                     "--guess", str(ds / "extrinsic_gt.txt")]
        else:
            source = cloud = ds / "B" / "000002.pcd"
            name = "sensor B: frame 2:"
            args += ["--lba-dir", str(cli_lba_dir),
                     "--guess", str(ds / "extrinsic_gt.txt")]
        lines = source.read_text().splitlines()
        n = int(next(ln for ln in lines if ln.startswith("POINTS")).split()[1])
        lines = [f"WIDTH {n + 1}" if ln.startswith("WIDTH") else
                 f"POINTS {n + 1}" if ln.startswith("POINTS") else ln
                 for ln in lines] + ["10000000000 10000000000 10000000000 0"]
        cloud.write_text("\n".join(lines) + "\n")
        rc = cli.main([command, str(ds), *args])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "far from the rest" in err and name in err

    def test_non_monotonic_stamps_exit_2(self, cli_dataset, tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        lines = (out / "trajectory_gt.txt").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        traj = tmp_path / "swapped.txt"
        traj.write_text("\n".join(lines) + "\n")
        rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                       "--traj", str(traj), "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        assert "strictly increasing" in capsys.readouterr().err

    def test_stamp_mismatch_exits_2(self, cli_dataset, tmp_path, capsys):
        _, cfg_path, out = cli_dataset
        gt = pc.load_trajectory(out / "trajectory_gt.txt")
        traj = tmp_path / "shifted.txt"
        pc.save_trajectory(pc.Trajectory(gt.stamps + 0.05, gt.poses), traj)
        rc = cli.main(["lba", str(out), "--config", str(cfg_path),
                       "--traj", str(traj), "--out", str(tmp_path / "lba")])
        assert rc == cli.EXIT_CONFIG
        assert "does not match trajectory" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_reads_the_calibration_report(self, cli_dataset, cli_lba_dir,
                                          tmp_path, capsys):
        # README's usage: calibrate, then evaluate its report against the
        # ground truth; the report's estimate is its first pose line
        _, cfg_path, out = cli_dataset
        calib_out = tmp_path / "calib"
        rc = cli.main(["calibrate", str(out), "--config", str(cfg_path),
                       "--lba-dir", str(cli_lba_dir), "--perturb", "0.3", "20",
                       "--seed", "1", "--out", str(calib_out)])
        assert rc == 0
        capsys.readouterr()
        report = calib_out / "calibration_report.txt"
        rc = cli.main(["evaluate", str(report),
                       "--gt", str(out / "extrinsic_gt.txt")])
        assert rc == 0
        printed = capsys.readouterr().out.split()
        e_line = [ln for ln in report.read_text().splitlines()
                  if ln.startswith("e_trans_m")]
        assert float(printed[printed.index("e_trans") + 1]) == pytest.approx(
            float(e_line[0].split()[1]), abs=1e-9)

    def test_identical_files(self, cli_dataset, capsys):
        _, _, out = cli_dataset
        gt_file = str(out / "extrinsic_gt.txt")
        rc = cli.main(["evaluate", gt_file, "--gt", gt_file])
        assert rc == 0
        assert "e_trans 0 m" in capsys.readouterr().out

    def test_known_offset(self, cli_dataset, tmp_path, capsys):
        _, _, out = cli_dataset
        gt = pc.load_pose(out / "extrinsic_gt.txt")
        shifted = geo.Pose(gt.rotation, gt.translation + np.array([0.005, 0, 0]))
        est_file = tmp_path / "est.txt"
        est_file.write_text(pc.format_pose_line(shifted, 0.0) + "\n")
        rc = cli.main(["evaluate", str(est_file), "--gt",
                       str(out / "extrinsic_gt.txt")])
        assert rc == 0
        assert "0.005" in capsys.readouterr().out

    def test_csv_mean_matches_oracle(self, cli_dataset, tmp_path, capsys):
        _, _, out = cli_dataset
        gt = pc.load_pose(out / "extrinsic_gt.txt")
        rng = np.random.default_rng(0)
        files = []
        for i in range(5):
            est = geo.Pose(gt.rotation, gt.translation + rng.normal(0, 0.01, 3))
            path = tmp_path / f"est{i}.txt"
            path.write_text(pc.format_pose_line(est, 0.0) + "\n")
            files.append(str(path))
        csv_path = tmp_path / "out.csv"
        rc = cli.main(["evaluate", *files, "--gt", str(out / "extrinsic_gt.txt"),
                       "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        vals = [float(ln.split(",")[1]) for ln in lines[1:-1]]
        mean_line = float(lines[-1].split(",")[1])
        assert mean_line == pytest.approx(np.mean(vals), abs=1e-12)

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a pose\n")
        rc = cli.main(["evaluate", str(bad), "--gt", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("line", ["0 0 0 0 0 0 0 0", "0 0 0 0 nan 0 0 1",
                                      "0 inf 0 0 0 0 0 1"])
    def test_degenerate_pose_exits_2(self, cli_dataset, tmp_path, capsys, line):
        _, _, out = cli_dataset
        est = tmp_path / "est.txt"
        est.write_text(line + "\n")
        rc = cli.main(["evaluate", str(est), "--gt", str(out / "extrinsic_gt.txt")])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "line 1" in captured.err
        assert "nan" not in captured.out


def sweep_columns(path):
    """A sweep CSV's cells by column, wall_seconds left out."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {c: [r[k] for r in rows] for k, c in enumerate(header)
            if c != "wall_seconds"}


@pytest.fixture(scope="module")
def serial_two_trial_sweep(cli_dataset, tmp_path_factory):
    """The columns of a two-trial serial sweep (--jobs 1)."""
    _, cfg_path, _ = cli_dataset
    csv_path = tmp_path_factory.mktemp("sweep") / "serial.csv"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--trials", "2",
                   "--out-csv", str(csv_path), "--seed", "11",
                   "--perturb", "0.2", "10", "--jobs", "1"])
    assert rc == 0
    return sweep_columns(csv_path)


class TestSweepCommand:
    # --jobs 2 runs the trials in a process pool; every column but
    # wall_seconds must equal the serial sweep's
    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
    def test_two_trials(self, cli_dataset, serial_two_trial_sweep, tmp_path,
                        capsys, jobs):
        _, cfg_path, _ = cli_dataset
        csv_path = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--trials", "2",
                       "--out-csv", str(csv_path), "--seed", "11",
                       "--perturb", "0.2", "10", "--jobs", jobs])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("trial,seed,")
        assert len(lines) == 4  # header + 2 trials + mean
        # summary means recomputed from the rows
        rows = [ln.split(",") for ln in lines[1:3]]
        mean_row = lines[3].split(",")
        for col in (2, 3, 4, 5):
            expected = np.mean([float(r[col]) for r in rows])
            assert float(mean_row[col]) == pytest.approx(expected, rel=1e-6)
        assert sweep_columns(csv_path) == serial_two_trial_sweep

    def test_single_trial_summary_equals_row(self, cli_dataset, tmp_path):
        _, cfg_path, _ = cli_dataset
        csv_path = tmp_path / "sweep1.csv"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--trials", "1",
                       "--out-csv", str(csv_path), "--seed", "5",
                       "--perturb", "0.1", "5"])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        row = lines[1].split(",")
        mean = lines[2].split(",")
        for col in (2, 3, 4, 5):
            assert float(mean[col]) == pytest.approx(float(row[col]), rel=1e-9)

    def test_failing_trial_counts_against_quota(self, tmp_path, monkeypatch,
                                                capsys):
        def run_trial(cfg, trial, base_seed, perturb_spec):
            if trial == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            row = {c: 0.001 for c in cli._CSV_COLUMNS if c != "error"}
            row.update(trial=trial, seed=base_seed + trial)
            return row

        monkeypatch.setattr(cli, "run_trial", run_trial)
        csv_path = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--trials", "2", "--jobs", "1",
                       "--out-csv", str(csv_path), "--seed", "3"])
        assert rc == cli.EXIT_SWEEP_QUOTA
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].endswith(",outer_iters,error,wall_seconds")
        assert lines[1] == "0,3,0.001,0.001,0.001,0.001,0.001,,0.001"
        assert lines[2] == "1,4,nan,nan,nan,nan,nan,LinAlgError: Singular matrix,nan"
        captured = capsys.readouterr()
        assert "trial 1: FAILED (LinAlgError: Singular matrix)" in captured.out
        assert "only 1/2 trials succeeded" in captured.err

    @pytest.mark.parametrize("bounds", [("nan", "30"), ("0.1", "inf")])
    def test_bad_perturb_bounds_exit_2_before_any_trial(self, tmp_path,
                                                         monkeypatch, capsys,
                                                         bounds):
        def run_trial(cfg, trial, base_seed, perturb_spec):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", run_trial)
        csv_path = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--trials", "2", "--jobs", "1",
                       "--out-csv", str(csv_path), "--perturb", *bounds])
        assert rc == cli.EXIT_CONFIG
        assert "perturbation bounds" in capsys.readouterr().err
        assert not csv_path.exists()

    # a count below 1 wrote a header-only CSV (--trials) or ran serially
    # (--jobs)
    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-2"),
                                             ("--jobs", "0"), ("--jobs", "-1")])
    def test_bad_count_exits_2_before_any_trial(self, tmp_path, monkeypatch,
                                                capsys, flag, value):
        def run_trial(cfg, trial, base_seed, perturb_spec):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", run_trial)
        csv_path = tmp_path / "sweep.csv"
        args = {"--trials": "2", "--jobs": "1", flag: value}
        rc = cli.main(["sweep", "--out-csv", str(csv_path),
                       *(a for kv in args.items() for a in kv)])
        assert rc == cli.EXIT_CONFIG
        assert f"{flag} = {value}" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_error_cell_is_quoted(self, tmp_path, monkeypatch):
        def run_trial(cfg, trial, base_seed, perturb_spec):
            raise ValueError('bad "rig", try again')

        monkeypatch.setattr(cli, "run_trial", run_trial)
        csv_path = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--trials", "1", "--jobs", "1",
                       "--out-csv", str(csv_path), "--seed", "3"])
        assert rc == cli.EXIT_SWEEP_QUOTA
        with open(csv_path, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert len(row) == len(header)
        assert dict(zip(header, row))["error"] == 'ValueError: bad "rig", try again'
        assert row[-1] == "nan"

    def test_deterministic_modulo_wall_time(self, cli_dataset, tmp_path):
        _, cfg_path, _ = cli_dataset
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            rc = cli.main(["sweep", "--config", str(cfg_path), "--trials", "1",
                           "--out-csv", str(path), "--seed", "11",
                           "--perturb", "0.2", "10"])
            assert rc == 0

        def strip_wall(path):
            return ["," .join(ln.split(",")[:-1])
                    for ln in path.read_text().splitlines()]

        assert strip_wall(paths[0]) == strip_wall(paths[1])
