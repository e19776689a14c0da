"""Batch command-line pipeline: simulate, lba, calibrate, evaluate, sweep.

Exit codes are fixed for scripting:

- 0 ok;
- 2 bad configuration or input: ConfigError, ParseError, InvalidParams,
  UnsupportedField (PCD fields), NonMonotonicStamps, StampMismatch, and
  EmptyFrame (a simulated sweep with no returns);
- 3 I/O failure, including a missing input file;
- 4 degenerate window geometry;
- 5 no correspondences;
- 6 unobservable plane geometry, or AngleNearPi (a rotation within 1e-6 rad
  of pi, where the logarithm is ill conditioned);
- 7 sweep failure quota exceeded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import extrinsic as ext
from . import geometry as geo
from . import lba
from . import pointcloud as pc
from . import simulator as sim
from . import voxelmap as vm
from .config import RunConfig, dump_config, load_config
from .errors import (AngleNearPi, ConfigError, DegenerateGeometry, EmptyFrame,
                     InvalidParams, NoCorrespondences, NonMonotonicStamps,
                     ParseError, StampMismatch, Unobservable, UnsupportedField)
from .geometry import Pose

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_NO_CORRESPONDENCES = 5
EXIT_UNOBSERVABLE = 6
EXIT_SWEEP_QUOTA = 7


def _load_effective_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.sim.seed = args.seed
    cfg.validate()
    return cfg


def _sim_objects(cfg: RunConfig):
    scene = sim.builtin_scene(cfg.sim.scene)
    traj = sim.make_trajectory(
        cfg.sim.traj_kind, cfg.sim.traj_length, cfg.sim.frames,
        dt=cfg.sim.dt, start=(cfg.sim.start_x, cfg.sim.start_y, cfg.sim.start_z),
        sweep_deg=cfg.sim.sweep_deg)
    model = cfg.sim.lidar_model()
    if cfg.sim.rig == "custom":
        rig = sim.RigConfig(cfg.sim.rig_x, cfg.sim.rig_y, cfg.sim.rig_z,
                            cfg.sim.rig_roll_deg, cfg.sim.rig_pitch_deg,
                            cfg.sim.rig_yaw_deg)
    else:
        rig = sim.RIG_PRESETS[cfg.sim.rig]
    return scene, traj, rig, model


def _deskew_all(frames, traj, scan_period):
    ends = pc.scan_end_poses(traj, scan_period)
    return [pc.deskew(f, p, e) for f, p, e in zip(frames, traj.poses, ends)]


def build_map_index(map_points: np.ndarray, cfg: RunConfig) -> vm.VoxelMapIndex:
    index = vm.build_adaptive(map_points, cfg.voxel)
    return vm.merge_neighbors(index, math.radians(vm.TAU_THETA_DEG), vm.TAU_D)


def cmd_simulate(args) -> int:
    cfg = _load_effective_config(args)
    out = Path(args.out)
    scene, traj, rig, model = _sim_objects(cfg)
    ds = sim.generate_dataset(scene, traj, rig, model, cfg.sim.seed,
                              rig_name=cfg.sim.rig)
    sim.write_dataset(ds, out)
    (out / "effective_config.txt").write_text(dump_config(cfg))
    print(f"wrote dataset with {len(ds.frames_a)} frame pairs to {out}")
    return EXIT_OK


def cmd_lba(args) -> int:
    if not args.traj:
        raise ConfigError("no trajectory to refine: pass --traj FILE "
                          "(DATASET/trajectory_gt.txt starts from ground truth)")
    cfg = _load_effective_config(args)
    ds = sim.read_dataset(args.dataset)
    traj = pc.load_trajectory(args.traj)
    if len(traj) != len(ds.frames_a):
        raise StampMismatch(f"--traj {args.traj} has {len(traj)} poses but the "
                            f"dataset has {len(ds.frames_a)} frames")
    frames = _deskew_all(ds.frames_a, traj, ds.model.scan_period)
    try:
        result = lba.run_sliding_lba(frames, traj, cfg.lba)
    except InvalidParams as exc:
        # the config is valid: the input is at fault
        raise InvalidParams(f"sensor A: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pc.save_trajectory(result.trajectory, out / "trajectory_refined.txt")
    map_frame = pc.Frame(result.map.points, 0.0, 0.0)
    pc.save_cloud(map_frame, out / "map_A.pcd")
    (out / "effective_config.txt").write_text(dump_config(cfg))
    print("window  initial_cost  final_cost")
    for m, w in enumerate(result.window_results):
        print(f"{m:6d}  {w.initial_cost:12.6g}  {w.final_cost:12.6g}")
    gt_path = Path(args.dataset) / "trajectory_gt.txt"
    if gt_path.exists():
        gt = pc.load_trajectory(gt_path)
        before = lba.trajectory_error(traj, gt)
        after = lba.trajectory_error(result.trajectory, gt)
        print(f"mean pose error before: {before[0]:.6f} m {before[1]:.6f} rad")
        print(f"mean pose error after:  {after[0]:.6f} m {after[1]:.6f} rad")
    print(f"map points: {len(result.map.points)}")
    return EXIT_OK


def _resolve_guess(args, gt: Pose | None) -> Pose:
    if args.guess:
        return pc.load_pose(args.guess)
    if args.perturb:
        if gt is None:
            raise ConfigError("--perturb requires a dataset with extrinsic_gt.txt")
        max_trans, max_rot = args.perturb
        return sim.perturb(gt, max_trans, max_rot, args.seed or 0)
    raise ConfigError("no initial guess: pass --guess FILE or --perturb T R")


def cmd_calibrate(args) -> int:
    cfg = _load_effective_config(args)
    ds = sim.read_dataset(args.dataset)
    map_path = args.map or str(Path(args.lba_dir or args.dataset) / "map_A.pcd")
    traj_path = args.traj or str(Path(args.lba_dir or args.dataset)
                                 / "trajectory_refined.txt")
    if not Path(traj_path).exists():
        raise FileNotFoundError(
            f"trajectory {traj_path} not found (run `lidarcalib lba` first, "
            "or pass --traj)")
    map_frame = pc.load_cloud(map_path)
    traj = pc.load_trajectory(traj_path)
    anchors = [traj.poses[traj.index_for_stamp(f.stamp)] for f in ds.frames_b]
    gt = ds.extrinsic
    guess = _resolve_guess(args, gt)
    try:
        index = build_map_index(map_frame.positions, cfg)
    except InvalidParams as exc:
        raise InvalidParams(f"map {map_path}: {exc}") from exc
    try:
        result = ext.calibrate(index, ds.frames_b, anchors, guess, cfg.calib)
    except InvalidParams as exc:
        raise InvalidParams(f"sensor B: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext.write_report(out / "calibration_report.txt", result, gt=gt,
                     config=dump_config(cfg))
    print("estimate:", pc.format_pose_line(result.extrinsic, 0.0))
    print(f"converged: {result.converged} after {result.iterations} iterations")
    if gt is not None:
        e_t, e_r = ext.evaluate(result, gt)
        print(f"e_trans: {e_t:.6f} m   e_rot: {e_r:.6f} rad "
              f"({math.degrees(e_r):.4f} deg)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if not args.gt or not args.estimates:
        raise ConfigError("evaluate needs estimate files and --gt")
    gt = pc.load_pose(args.gt)
    rows = []
    for est_path in args.estimates:
        est = pc.load_pose(est_path)
        e_t = geo.translation_error(est, gt)
        e_r = geo.rotation_error(est, gt)
        rows.append((est_path, e_t, e_r))
        print(f"{est_path}: e_trans {e_t:.9g} m  e_rot {e_r:.9g} rad "
              f"({math.degrees(e_r):.6g} deg)")
    mean_t = sum(r[1] for r in rows) / len(rows)
    mean_r = sum(r[2] for r in rows) / len(rows)
    if len(rows) > 1:
        print(f"mean: e_trans {mean_t:.9g} m  e_rot {mean_r:.9g} rad")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("file,e_trans,e_rot\n")
            for path, e_t, e_r in rows:
                fh.write(f"{path},{e_t:.12g},{e_r:.12g}\n")
            fh.write(f"mean,{mean_t:.12g},{mean_r:.12g}\n")
    return EXIT_OK


def run_trial(cfg: RunConfig, trial: int, base_seed: int,
              perturb_spec: tuple[float, float]) -> dict:
    """simulate -> lba -> calibrate once; returns one sweep CSV row plus the
    `CalibrationResult` ("result") and the `LbaResult` ("lba"), which the
    sweep drops."""
    start_time = time.perf_counter()
    seed = base_seed + trial
    scene, traj, rig, model = _sim_objects(cfg)
    ds = sim.generate_dataset(scene, traj, rig, model, seed, rig_name=cfg.sim.rig)
    frames = _deskew_all(ds.frames_a, traj, model.scan_period)
    lba_result = lba.run_sliding_lba(frames, traj, cfg.lba)
    index = build_map_index(lba_result.map.points, cfg)
    guess = sim.perturb(ds.extrinsic, perturb_spec[0], perturb_spec[1], seed)
    anchors = list(lba_result.trajectory.poses)
    result = ext.calibrate(index, ds.frames_b, anchors, guess, cfg.calib)
    init_t, init_r = ext.evaluate(guess, ds.extrinsic)
    final_t, final_r = ext.evaluate(result, ds.extrinsic)
    return {
        "trial": trial,
        "seed": seed,
        "init_e_trans": init_t,
        "init_e_rot": init_r,
        "final_e_trans": final_t,
        "final_e_rot": final_r,
        "outer_iters": result.iterations,
        "wall_seconds": time.perf_counter() - start_time,
        "result": result,
        "lba": lba_result,
    }


# error is "<TypeName>: <message>" for a failed trial and empty otherwise;
# wall_seconds stays last, after every deterministic column
_CSV_COLUMNS = ["trial", "seed", "init_e_trans", "init_e_rot",
                "final_e_trans", "final_e_rot", "outer_iters", "error",
                "wall_seconds"]
_MEAN_COLUMNS = [c for c in _CSV_COLUMNS[2:] if c != "error"]


def _trial_task(payload):
    cfg, trial, base_seed, perturb_spec = payload
    try:
        row = run_trial(cfg, trial, base_seed, perturb_spec)
        row.pop("result", None)
        row.pop("lba", None)
        return row
    except Exception as exc:  # one bad trial must not end the sweep
        traceback.print_exc(file=sys.stderr)
        return {"trial": trial, "seed": base_seed + trial,
                "error": f"{type(exc).__name__}: {exc}"}


def cmd_sweep(args) -> int:
    cfg = _load_effective_config(args)
    for flag, count in (("--trials", args.trials), ("--jobs", args.jobs)):
        if count < 1:
            raise ConfigError(f"{flag} = {count}: must be >= 1")
    perturb_spec = tuple(args.perturb) if args.perturb else (0.4, 30.0)
    sim.check_perturb_bounds(*perturb_spec)
    base_seed = cfg.sim.seed
    payloads = [(cfg, i, base_seed, perturb_spec)
                for i in range(args.trials)]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_trial_task, payloads))
    else:
        rows = [_trial_task(p) for p in payloads]
    ok_rows = [r for r in rows if "error" not in r]
    with open(args.out_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            # a failed trial has only trial, seed and error
            missing = "nan" if "error" in row else ""
            writer.writerow([_format_cell(row.get(c, missing))
                             for c in _CSV_COLUMNS])
        if ok_rows:
            means = {c: f"{np.mean([r[c] for r in ok_rows]):.9g}"
                     for c in _MEAN_COLUMNS}
            writer.writerow(["mean", ""] + [means.get(c, "")
                                            for c in _CSV_COLUMNS[2:]])
    for row in rows:
        if "error" in row:
            print(f"trial {row['trial']}: FAILED ({row['error']})")
        else:
            print(f"trial {row['trial']}: e_trans {row['final_e_trans']:.6f} m "
                  f"e_rot {row['final_e_rot']:.6f} rad "
                  f"iters {row['outer_iters']}")
    if ok_rows:
        print(f"mean final e_trans {np.mean([r['final_e_trans'] for r in ok_rows]):.6f} m "
              f"e_rot {np.mean([r['final_e_rot'] for r in ok_rows]):.6f} rad")
    if len(ok_rows) < 0.9 * len(rows):
        print(f"only {len(ok_rows)}/{len(rows)} trials succeeded", file=sys.stderr)
        return EXIT_SWEEP_QUOTA
    return EXIT_OK


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarcalib",
        description="Targetless dual-LiDAR extrinsic calibration pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--config")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int)

    p_lba = sub.add_parser("lba", help="refine the trajectory and build the map")
    p_lba.add_argument("dataset")
    p_lba.add_argument("--config")
    p_lba.add_argument("--traj", help="trajectory to refine (required)")
    p_lba.add_argument("--out", required=True)

    p_cal = sub.add_parser("calibrate", help="estimate the extrinsic transform")
    p_cal.add_argument("dataset")
    p_cal.add_argument("--config")
    p_cal.add_argument("--lba-dir", help="directory with map_A.pcd and "
                                         "trajectory_refined.txt")
    p_cal.add_argument("--map")
    p_cal.add_argument("--traj")
    p_cal.add_argument("--guess", help="pose file with the initial estimate "
                                       "(this or --perturb is required)")
    p_cal.add_argument("--perturb", nargs=2, type=float,
                       metavar=("T_M", "ROT_DEG"))
    p_cal.add_argument("--seed", type=int)
    p_cal.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="compare estimates to ground truth")
    p_eval.add_argument("estimates", nargs="*")
    p_eval.add_argument("--gt")
    p_eval.add_argument("--csv")

    p_sweep = sub.add_parser("sweep", help="repeated simulate/lba/calibrate trials")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--out-csv", required=True)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--perturb", nargs=2, type=float,
                         metavar=("T_M", "ROT_DEG"))
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "lba": cmd_lba,
    "calibrate": cmd_calibrate,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ParseError, InvalidParams, UnsupportedField,
            NonMonotonicStamps, StampMismatch, EmptyFrame) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DegenerateGeometry as exc:
        print(f"error: degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NoCorrespondences as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CORRESPONDENCES
    except (Unobservable, AngleNearPi) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE


if __name__ == "__main__":
    sys.exit(main())
