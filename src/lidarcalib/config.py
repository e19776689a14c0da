"""Run configuration: flat `section.key = value` text files.

Sections map onto the pipeline stages (sim, lba, voxel, calib); unknown keys
are rejected so typos fail loudly. The lba, voxel and calib sections are the
parameter dataclasses of their modules (`LbaParams`, `VoxelParams`,
`CalibConfig`) and hold only what callers set. Everything with one value
in use (LM damping and tolerance, Cauchy factor, planarity, flatness and
merge gates, seeding grid and the like) is a module constant in `ptplane`,
`lba`, `voxelmap` or `extrinsic`, not a config key.

Each section checks its keys with `errors.check_rules`; a bad value reads
`section.key = value: rule`. Scene, kind and rig names are `simulator`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import simulator as sim
from .errors import ConfigError, InvalidParams, check_rules
from .extrinsic import CalibConfig
from .lba import LbaParams
from .voxelmap import VoxelParams


@dataclass
class SimSection:
    scene: str = "room"
    traj_kind: str = "arc"
    traj_length: float = 4.0
    frames: int = 40
    sweep_deg: float = 75.0
    start_x: float = 3.5
    start_y: float = 3.5
    start_z: float = 2.0
    dt: float = 0.1
    beams: int = 16
    vertical_fov_deg: float = 30.0
    horizontal_res_deg: float = 0.4
    max_range: float = 50.0
    range_sigma: float = 0.01
    scan_period: float = 0.1
    rig: str = "config1"
    rig_x: float = 0.0
    rig_y: float = 0.0
    rig_z: float = 0.0
    rig_roll_deg: float = 0.0
    rig_pitch_deg: float = 0.0
    rig_yaw_deg: float = 0.0
    seed: int = 0

    def validate(self):
        check_rules(vars(self), (
            *((f.name, math.isfinite(getattr(self, f.name)), "must be finite")
              for f in fields(self) if isinstance(f.default, float)),
            ("scene", self.scene in sim.SCENES,
             f"must be one of {', '.join(sim.SCENES)}"),
            ("traj_kind", self.traj_kind in sim.TRAJECTORY_KINDS,
             f"must be one of {', '.join(sim.TRAJECTORY_KINDS)}"),
            ("frames", self.frames >= 2, "must be >= 2"),
            ("sweep_deg", self.traj_kind not in sim.TURNING_KINDS
             or (math.radians(self.sweep_deg) != 0.0 and math.isfinite(
                 self.traj_length / math.radians(self.sweep_deg))),
             f"must be non-zero, with a finite turn radius traj_length / "
             f"radians(sweep_deg), for traj_kind = {self.traj_kind}"),
            ("dt", self.dt > 0.0, "must be > 0"),
            ("rig", self.rig == "custom" or self.rig in sim.RIG_PRESETS,
             f"must be custom or one of {', '.join(sim.RIG_PRESETS)}"),
            ("seed", self.seed >= 0, "must be >= 0"),
        ))
        self.lidar_model()

    def lidar_model(self) -> sim.LidarModel:
        """The sensor model these keys describe; raises InvalidParams."""
        return sim.LidarModel(**{f.name: getattr(self, f.name)
                                 for f in fields(sim.LidarModel)})


@dataclass
class RunConfig:
    sim: SimSection = field(default_factory=SimSection)
    lba: LbaParams = field(default_factory=LbaParams)
    voxel: VoxelParams = field(default_factory=VoxelParams)
    calib: CalibConfig = field(default_factory=CalibConfig)

    def validate(self):
        for section in fields(self):
            try:
                getattr(self, section.name).validate()
            except InvalidParams as exc:
                raise ConfigError(f"{section.name}.{exc}") from exc


_SECTIONS = [f.name for f in fields(RunConfig)]


def _coerce(raw: str, target_type: type, key: str):
    raw = raw.strip()
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r}: must parse as "
                          f"{target_type.__name__}") from None


def parse_config_lines(lines, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        lhs, value = line.split("=", 1)
        lhs = lhs.strip()
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key {lhs!r} missing section prefix")
        section_name, key = lhs.split(".", 1)
        if section_name not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section {section_name!r}")
        section = getattr(cfg, section_name)
        if key not in {f.name for f in fields(section)}:
            raise ConfigError(f"line {lineno}: unknown key {section_name}.{key}")
        setattr(section, key, _coerce(value, type(getattr(section, key)), lhs))
    cfg.validate()
    return cfg


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config_lines(fh.readlines(), base)


def dump_config(cfg: RunConfig) -> str:
    """Flatten the effective configuration back to config-file lines."""
    out = []
    for section_name in _SECTIONS:
        section = getattr(cfg, section_name)
        for f in fields(section):
            out.append(f"{section_name}.{f.name} = {getattr(section, f.name)}")
    return "\n".join(out) + "\n"
