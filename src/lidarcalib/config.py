"""Run configuration: flat `section.key = value` text files.

Sections map onto the pipeline stages (sim, lba, voxel, calib); unknown keys
are rejected so typos fail loudly. The lba, voxel and calib sections are the
parameter dataclasses of their modules (`LbaParams`, `VoxelParams`,
`CalibConfig`) and hold only what callers set. Everything with one value
in use (LM damping and tolerance, Cauchy factor, planarity, flatness and
merge gates, seeding grid and the like) is a module constant in `ptplane`,
`lba`, `voxelmap` or `extrinsic`, not a config key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError, InvalidParams
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


@dataclass
class RunConfig:
    sim: SimSection = field(default_factory=SimSection)
    lba: LbaParams = field(default_factory=LbaParams)
    voxel: VoxelParams = field(default_factory=VoxelParams)
    calib: CalibConfig = field(default_factory=CalibConfig)

    def validate(self):
        if self.sim.scene not in ("room", "corridor", "yard"):
            raise ConfigError(f"sim.scene: unknown scene {self.sim.scene!r}")
        if self.sim.traj_kind not in ("line", "arc", "lissajous"):
            raise ConfigError(f"sim.traj_kind: unknown kind {self.sim.traj_kind!r}")
        if self.sim.frames < 2:
            raise ConfigError("sim.frames must be >= 2")
        if self.sim.range_sigma < 0:
            raise ConfigError("sim.range_sigma must be >= 0")
        if self.sim.rig not in ("custom", "config1", "config2", "config3",
                                "config4", "config5"):
            raise ConfigError(f"sim.rig: unknown preset {self.sim.rig!r}")
        for name in ("lba", "voxel", "calib"):
            try:
                getattr(self, name).validate()
            except InvalidParams as exc:
                raise ConfigError(f"{name}: {exc}") from exc


_SECTIONS = {"sim": SimSection, "lba": LbaParams, "voxel": VoxelParams,
             "calib": CalibConfig}


def _coerce(raw: str, target_type: type, key: str):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return raw


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
