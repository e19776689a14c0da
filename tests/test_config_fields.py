"""Every config key must be read by the program, and every float key must
reject nan, naming its line.

A field of a config section that no code outside its own dataclass reads
is a key a user can set to no effect. The check is by name: a field counts
as read when any module of the package loads an attribute of that name
from something other than an imported module (so `pc.voxel_downsample(...)`
would not count for a field of that name) outside the dataclass that
declares it (so its own `validate` does not count either).
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import lidarcalib
from lidarcalib.config import RunConfig, SimSection, parse_config_lines
from lidarcalib.errors import ConfigError
from lidarcalib.extrinsic import CalibConfig
from lidarcalib.lba import LbaParams
from lidarcalib.voxelmap import VoxelParams

PACKAGE = Path(lidarcalib.__file__).parent


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to modules by `import x` / `from . import x as y`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update(a.asname or a.name for a in node.names)
    return names


def attributes_read(skip_class: str) -> set[str]:
    """Attribute names loaded anywhere in the package outside `skip_class`."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = _module_aliases(tree)
        skipped = {id(n) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) and c.name == skip_class
                   for n in ast.walk(c)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in skipped
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in modules)):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("section", [SimSection, LbaParams, VoxelParams,
                                     CalibConfig], ids=lambda c: c.__name__)
def test_every_field_is_read(section):
    read = attributes_read(section.__name__)
    unread = [f.name for f in fields(section) if f.name not in read]
    assert not unread, f"{section.__name__} fields never read: {unread}"


FLOAT_KEYS = [f"{section.name}.{f.name}" for section in fields(RunConfig)
              for f in fields(section.default_factory)
              if isinstance(f.default, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_rejects_nan(key):
    with pytest.raises(ConfigError, match=re.escape(f"{key} = nan: ")):
        parse_config_lines([f"{key} = nan"])
