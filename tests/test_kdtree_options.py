"""Every kd-tree in the pipeline uses sliding-midpoint splits.

`balanced_tree=False, compact_nodes=False` makes queries on plane-sampled
maps several times faster and leaves every neighbor set unchanged. Trees
are built only through the `cKDTree` names of `lba` and `extrinsic`, the
names a tracer can wrap to time them.
"""

import importlib
import pkgutil

import scipy.spatial
from scipy.spatial import cKDTree

import lidarcalib
from lidarcalib import cli
from lidarcalib import config as cfgmod
from lidarcalib import extrinsic, lba

from test_config_cli import FAST_CONFIG

TREE_OPTIONS = {"balanced_tree": False, "compact_nodes": False}


def pipeline_modules():
    return [importlib.import_module(f"lidarcalib.{m.name}")
            for m in pkgutil.iter_modules(lidarcalib.__path__)]


def test_trees_only_through_module_names():
    for module in pipeline_modules():
        for name, value in vars(module).items():
            assert value is not scipy.spatial, f"{module.__name__}.{name}"
            if isinstance(value, type) and issubclass(value, cKDTree):
                assert (name, module) in (("cKDTree", lba),
                                          ("cKDTree", extrinsic)), \
                    f"{module.__name__}.{name}"


def test_every_tree_built_with_sliding_midpoint(monkeypatch):
    built = []

    def recording(layer):
        class RecordingKDTree(cKDTree):
            def __init__(self, *args, **kwargs):
                built.append((layer, kwargs))
                super().__init__(*args, **kwargs)
        return RecordingKDTree

    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("kd-tree built through scipy.spatial")

    monkeypatch.setattr(lba, "cKDTree", recording("lba"))
    monkeypatch.setattr(extrinsic, "cKDTree", recording("extrinsic"))
    monkeypatch.setattr(scipy.spatial, "cKDTree", Forbidden)
    monkeypatch.setattr(scipy.spatial, "KDTree", Forbidden)
    cfg = cfgmod.parse_config_lines(FAST_CONFIG.splitlines())
    row = cli.run_trial(cfg, 0, 11, (0.2, 10.0))
    assert row["result"].converged
    assert {layer for layer, _ in built} == {"lba", "extrinsic"}
    for layer, kwargs in built:
        assert kwargs == TREE_OPTIONS, layer
