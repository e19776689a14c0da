"""Every span the benchmark's per-layer metrics read exists in the program.

`calibbench/tracing.py` wraps the public functions of the pipeline modules
by name and sums the spans named in `PER_LAYER`. A function that is renamed,
made private or moved to another module is no longer wrapped, and its
metrics read 0 without any error. This test names such a span instead.
It also pins the field order of `extrinsic.CalibrationResult`, which the
benchmark's self-test builds positionally.
"""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from lidarcalib.extrinsic import CalibrationResult

_TRACING = Path(__file__).resolve().parent.parent / "calibbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("calibbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# spans opened by the kd-tree wrapper, not by a wrapped function
TREE_SPANS = ("kdtree_build", "kdtree_query")

SPANS = sorted({name for _, name, _ in tracing.PER_LAYER.values()})


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves_to_public_function(span):
    layer, attr = span.split(".")
    module = importlib.import_module(f"lidarcalib.{layer}")
    if attr in TREE_SPANS:
        assert hasattr(module, "cKDTree"), f"{span}: no cKDTree in {layer}"
        return
    fn = getattr(module, attr, None)
    assert not attr.startswith("_"), f"{span} names a private function"
    assert inspect.isfunction(fn), f"{span}: no function {attr} in {layer}"
    assert fn.__module__ == module.__name__, \
        f"{span}: {attr} is defined in {fn.__module__}, not {module.__name__}"


def test_calibration_result_field_order():
    # a reordering would break the self-test's check without an error
    assert [f.name for f in fields(CalibrationResult)] == [
        "extrinsic", "outer_trace", "lm_traces", "converged", "iterations"]
