"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` replaces the public functions of the pipeline modules, and
the scipy kd-tree class that `lba` and `extrinsic` import, by timing
wrappers. Every call becomes a span (name, start, end, parent) kept in
memory; `uninstall` restores the originals. Nothing under `src/` is edited:
module functions look their callees up through the module namespace at call
time, so replacing the attribute is enough.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

# The runner opens one root span per set-up and per operation.
SETUP = "bench.setup"
OPERATION = "bench.operation"


def _lm_counts(trace) -> dict:
    return {"lm_iters": len(trace),
            "lm_accepted": sum(1 for step in trace if step["accepted"])}


# Counts taken from a call's arguments and result, after its span has closed.
_COUNTS = {
    "simulator.generate_dataset": lambda args, kw, ds: {
        "points": sum(len(f) for f in ds.frames_a + ds.frames_b)},
    "pointcloud.voxel_downsample": lambda args, kw, out: {
        "points_in": len(args[0]), "points_out": len(out)},
    "lba.optimize_window": lambda args, kw, res: _lm_counts(res.trace),
    "voxelmap.build_adaptive": lambda args, kw, index: {
        "leaves": len(index.leaf_planes)},
    "voxelmap.merge_neighbors": lambda args, kw, index: {
        "planes": len(index.planes)},
    "voxelmap.associate_batch": lambda args, kw, ids: {
        "points": len(ids), "matched": int(np.count_nonzero(ids >= 0))},
    "extrinsic.lm_solve": lambda args, kw, res: _lm_counts(res[1]),
    "extrinsic.calibrate": lambda args, kw, res: {
        "outer_iters": res.iterations,
        "consensus_frames": sum(e.frames_used for e in res.outer_trace),
        "skipped_frames": sum(len(e.skipped_frames) for e in res.outer_trace)},
}

# Per-layer metric -> (kind, span name, count key). Kinds: "time" sums the
# span's inclusive seconds (no listed function calls itself, so nothing is
# counted twice), "self" subtracts its direct child spans, "calls" counts
# spans and "count" sums a count recorded on them.
PER_LAYER = {
    "simulator.generate_dataset_s": ("time", "simulator.generate_dataset", None),
    "simulator.points": ("count", "simulator.generate_dataset", "points"),
    "pointcloud.deskew_s": ("time", "pointcloud.deskew", None),
    "pointcloud.deskew_calls": ("calls", "pointcloud.deskew", None),
    "pointcloud.voxel_downsample_s": ("time", "pointcloud.voxel_downsample", None),
    "pointcloud.voxel_downsample_calls": ("calls", "pointcloud.voxel_downsample", None),
    "pointcloud.downsample_points_in": ("count", "pointcloud.voxel_downsample", "points_in"),
    "pointcloud.downsample_points_out": ("count", "pointcloud.voxel_downsample", "points_out"),
    "lba.run_sliding_lba_s": ("time", "lba.run_sliding_lba", None),
    "lba.optimize_window_s": ("time", "lba.optimize_window", None),
    "lba.optimize_window_self_s": ("self", "lba.optimize_window", None),
    "lba.windows": ("calls", "lba.optimize_window", None),
    "lba.lm_iters": ("count", "lba.optimize_window", "lm_iters"),
    "lba.lm_accepted": ("count", "lba.optimize_window", "lm_accepted"),
    "lba.kdtree_builds": ("calls", "lba.kdtree_build", None),
    "lba.kdtree_build_s": ("time", "lba.kdtree_build", None),
    "lba.kdtree_queries": ("calls", "lba.kdtree_query", None),
    "lba.kdtree_query_s": ("time", "lba.kdtree_query", None),
    "lba.point_to_plane_cost_s": ("time", "lba.point_to_plane_cost", None),
    "voxelmap.build_adaptive_s": ("time", "voxelmap.build_adaptive", None),
    "voxelmap.merge_neighbors_s": ("time", "voxelmap.merge_neighbors", None),
    "voxelmap.leaves": ("count", "voxelmap.build_adaptive", "leaves"),
    "voxelmap.planes": ("count", "voxelmap.merge_neighbors", "planes"),
    "voxelmap.associate_batch_s": ("time", "voxelmap.associate_batch", None),
    "voxelmap.associate_batch_calls": ("calls", "voxelmap.associate_batch", None),
    "voxelmap.associate_points": ("count", "voxelmap.associate_batch", "points"),
    "voxelmap.associate_matched": ("count", "voxelmap.associate_batch", "matched"),
    "extrinsic.calibrate_s": ("time", "extrinsic.calibrate", None),
    "extrinsic.calibrate_self_s": ("self", "extrinsic.calibrate", None),
    "extrinsic.lm_solve_s": ("time", "extrinsic.lm_solve", None),
    "extrinsic.lm_solve_calls": ("calls", "extrinsic.lm_solve", None),
    "extrinsic.lm_iters": ("count", "extrinsic.lm_solve", "lm_iters"),
    "extrinsic.lm_accepted": ("count", "extrinsic.lm_solve", "lm_accepted"),
    "extrinsic.kdtree_builds": ("calls", "extrinsic.kdtree_build", None),
    "extrinsic.kdtree_build_s": ("time", "extrinsic.kdtree_build", None),
    "extrinsic.kdtree_queries": ("calls", "extrinsic.kdtree_query", None),
    "extrinsic.kdtree_query_s": ("time", "extrinsic.kdtree_query", None),
    "extrinsic.outer_iters": ("count", "extrinsic.calibrate", "outer_iters"),
    "extrinsic.consensus_frames": ("count", "extrinsic.calibrate", "consensus_frames"),
    "extrinsic.skipped_frames": ("count", "extrinsic.calibrate", "skipped_frames"),
}


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.counts: dict | None = None
        self.end = 0.0
        self.start = time.perf_counter()


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap_function(self, name: str, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def _wrap_kdtree(self, layer: str, base: type) -> type:
        tracer = self

        class TracedKDTree(base):
            def __init__(self, *args, **kwargs):
                span = tracer.open(f"{layer}.kdtree_build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(span)

            def query(self, *args, **kwargs):
                span = tracer.open(f"{layer}.kdtree_query")
                try:
                    return super().query(*args, **kwargs)
                finally:
                    tracer.close(span)
        return TracedKDTree

    def _replace(self, module, attr: str, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, modules, kdtree_users) -> None:
        """Wrap every public function defined in `modules`, and the
        `cKDTree` name of each module in `kdtree_users`."""
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._replace(module, attr,
                              self._wrap_function(f"{layer}.{attr}", fn))
        for module in kdtree_users:
            layer = module.__name__.rsplit(".", 1)[-1]
            self._replace(module, "cKDTree",
                          self._wrap_kdtree(layer, module.cKDTree))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def per_layer(self) -> dict[str, float]:
        """Each metric as spent by one mean set-up plus one mean operation."""
        root_of: list[int] = []
        for span in self.spans:
            root_of.append(span.id if span.parent is None
                           else root_of[span.parent])
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        roots = {SETUP: 0, OPERATION: 0}
        for span in self.spans:
            if span.parent is None and span.name in roots:
                roots[span.name] += 1
        values: dict[str, float] = {}
        for metric, (kind, name, key) in PER_LAYER.items():
            sums = {SETUP: 0.0, OPERATION: 0.0}
            for span in self.spans:
                if span.name != name:
                    continue
                if kind == "time":
                    value = span.end - span.start
                elif kind == "self":
                    value = span.end - span.start - child_time[span.id]
                elif kind == "calls":
                    value = 1.0
                else:
                    value = float((span.counts or {}).get(key, 0))
                root = self.spans[root_of[span.id]].name
                if root in sums:
                    sums[root] += value
            values[metric] = sum(sums[r] / roots[r] for r in sums if roots[r])
        return values

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"id": s.id, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent,
                        **({"counts": s.counts} if s.counts else {})}
                       for s in self.spans], fh)

