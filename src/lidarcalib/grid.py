"""Integer grid cells packed into sortable int64 keys.

Grouping points by cell with `np.unique(cells, axis=0)` sorts rows through a
structured view, several times slower than sorting one integer per point.
Shifting the cells to the occupied box's lower corner and ravelling them in
C order gives one key per cell whose ascending order is the lexicographic
order of the (ix, iy, iz) rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams

_KEY_MAX = int(np.iinfo(np.int64).max)


def cell_box(cells: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Lower corner and per-axis cell counts of the box a non-empty (N, 3)
    integer cell array occupies. Raises InvalidParams when the box has more
    cells than int64 keys can tell apart, rather than alias two cells. The
    cause is the input: a far point, or too small a cell size."""
    cells = np.asarray(cells, dtype=np.int64)
    lo = cells.min(axis=0)
    # spans in Python integers: hi - lo + 1 can wrap in int64
    dims = [int(h) - int(l) + 1 for l, h in zip(lo, cells.max(axis=0))]
    if math.prod(dims) > _KEY_MAX:
        raise InvalidParams(f"cell box {dims} has more cells than int64 keys "
                            "can tell apart: a point may lie far from the "
                            "rest, or the cell size is too small")
    return lo, dims


def pack_cells(cells: np.ndarray) -> np.ndarray:
    """One int64 key per row of a non-empty (N, 3) integer cell array.

    Keys are equal exactly when the rows are, and ascend in the rows'
    lexicographic order. Raises InvalidParams when the occupied box has more
    cells than int64 keys can tell apart (see `cell_box`).
    """
    cells = np.asarray(cells, dtype=np.int64)
    lo, dims = cell_box(cells)
    return np.ravel_multi_index((cells - lo).T, dims)
