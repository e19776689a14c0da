import numpy as np
import pytest

from lidarcalib import pointcloud as pc
from lidarcalib import voxelmap as vm
from lidarcalib.errors import InvalidParams
from lidarcalib.grid import pack_cells

INT64_MAX = np.iinfo(np.int64).max


class TestPackCells:
    def test_order_and_equality_follow_rows(self):
        rng = np.random.default_rng(0)
        cells = rng.integers(-4, 4, size=(500, 3))
        keys = pack_cells(cells)
        # equal keys exactly for equal rows
        same_key = keys[:, None] == keys[None, :]
        same_row = np.all(cells[:, None, :] == cells[None, :, :], axis=2)
        np.testing.assert_array_equal(same_key, same_row)
        # ascending keys in lexicographic row order
        order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
        assert np.all(np.diff(keys[order]) >= 0)
        _, first = np.unique(cells, axis=0, return_index=True)
        assert np.all(np.diff(keys[first]) > 0)

    def test_single_row(self):
        np.testing.assert_array_equal(pack_cells([[-7, 3, 11]]), [0])

    def test_largest_box_keeps_cells_apart(self):
        # 2^21 x 2^21 x 2^21 - 1 cells fit below 2^63 keys
        hi = 2 ** 21 - 1
        cells = np.array([[0, 0, 0], [hi, hi, hi - 1], [hi, hi, hi - 2],
                          [hi - 1, hi, hi - 1]])
        keys = pack_cells(cells)
        assert len(np.unique(keys)) == 4
        assert keys.max() <= INT64_MAX

    @pytest.mark.parametrize("cells", [
        # every axis fits on its own, the product does not
        [[0, 0, 0], [2 ** 21, 2 ** 21, 2 ** 21]],
        # hi - lo + 1 overflows int64 on one axis
        [[-(2 ** 62), 0, 0], [2 ** 62, 0, 0]],
        [[np.iinfo(np.int64).min, 0, 0], [INT64_MAX, 0, 0]],
    ])
    def test_box_beyond_int64_raises(self, cells):
        with pytest.raises(InvalidParams, match="int64"):
            pack_cells(np.array(cells, dtype=np.int64))


class TestFloorCells:
    """A cell size too small for int64 cells is refused, naming the point,
    before the cast would wrap the indices."""

    @pytest.mark.filterwarnings("error")
    def test_voxel_downsample_refuses_a_tiny_leaf(self):
        points = np.random.default_rng(0).uniform(1.0, 5.0, size=(1000, 3))
        x, y, z = points[0]
        with pytest.raises(InvalidParams, match=(
                rf"point 0 \({x:.9g}, {y:.9g}, {z:.9g}\) has no int64 cell "
                r"at cell size 1e-300")):
            pc.voxel_downsample(pc.Frame(points), 1e-300)

    @pytest.mark.filterwarnings("error")
    def test_build_adaptive_refuses_a_tiny_parent_cell(self):
        points = np.random.default_rng(1).uniform(1.0, 5.0, size=(1000, 3))
        with pytest.raises(InvalidParams, match="point 0 .* cell size 1e-300"):
            vm.build_adaptive(points, vm.VoxelParams(l_parent=1e-300))
