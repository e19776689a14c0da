import numpy as np
import pytest

from lidarcalib import geometry as geo
from lidarcalib import pointcloud as pc
from lidarcalib import simulator as sim
from lidarcalib import voxelmap as vm


@pytest.fixture(scope="session")
def room_calib_setup():
    """Noise-free room dataset with a ground-truth-built plane map.

    Shared by the extrinsic tests: (dataset, map index, anchors).
    """
    model = sim.LidarModel(horizontal_res_deg=1.5, range_sigma=0.0)
    scene = sim.builtin_scene("room")
    traj = sim.make_trajectory("arc", 3.0, 10)
    ds = sim.generate_dataset(scene, traj, sim.RIG_PRESETS["config1"], model, 17)
    ends = pc.scan_end_poses(traj, model.scan_period)
    map_pts = []
    for f, p, e in zip(ds.frames_a, traj.poses, ends):
        clean = pc.voxel_downsample(pc.deskew(f, p, e), 0.1)
        map_pts.append(geo.apply(p, clean.positions))
    index = vm.build_adaptive(np.vstack(map_pts), vm.VoxelParams())
    index = vm.merge_neighbors(index, np.radians(5.0), 0.5)
    return ds, index, list(traj.poses)
