"""Targetless dual-LiDAR extrinsic calibration toolkit.

Pipeline: simulate (or load) scans from a reference LiDAR, refine its
trajectory with sliding-window bundle adjustment, voxelize the accumulated
map into planar features, then recover the second LiDAR's mounting
transform by weighted point-to-plane optimization.
"""

__version__ = "0.1.0"
