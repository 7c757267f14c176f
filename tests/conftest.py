import numpy as np
import pytest

from landsite.detection import Candidates
from landsite.geometry import CameraIntrinsics, DepthFrame, Pose


@pytest.fixture(scope="session")
def intrinsics_small() -> CameraIntrinsics:
    return CameraIntrinsics(fx=80.0, fy=80.0, cx=31.5, cy=23.5,
                            width=64, height=48)


@pytest.fixture(scope="session")
def intrinsics_vga() -> CameraIntrinsics:
    return CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                            width=640, height=480)


@pytest.fixture
def make_frame(intrinsics_small):
    """Build a DepthFrame from a depth array (None entries -> invalid)."""

    def _make(depth, pose=None, intrinsics=None, frame_id=0, timestamp=0.0):
        intr = intrinsics or intrinsics_small
        d = np.asarray(depth, dtype=np.float64)
        if d.shape != (intr.height, intr.width):
            full = np.full((intr.height, intr.width), float(d.flat[0]))
            full[: d.shape[0], : d.shape[1]] = d
            d = full
        valid = np.isfinite(d) & (d > 0)
        return DepthFrame(depth=np.where(valid, d, 0.0), valid=valid,
                          intrinsics=intr,
                          pose_world_from_camera=pose or Pose.identity(),
                          frame_id=frame_id, timestamp=timestamp)

    return _make


@pytest.fixture
def candidates_at():
    """Build Candidates at (x, y) pixels of a frame, with the frame's depth."""

    def _make(frame, pixels, score=0.8, flat_radius_px=5.0):
        xs = np.array([p[0] for p in pixels], dtype=np.intp)
        ys = np.array([p[1] for p in pixels], dtype=np.intp)
        return Candidates(xs=xs, ys=ys, depth=frame.depth[ys, xs],
                          score=np.full(len(xs), score),
                          flat_radius_px=np.full(len(xs), flat_radius_px))

    return _make
