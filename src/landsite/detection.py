"""Dense per-frame candidate extraction and lifting to world coordinates.

A pixel becomes a candidate when its fused score clears the decision
threshold and the level region around it is large enough to hold the
UAV footprint at that range. Candidates stay dense on purpose; the
global registry and clustering do the sparsification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .costmaps import Costmap
from .geometry import DepthFrame, project_uav_radius


@dataclass(frozen=True, eq=False)
class Candidates:
    """One frame's candidate pixels as parallel columns, in raster order.

    Row i is the pixel (xs[i], ys[i]) with its depth (m), fused score and
    un-normalized flat radius (px).
    """

    xs: np.ndarray
    ys: np.ndarray
    depth: np.ndarray
    score: np.ndarray
    flat_radius_px: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


def dense_candidates(decision: Costmap, flat_raw: Costmap, frame: DepthFrame,
                     config: PipelineConfig) -> Candidates:
    """All pixels passing both the score and the footprint test.

    The score test requires decision >= ``config.decision_threshold``.
    ``flat_raw`` must be the un-normalized flatness map (pixels); the
    footprint test requires flat_raw >= ``config.safety_factor`` times the
    projected ``config.uav_radius_m`` at the pixel's depth. Only valid
    pixels can pass.
    """
    if decision.shape != frame.shape or flat_raw.shape != frame.shape:
        raise ValueError("costmaps are not aligned with the frame")
    idx = np.flatnonzero(decision.valid & flat_raw.valid & frame.valid
                         & (decision.values >= config.decision_threshold))
    depth = frame.depth.ravel()[idx]
    flat = flat_raw.values.ravel()[idx]
    # The footprint test runs on the score-passing rows only; it is
    # elementwise, so they keep their raster order. An overflowing
    # footprint is inf, which no flat radius reaches.
    with np.errstate(over="ignore"):
        fits = flat >= config.safety_factor * project_uav_radius(
            config.uav_radius_m, depth, frame.intrinsics)
    idx = idx[fits]
    ys, xs = np.divmod(idx, frame.shape[1])
    return Candidates(xs=xs, ys=ys, depth=depth[fits],
                      score=decision.values.ravel()[idx],
                      flat_radius_px=flat[fits])


def world_positions(cands: Candidates, frame: DepthFrame) -> np.ndarray:
    """Back-project candidate pixels and lift them to the world frame, (N, 3).

    Raises ValueError if any row lies outside the image or on an invalid
    depth pixel; ``dense_candidates`` never emits such rows.
    """
    h, w = frame.shape
    inside = (cands.xs >= 0) & (cands.xs < w) & (cands.ys >= 0) & (cands.ys < h)
    n_bad = len(cands) - np.count_nonzero(
        frame.valid[cands.ys[inside], cands.xs[inside]])
    if n_bad:
        raise ValueError(f"{n_bad} of {len(cands)} candidates lie outside "
                         f"the image or on invalid depth")
    intr = frame.intrinsics
    p_cam = np.empty((len(cands), 3))
    p_cam[:, 0] = cands.depth * (cands.xs.astype(np.float64) - intr.cx) / intr.fx
    p_cam[:, 1] = cands.depth * (cands.ys.astype(np.float64) - intr.cy) / intr.fy
    p_cam[:, 2] = cands.depth
    return frame.pose_world_from_camera.apply(p_cam)
