"""Hazard costmaps and their fusion into the per-pixel decision map.

Four factors are scored per pixel: confidence in the depth measurement
(which degrades quadratically with range), flatness (distance in pixels
to the nearest depth discontinuity, i.e. the inscribed-circle radius of
the level region), steepness (angle between the surface normal and the
world up-axis, mapped through a Gaussian falloff), and energy (straight-
line distance from the camera to the point, a proxy for the cost of
flying there). Depth confidence, flatness and energy are min-max
normalized; steepness is already in (0, 1] and is never normalized. The
decision map is their convex combination with the ``PipelineConfig``
weights; ``steepness_map`` takes its falloff scale in radians.

Flatness is the exact Euclidean distance transform of the edge map,
``scipy.ndimage.distance_transform_edt`` (the linear-time EDT of Maurer,
Qi & Raghavan, TPAMI 2003). A virtual one-pixel ring of set pixels
surrounds the image, so the result is finite even with no edge at all.
scipy sums the squared integer offsets to the nearest set pixel in
float64, which is exact below 2^53, then takes the square root; each
distance is therefore the correctly rounded square root of the exact
integer squared distance.

Everything here is a pure, deterministic, single-threaded function of
its inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import canny
from .config import PipelineConfig
from .errors import ConfigError
from .geometry import DepthFrame, backproject

NORMALIZE_EPS = 1e-12

HIGHER_IS_BETTER = "higher_is_better"
LOWER_IS_BETTER = "lower_is_better"


@dataclass(eq=False)
class Costmap:
    """Scalar score grid with a validity mask."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.shape != self.valid.shape or self.values.ndim != 2:
            raise ValueError("values and valid must be matching 2-D grids")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(eq=False)
class BinaryMap:
    """A {0, 1} grid; set pixels mark depth-discontinuity edges."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ValueError("binary map must be 2-D")
        self.bits = (b != 0).astype(np.uint8)


@dataclass(eq=False)
class NormalMap:
    """Unit surface normals in the world frame, with validity mask."""

    normals: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.normals = np.asarray(self.normals, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.normals.ndim != 3 or self.normals.shape[2] != 3 \
                or self.normals.shape[:2] != self.valid.shape:
            raise ValueError("normals must be (H, W, 3) with matching mask")


def depth_confidence_map(frame: DepthFrame) -> Costmap:
    """Score -depth^2: nearer measurements are trusted more."""
    values = np.where(frame.valid, -frame.depth * frame.depth, 0.0)
    return Costmap(values, frame.valid.copy())


def canny_edges(frame: DepthFrame, low: float, high: float) -> BinaryMap:
    """Depth-discontinuity edges; see :mod:`landsite.canny` for conventions."""
    return BinaryMap(canny.detect_edges(frame.depth, frame.valid, low, high))


def distance_transform(edges: BinaryMap, valid: np.ndarray) -> Costmap:
    """Flatness: Euclidean distance in pixels to the nearest edge pixel,
    valid on a copy of ``valid``.

    The ring just outside the frame counts as edge pixels, so the result
    is finite everywhere; see the module docstring for its exactness.
    """
    padded = np.pad(edges.bits != 0, 1, constant_values=True)
    return Costmap(ndimage.distance_transform_edt(~padded)[1:-1, 1:-1],
                   np.array(valid, dtype=bool))


def surface_normals(frame: DepthFrame, smoothing_window: int = 3) -> NormalMap:
    """World-frame unit normals from box-averaged central-difference tangents.

    Horizontal and vertical tangents are taken on the camera-frame point
    grid at x +/- 1 and y +/- 1, each component box-averaged over a
    ``smoothing_window`` square; the normal is their cross product,
    sign-flipped to face the camera, then rotated into the world frame.
    Pixels whose stencil touches an invalid or out-of-image pixel are
    invalid, as are pixels with a degenerate (zero) cross product. A
    window wider than the frame leaves no pixel valid.
    """
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ConfigError("smoothing window must be odd and >= 1")
    points, valid = backproject(frame)
    p = np.moveaxis(points, -1, 0)  # component-first (3, H, W) planes

    tan_h = np.zeros(p.shape)
    tan_h[:, :, 1:-1] = p[:, :, 2:] - p[:, :, :-2]
    tan_h_ok = np.zeros_like(valid)
    tan_h_ok[:, 1:-1] = valid[:, 2:] & valid[:, :-2]

    tan_v = np.zeros(p.shape)
    tan_v[:, 1:-1] = p[:, 2:] - p[:, :-2]
    tan_v_ok = np.zeros_like(valid)
    tan_v_ok[1:-1] = valid[2:] & valid[:-2]

    (h0, h1, h2), ok_h = _box_average(tan_h, tan_h_ok, smoothing_window)
    (v0, v1, v2), ok_v = _box_average(tan_v, tan_v_ok, smoothing_window)
    cross = np.array([h1 * v2 - h2 * v1, h2 * v0 - h0 * v2, h0 * v1 - h1 * v0])

    normals, nonzero = _unit_normals(cross, p)
    ok = ok_h & ok_v & nonzero
    normals *= ok
    n0, n1, n2 = normals

    r = frame.pose_world_from_camera.rotation
    world = np.empty(p.shape)
    for i in range(3):
        world[i] = r[i, 0] * n0 + r[i, 1] * n1 + r[i, 2] * n2
    return NormalMap(np.moveaxis(world, 0, -1), ok)


def _box_average(field: np.ndarray, ok: np.ndarray, window: int):
    """Mean of each plane over a window x window box; valid where the whole
    box lies inside the frame and every sample in it is valid."""
    if window == 1:
        return field, ok
    # Boxes wider than the frame all reach outside it, so capping the
    # window changes no output; the cap bounds buffers and 1 / window^2.
    window = min(window, max(ok.shape) + 1)
    full = ndimage.minimum_filter(ok, size=window, mode="constant")
    avg = _box_sum(field, window)
    avg *= 1.0 / float(window * window)
    avg *= full
    return avg, full


def _box_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sum over the centered window x window box of each (H, W) plane of
    ``a``, via an integral image; zero where the box leaves the frame."""
    r = window // 2
    h, w = a.shape[-2:]
    ny, nx = max(h - window + 1, 0), max(w - window + 1, 0)
    integral = np.zeros((*a.shape[:-2], h + 1, w + 1))
    np.cumsum(a, axis=-2, out=integral[..., 1:, 1:])
    np.cumsum(integral[..., 1:, 1:], axis=-1, out=integral[..., 1:, 1:])
    out = np.zeros(a.shape)
    out[..., r : r + ny, r : r + nx] = (
        integral[..., window:, window:] - integral[..., window:, :nx]
        - integral[..., :ny, window:] + integral[..., :ny, :nx])
    return out


def _unit_normals(cross: np.ndarray, points: np.ndarray):
    """Normalize (3, H, W) cross products and orient them toward the camera.

    Returns (normals, nonzero) where pixels with an exactly zero cross
    product are flagged degenerate.
    """
    (c0, c1, c2), (p0, p1, p2) = cross, points
    norm = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    nonzero = norm > 0.0
    toward = c0 * p0 + c1 * p1 + c2 * p2
    # Flip normals that point away from the camera; scale handles both
    # the normalization and the orientation in one multiply.
    scale = np.where(nonzero, 1.0 / np.where(nonzero, norm, 1.0), 0.0)
    scale = np.where(toward > 0.0, -scale, scale)
    return cross * scale, nonzero


def steepness_map(normals: NormalMap, slope_tolerance: float) -> Costmap:
    """Gaussian falloff of the slope angle between each normal and world up.

    ``slope_tolerance`` is the falloff scale in radians. The absolute dot
    product makes the score independent of normal orientation; values live
    in (0, 1].
    """
    # From this bound on, theta^2 / (2 tol^2) <= (pi/2)^2 / DBL_MIN stays
    # finite; below it 2 tol^2 underflows and theta = 0 gives 0 / 0.
    if not (slope_tolerance > 0
            and 2.0 * slope_tolerance * slope_tolerance >= sys.float_info.min):
        raise ConfigError("slope tolerance must be positive and large enough "
                          "that 2 tol^2 does not underflow")
    cos_theta = np.clip(np.abs(normals.normals[..., 2]), 0.0, 1.0)
    theta = np.arccos(cos_theta)
    values = np.exp(-(theta * theta) / (2.0 * slope_tolerance * slope_tolerance))
    values[~normals.valid] = 0.0
    return Costmap(values, normals.valid.copy())


def energy_map(frame: DepthFrame) -> Costmap:
    """Straight-line distance (meters) from the camera to each point.

    Computed as the camera-frame range, which equals the world-frame
    distance to the camera position exactly (rotations preserve norms).
    """
    points, valid = backproject(frame)
    dist = np.sqrt(points[..., 0] * points[..., 0]
                   + points[..., 1] * points[..., 1]
                   + points[..., 2] * points[..., 2])
    return Costmap(dist, valid)


def minmax_normalize(costmap: Costmap, orientation: str) -> Costmap:
    """Rescale valid values onto [0, 1].

    ``higher_is_better`` maps the max to 1, ``lower_is_better`` inverts so
    the min maps to 1. A degenerate value range yields a uniform 0.5.
    """
    if orientation not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
        raise ConfigError(f"unknown orientation {orientation!r}")
    ok = costmap.valid
    out = np.zeros_like(costmap.values)
    if ok.any():
        vals = costmap.values[ok]
        lo = float(vals.min())
        hi = float(vals.max())
        if hi - lo < NORMALIZE_EPS:
            out[ok] = 0.5
        elif orientation == HIGHER_IS_BETTER:
            out[ok] = (vals - lo) / (hi - lo)
        else:
            out[ok] = (hi - vals) / (hi - lo)
    return Costmap(out, ok.copy())


def decision_map(depth_confidence: Costmap, flatness: Costmap,
                 steepness: Costmap, energy: Costmap,
                 config: PipelineConfig) -> Costmap:
    """Weighted sum of the four scores; valid only where all inputs are.

    The weights are ``config``'s four ``weight_*`` fields, which
    ``PipelineConfig`` keeps convex. Expects depth confidence and flatness
    normalized higher-is-better, energy normalized lower-is-better, and raw
    steepness.
    """
    maps = (depth_confidence, flatness, steepness, energy)
    shape = depth_confidence.shape
    if any(m.shape != shape for m in maps):
        raise ValueError("costmaps are not aligned")
    ok = depth_confidence.valid & flatness.valid & steepness.valid & energy.valid
    fused = (config.weight_depth_confidence * depth_confidence.values
             + config.weight_flatness * flatness.values
             + config.weight_steepness * steepness.values
             + config.weight_energy * energy.values)
    fused[~ok] = 0.0
    return Costmap(fused, ok)
