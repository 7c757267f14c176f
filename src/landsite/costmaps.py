"""Hazard costmaps and their fusion into the per-pixel decision map.

Four factors are scored per pixel: confidence in the depth measurement
(which degrades quadratically with range), flatness (distance in pixels
to the nearest depth discontinuity, i.e. the inscribed-circle radius of
the level region), steepness (angle between the surface normal and the
world up-axis, mapped through a Gaussian falloff), and energy (straight-
line distance from the camera to the point, a proxy for the cost of
flying there). Depth confidence, flatness and energy are min-max
normalized; steepness is already in (0, 1] and is never normalized. The
decision map is their convex combination.

Everything here is a pure, deterministic, single-threaded function of
its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import canny, edt
from .errors import ConfigError
from .geometry import DepthFrame, backproject

WEIGHT_SUM_TOL = 1e-6
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


@dataclass(frozen=True)
class FusionWeights:
    """Convex fusion weights plus the candidate-selection parameters.

    The four weights must each lie in [0, 1] and sum to 1 (within 1e-6);
    ``slope_tolerance`` is the steepness falloff scale in radians.
    """

    depth_confidence: float
    flatness: float
    steepness: float
    energy: float
    decision_threshold: float
    slope_tolerance: float

    def __post_init__(self):
        w = (self.depth_confidence, self.flatness, self.steepness, self.energy)
        for value in w:
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"weight {value} outside [0, 1]")
        if abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights sum to {sum(w)}, expected 1")
        if not self.slope_tolerance > 0:
            raise ConfigError("slope tolerance must be positive")
        if not np.isfinite(self.decision_threshold):
            raise ConfigError("decision threshold must be finite")


def depth_confidence_map(frame: DepthFrame) -> Costmap:
    """Score -depth^2: nearer measurements are trusted more."""
    values = np.where(frame.valid, -frame.depth * frame.depth, 0.0)
    return Costmap(values, frame.valid.copy())


def canny_edges(frame: DepthFrame, low: float, high: float) -> BinaryMap:
    """Depth-discontinuity edges; see :mod:`landsite.canny` for conventions."""
    return BinaryMap(canny.detect_edges(frame.depth, frame.valid, low, high))


def distance_transform(edges: BinaryMap) -> Costmap:
    """Exact Euclidean distance in pixels to the nearest edge pixel.

    The frame border counts as an edge ring, so the result is finite
    everywhere; see :mod:`landsite.edt`.
    """
    d = edt.distance_transform(edges.bits)
    return Costmap(d, np.ones_like(d, dtype=bool))


def surface_normals(frame: DepthFrame, smoothing_window: int = 3) -> NormalMap:
    """World-frame unit normals from box-averaged central-difference tangents.

    Horizontal and vertical tangents are taken on the camera-frame point
    grid at x +/- 1 and y +/- 1, each component box-averaged over a
    ``smoothing_window`` square; the normal is their cross product,
    sign-flipped to face the camera, then rotated into the world frame.
    Pixels whose stencil touches an invalid or out-of-image pixel are
    invalid, as are pixels with a degenerate (zero) cross product.
    """
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ConfigError("smoothing window must be odd and >= 1")
    points, valid = backproject(frame)

    tan_h = np.zeros_like(points)
    tan_h[:, 1:-1] = points[:, 2:] - points[:, :-2]
    tan_h_ok = np.zeros_like(valid)
    tan_h_ok[:, 1:-1] = valid[:, 2:] & valid[:, :-2]

    tan_v = np.zeros_like(points)
    tan_v[1:-1, :] = points[2:, :] - points[:-2, :]
    tan_v_ok = np.zeros_like(valid)
    tan_v_ok[1:-1, :] = valid[2:, :] & valid[:-2, :]

    avg_h, ok_h = _box_average(tan_h, tan_h_ok, smoothing_window)
    avg_v, ok_v = _box_average(tan_v, tan_v_ok, smoothing_window)

    cross = np.empty_like(points)
    cross[..., 0] = avg_h[..., 1] * avg_v[..., 2] - avg_h[..., 2] * avg_v[..., 1]
    cross[..., 1] = avg_h[..., 2] * avg_v[..., 0] - avg_h[..., 0] * avg_v[..., 2]
    cross[..., 2] = avg_h[..., 0] * avg_v[..., 1] - avg_h[..., 1] * avg_v[..., 0]

    normals, nonzero = _unit_normals(cross, points)
    ok = ok_h & ok_v & nonzero
    normals *= ok[..., None]

    r = frame.pose_world_from_camera.rotation
    world = np.empty_like(normals)
    for i in range(3):
        world[..., i] = (r[i, 0] * normals[..., 0] + r[i, 1] * normals[..., 1]
                         + r[i, 2] * normals[..., 2])
    return NormalMap(world, ok)


def _box_average(field: np.ndarray, ok: np.ndarray, window: int):
    """Mean over a window x window box; valid only where every sample is."""
    if window == 1:
        return field.copy(), ok.copy()
    r = window // 2
    counts = _box_sum(ok.astype(np.int64), window)
    full = np.zeros_like(ok)
    full[r:-r, r:-r] = counts[r:-r, r:-r] == window * window
    avg = np.empty_like(field)
    scale = 1.0 / float(window * window)
    for i in range(3):
        avg[..., i] = _box_sum(field[..., i], window) * scale
    avg *= full[..., None]
    return avg, full


def _box_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sum over the centered window x window box via an integral image."""
    r = window // 2
    h, w = a.shape
    integral = np.zeros((h + 1, w + 1), dtype=np.float64 if a.dtype.kind == "f" else np.int64)
    np.cumsum(a, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    out = np.zeros_like(integral[1:, 1:])
    y0, y1 = 0, h - window + 1
    x0, x1 = 0, w - window + 1
    core = (integral[window:, window:] - integral[window:, :w - window + 1]
            - integral[:h - window + 1, window:] + integral[:h - window + 1, :w - window + 1])
    out[r : r + y1, r : r + x1] = core
    return out


def _unit_normals(cross: np.ndarray, points: np.ndarray):
    """Normalize cross products and orient them toward the camera.

    Returns (normals, nonzero) where pixels with an exactly zero cross
    product are flagged degenerate.
    """
    norm = np.sqrt(cross[..., 0] * cross[..., 0] + cross[..., 1] * cross[..., 1]
                   + cross[..., 2] * cross[..., 2])
    nonzero = norm > 0.0
    toward = (cross[..., 0] * points[..., 0] + cross[..., 1] * points[..., 1]
              + cross[..., 2] * points[..., 2])
    # Flip normals that point away from the camera; scale handles both
    # the normalization and the orientation in one multiply.
    scale = np.where(nonzero, 1.0 / np.where(nonzero, norm, 1.0), 0.0)
    scale = np.where(toward > 0.0, -scale, scale)
    return cross * scale[..., None], nonzero


def steepness_map(normals: NormalMap, slope_tolerance: float) -> Costmap:
    """Gaussian falloff of the slope angle between each normal and world up.

    The absolute dot product makes the score independent of normal
    orientation; values live in (0, 1].
    """
    if not slope_tolerance > 0:
        raise ConfigError("slope tolerance must be positive")
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
                 weights: FusionWeights) -> Costmap:
    """Weighted sum of the four scores; valid only where all inputs are.

    Expects depth confidence and flatness normalized higher-is-better,
    energy normalized lower-is-better, and raw steepness.
    """
    maps = (depth_confidence, flatness, steepness, energy)
    shape = depth_confidence.shape
    if any(m.shape != shape for m in maps):
        raise ValueError("costmaps are not aligned")
    ok = depth_confidence.valid & flatness.valid & steepness.valid & energy.valid
    fused = (weights.depth_confidence * depth_confidence.values
             + weights.flatness * flatness.values
             + weights.steepness * steepness.values
             + weights.energy * energy.values)
    fused[~ok] = 0.0
    return Costmap(fused, ok)
