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
its inputs: the stages compute in place only in buffers they allocate
themselves, and return no view of an input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import canny
from .config import PipelineConfig, _check_slope_tolerance
from .errors import ConfigError
from .geometry import DepthFrame, camera_planes, ray_offsets

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
    p = camera_planes(frame)
    hs, ok_h = _box_tangent(p, frame.valid, _ALONG_X, smoothing_window)
    vs, ok_v = _box_tangent(p, frame.valid, _ALONG_Y, smoothing_window)
    cross = np.empty(p.shape)
    tmp = np.empty(frame.valid.shape)
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(hs[i], vs[j], out=cross[c])
        np.multiply(hs[j], vs[i], out=tmp)
        cross[c] -= tmp
    del hs, vs  # free the means before normalizing
    normals, nonzero = _unit_normals(cross, p)
    ok = ok_h & ok_v & nonzero
    normals *= ok

    r = frame.pose_world_from_camera.rotation
    world = p  # the points are no longer needed
    for i in range(3):
        np.multiply(r[i, 0], normals[0], out=world[i])
        world[i] += np.multiply(r[i, 1], normals[1], out=tmp)
        world[i] += np.multiply(r[i, 2], normals[2], out=tmp)
    return NormalMap(np.moveaxis(world, 0, -1), ok)


# (upper, lower, centre) slices of a central difference along x and y.
_ALONG_X = (np.s_[..., 2:], np.s_[..., :-2], np.s_[..., 1:-1])
_ALONG_Y = (np.s_[..., 2:, :], np.s_[..., :-2, :], np.s_[..., 1:-1, :])


def _box_tangent(p: np.ndarray, valid: np.ndarray, along, window: int):
    """Central difference of each (H, W) plane of ``p`` along one axis,
    averaged over a window x window box.

    Returns the (3, H, W) mean and its mask: valid where the whole box
    lies inside the frame and every difference in it joins two valid
    pixels. The differences on the frame's edge along that axis are 0.
    """
    upper, lower, centre = along
    ok = np.zeros_like(valid)
    np.logical_and(valid[upper], valid[lower], out=ok[centre])
    if window == 1:
        tangent = np.zeros(p.shape)
        np.subtract(p[upper], p[lower], out=tangent[centre])
        return tangent, ok
    h, w = valid.shape
    # Boxes wider than the frame all reach outside it, so capping the
    # window changes no output; the cap bounds buffers and 1 / window^2.
    window = min(window, max(h, w) + 1)
    r = window // 2
    ny, nx = max(h - window + 1, 0), max(w - window + 1, 0)

    # Integral image of the differences: prefix sums down the columns,
    # then along the rows, behind a zero first row and column.
    integral = np.zeros((3, h + 1, w + 1))
    body = integral[:, 1:, 1:]
    np.subtract(p[upper], p[lower], out=body[centre])
    for y in range(1, h):  # np.cumsum's additions in its order, but faster
        body[:, y] += body[:, y - 1]
    np.cumsum(body, axis=-1, out=body)

    # Combine the corners as ((d - b) - c) + a in a contiguous buffer,
    # where in-place numpy runs fastest, free the integral image, then
    # place the means in the frame.
    full = _box_valid(ok, window)
    box = np.subtract(integral[:, window:, window:], integral[:, window:, :nx])
    box -= integral[:, :ny, window:]
    box += integral[:, :ny, :nx]
    del integral, body
    box *= 1.0 / float(window * window)
    box *= full[r : r + ny, r : r + nx]
    mean = np.zeros(p.shape)
    mean[:, r : r + ny, r : r + nx] = box
    return mean, full


def _box_valid(ok: np.ndarray, window: int) -> np.ndarray:
    """True where the centered window x window box (``window`` odd) lies
    inside the frame and holds only True pixels of ``ok``."""
    h, w = ok.shape
    full = np.zeros_like(ok)
    ny, nx = h - window + 1, w - window + 1
    if ny <= 0 or nx <= 0:
        return full
    rows = ok[:, :nx].copy()  # rows[y, x]: ok[y, x : x + window] all True
    for i in range(1, window):
        rows &= ok[:, i : i + nx]
    r = window // 2
    box = full[r : r + ny, r : r + nx]
    box[...] = rows[:ny]
    for i in range(1, window):
        box &= rows[i : i + ny]
    return full


# Indexed by "points away from the camera".
_FLIP = np.array([1.0, -1.0])


def _unit_normals(cross: np.ndarray, points: np.ndarray):
    """Normalize (3, H, W) cross products in place and orient them toward
    the camera.

    Returns (normals, nonzero): ``normals`` is ``cross`` itself, and pixels
    with an exactly zero cross product are flagged degenerate and scaled
    by zero.
    """
    (c0, c1, c2), (p0, p1, p2) = cross, points
    norm = np.multiply(c0, c0)
    tmp = np.multiply(c1, c1)
    norm += tmp
    norm += np.multiply(c2, c2, out=tmp)
    np.sqrt(norm, out=norm)
    nonzero = norm > 0.0
    toward = np.multiply(c0, p0)
    toward += np.multiply(c1, p1, out=tmp)
    toward += np.multiply(c2, p2, out=tmp)
    # -1.0 where the normal points away from the camera. Dividing it by
    # the norm flips and normalizes in one step; a degenerate pixel is
    # scaled by a zero of that sign.
    sign = _FLIP.take((toward > 0.0).view(np.uint8))
    scale = np.multiply(sign, 0.0, out=tmp)
    np.divide(sign, norm, out=scale, where=nonzero)
    cross *= scale
    return cross, nonzero


def steepness_map(normals: NormalMap, slope_tolerance: float) -> Costmap:
    """Gaussian falloff of the slope angle between each normal and world up.

    ``slope_tolerance`` is the falloff scale in radians. The absolute dot
    product makes the score independent of normal orientation; values live
    in (0, 1].
    """
    _check_slope_tolerance(slope_tolerance)
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
    # x^2 + y^2 + z^2 of (x, y, z) = depth * (u, v, 1), with no point grid;
    # the squares are +0.0 at invalid pixels whatever the sign of x or y.
    u, v = ray_offsets(frame.intrinsics)
    dist = np.multiply(frame.depth, u[None, :])
    dist *= dist
    y2 = np.multiply(frame.depth, v[:, None])
    y2 *= y2
    dist += y2
    dist += np.multiply(frame.depth, frame.depth, out=y2)
    np.sqrt(dist, out=dist)
    return Costmap(dist, frame.valid.copy())


def minmax_normalize(costmap: Costmap, orientation: str) -> Costmap:
    """Rescale valid values onto [0, 1].

    ``higher_is_better`` maps the max to 1, ``lower_is_better`` inverts so
    the min maps to 1. A degenerate value range yields a uniform 0.5.
    """
    if orientation not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
        raise ConfigError(f"unknown orientation {orientation!r}")
    ok, values = costmap.valid, costmap.values
    out = np.zeros_like(values)
    # With no valid pixel, hi - lo is -inf and nothing is written.
    lo = float(values.min(where=ok, initial=np.inf))
    hi = float(values.max(where=ok, initial=-np.inf))
    if hi - lo < NORMALIZE_EPS:
        np.copyto(out, 0.5, where=ok)
    else:
        if orientation == HIGHER_IS_BETTER:
            np.subtract(values, lo, out=out, where=ok)
        else:
            np.subtract(hi, values, out=out, where=ok)
        np.divide(out, hi - lo, out=out, where=ok)
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
