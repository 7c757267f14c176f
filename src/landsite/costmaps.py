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
from scipy's feature transform (``distance_transform_edt`` with
``return_indices``, the linear-time EDT of Maurer, Qi & Raghavan, TPAMI
2003). A virtual one-pixel ring of set pixels surrounds the image, so
the result is finite even with no edge at all. The squared offset to
each pixel's nearest set pixel is summed in int32, which is exact since
no pixel is farther than the ring, and its float64 square root is the
correctly rounded square root of the exact integer squared distance:
the same bits as scipy's own distances, which sum the offsets' squares
in float64, exactly below 2^53.

Normals run down the frame in blocks of ``_BLOCK_ROWS`` rows: each block
computes its own camera points (one halo row each side for the vertical
tangent), extends the two tangents' integral images by the rows its
boxes reach, and writes its normals straight into the output planes, so
the stage holds no full-frame float temporary. The result is bit for bit
that of a whole-frame pass: each column's prefix sum is one sequence of
additions down the frame, carried from one block to the next; the row
prefix sums run along each row; and every other operation is per pixel,
with the same operands in the same order.

The block buffers are laid out flat: six planes (three components of
each tangent), each holding its rows end to end at the frame's width,
so a row's neighbours along y are one width away and every box corner
is a fixed flat offset from its box's mean. The differences, the box
combination, the scaling and the masks are then each one numpy pass per
plane over all of a block's rows, not one per row: numpy pays a fixed
cost for each inner loop it runs (about 0.3 us on a 2-vCPU Xeon guest),
and over per-row windows those costs came to more than the arithmetic. Reads that run past a row's end land on the next
row's first columns (or the last of the row above); the columns they
feed are the ones outside the frame's boxes, and are reset to +0.0.

Everything here is a pure, deterministic function of its inputs: the
stages compute in place only in buffers they allocate themselves, and
return no view of an input.

``evaluate_costmaps`` runs a frame's stages on two threads, the calling
thread and the costmap worker: one thread for the whole process, started
by its first task and shared by every caller. Every other function here
runs on the thread that calls it, except ``decision_map``'s split.

- The calling thread runs the depth branch: every map that needs only
  the depth (depth confidence; Canny, the EDT and flatness; energy),
  each with its normalisation. It makes most of a frame's short-lived
  full-frame arrays, and what they cost can depend on the thread that
  allocates them: here a steady-state rubble frame takes no minor page
  fault, while with the branches swapped it took about 4,200 a frame in
  some processes (and none in others).
- The worker meanwhile runs normals and steepness. The branches share
  only the input frame, and numpy and ``scipy.ndimage`` release the
  GIL, so they overlap on a multi-core host.
- After both end, only ``decision_map`` runs: the calling thread
  allocates its output and mask and fuses rows ``[0, H/2)`` while the
  worker fuses rows ``[H/2, H)``, so the worker is not idle during it.

Every numpy call takes the GIL, so the other thread may wait on it: a
stage on either thread costs the frame its calls as well as its
arithmetic, and the worker's normals keep their calls few, about 470 a
640x480 frame rather than 2,800 (see ``_tangent_blocks``).

Both joins are ``_run_both``. The worker runs each task in a copy of the
caller's context, so an enclosing ``np.errstate`` applies to it too, and
both sides finish before the join returns or raises. The calling
thread's error wins: the depth branch's, as in the serial order the
branches mirror (depth confidence, flatness and energy, each normalised,
then normals and steepness), after which no fusion runs; in the fusion,
that of rows ``[0, H/2)``. Concurrent callers' worker tasks run one
after another. A forked child makes a worker of its own, since the fork
does not copy the parent's thread. The stages are pure and the fusion is
per pixel, so every map is the same bits as in serial order.
"""

from __future__ import annotations

import contextvars
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
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


@dataclass(eq=False)
class FrameMaps:
    """Every array the per-frame stages produce, exactly as used downstream."""

    depth_confidence_raw: Costmap
    edges: BinaryMap
    flatness_raw: Costmap
    normals: NormalMap
    steepness: Costmap
    energy_raw: Costmap
    depth_confidence: Costmap
    flatness: Costmap
    energy: Costmap
    decision: Costmap
    stage_ms: dict[str, float]  # costmap stages


def depth_confidence_map(frame: DepthFrame) -> Costmap:
    """Score -depth^2: nearer measurements are trusted more; +0.0 where
    the depth is invalid."""
    valid = frame.valid.copy()
    values = np.zeros(valid.shape)
    where = _mask_or_true(valid)
    np.negative(frame.depth, out=values, where=where)
    np.multiply(values, frame.depth, out=values, where=where)
    return Costmap(values, valid)


def _mask_or_true(mask: np.ndarray):
    """``mask`` as a ufunc's ``where``: True where it holds everywhere,
    since numpy's masked passes take about twice as long as plain ones."""
    return True if mask.all() else mask


def canny_edges(frame: DepthFrame, low: float, high: float) -> BinaryMap:
    """Depth-discontinuity edges; see :mod:`landsite.canny` for conventions."""
    return BinaryMap(canny.detect_edges(frame.depth, frame.valid, low, high))


def distance_transform(edges: BinaryMap, valid: np.ndarray) -> Costmap:
    """Flatness: Euclidean distance in pixels to the nearest edge pixel,
    valid on a copy of ``valid``.

    The ring just outside the frame counts as edge pixels, so the result
    is finite everywhere; see the module docstring for its exactness.
    """
    h, w = edges.bits.shape
    # True off the edges: scipy's features are the False pixels.
    clear = np.zeros((h + 2, w + 2), dtype=bool)
    np.equal(edges.bits, 0, out=clear[1:-1, 1:-1])
    nearest = ndimage.distance_transform_edt(clear, return_distances=False,
                                             return_indices=True)
    # The squared offsets to each pixel's nearest feature, in int32: a
    # distance is at most (min(H, W) + 1) / 2, the way to the ring, so
    # they cannot overflow below 92,000 pixels a side.
    d2 = np.subtract(nearest[0, 1:-1, 1:-1],
                     np.arange(1, h + 1, dtype=np.int32)[:, None])
    d2 *= d2
    dx = np.subtract(nearest[1, 1:-1, 1:-1], np.arange(1, w + 1, dtype=np.int32))
    dx *= dx
    d2 += dx
    return Costmap(np.sqrt(d2, dtype=np.float64), np.array(valid, dtype=bool))


def surface_normals(frame: DepthFrame, smoothing_window: int = 3) -> NormalMap:
    """World-frame unit normals from box-averaged central-difference tangents.

    Horizontal and vertical tangents are taken on the camera-frame point
    grid at x +/- 1 and y +/- 1, each component box-averaged over a
    ``smoothing_window`` square; the normal is their cross product,
    sign-flipped to face the camera, then rotated into the world frame.
    Pixels whose stencil touches an invalid or out-of-image pixel are
    invalid, as are pixels with a degenerate (zero) cross product. A
    window wider than the frame leaves no pixel valid.

    The frame is computed in blocks of ``_BLOCK_ROWS`` rows (see
    ``_tangent_blocks``), each written straight into the ``(3, H, W)``
    planes the returned map wraps, so no full-frame float temporary is
    held. The blocks change no bit: the column prefix sums of the
    integral images run down the frame in one sequence, carried from
    block to block; the row prefix sums run along each row; and every
    other step works one pixel at a time.
    """
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ConfigError("smoothing window must be odd and >= 1")
    valid = frame.valid
    h, w = valid.shape
    stencil_h = np.zeros_like(valid)
    np.logical_and(valid[:, 2:], valid[:, :-2], out=stencil_h[:, 1:-1])
    stencil_v = np.zeros_like(valid)
    np.logical_and(valid[2:], valid[:-2], out=stencil_v[1:-1])
    ok_h = _box_valid(stencil_h, smoothing_window)
    ok_v = _box_valid(stencil_v, smoothing_window)
    del stencil_h, stencil_v
    ok = ok_h & ok_v

    r = frame.pose_world_from_camera.rotation
    world = np.empty((3, h, w))
    cross_rows = np.empty((3, min(_BLOCK_ROWS, h), w))
    tmp_rows = np.empty(cross_rows.shape[1:])
    for y0, y1, p, means in _tangent_blocks(frame, smoothing_window,
                                            ok_h, ok_v):
        hs, vs = means[:3], means[3:]
        cross, tmp = cross_rows[:, : y1 - y0], tmp_rows[: y1 - y0]
        for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.multiply(hs[i], vs[j], out=cross[c])
            np.multiply(hs[j], vs[i], out=tmp)
            cross[c] -= tmp
        normals, nonzero = _unit_normals(cross, p)
        block_ok = ok[y0:y1]
        block_ok &= nonzero
        normals *= block_ok

        out = world[:, y0:y1]
        for i in range(3):
            np.multiply(r[i, 0], normals[0], out=out[i])
            out[i] += np.multiply(r[i, 1], normals[1], out=tmp)
            out[i] += np.multiply(r[i, 2], normals[2], out=tmp)
    return NormalMap(np.moveaxis(world, 0, -1), ok)


# Rows per block of ``surface_normals``: small enough that a block's
# buffers stay in cache, large enough that numpy's per-call cost does
# not show. On a 640x480 frame, blocks of 16 and 32 rows ran fastest of
# 8 to 64; the stage's traced peak is 12.5 MB at 32 rows.
_BLOCK_ROWS = 32


def _tangent_blocks(frame: DepthFrame, window: int, ok_h: np.ndarray,
                    ok_v: np.ndarray):
    """Yield ``(y0, y1, points, means)`` for each block of rows
    ``[y0, y1)``, top to bottom.

    ``points`` are the block's camera planes and ``means`` is a
    ``(6, y1 - y0, W)`` buffer, reused by the next block: the horizontal
    (x +/- 1) then the vertical (y +/- 1) central difference of the
    points, each box-averaged over a ``window`` square. A mean is
    multiplied by its mask (``ok_h``, ``ok_v``) and is +0.0 where the box
    reaches outside the frame; with ``window`` 1 the means are the bare
    differences, unmasked, and differences on the frame's edge along
    their axis are 0.

    The box sums come from integral images of the differences: prefix
    sums down the columns, then along the rows, behind a zero first row,
    with corners combined as ``((d - b) - c) + a``. Only the integral
    rows the block's boxes reach are held: the ``window`` rows the next
    block shares are moved to the front of the buffer, and the column
    prefix of the last differences row summed carries over, so each
    column's additions run in one sequence down the frame.

    The integral rows and the means share the row pitch W, so each
    corner of every box in the block is one flat offset away from its
    mean, and each step of the combination is one pass per plane over
    the block's rows laid end to end. The integral holds no zero column:
    a box in column r has the zero column as its left corners, and the
    flat read there lands on the row above's last sum instead, so that
    column is recomputed as ``((d - 0) - c) + 0``, which is
    ``(d - c) + 0``. The flat passes also write the columns where the
    box leaves the frame, from reads that wrap past a row's end; those
    are reset to +0.0 before the means are scaled and masked.
    """
    h, w = ok_h.shape
    r = window // 2
    nx = w - window + 1
    # Rows [top, bottom) of the means whose box lies inside the frame.
    top, bottom = (r, h - r) if window <= min(h, w) else (0, 0)
    means = np.zeros((6, min(_BLOCK_ROWS, h), w))
    flat_means = means.reshape(6, -1)
    if window > 1 and top < bottom:  # so the window fits in the frame
        scale = 1.0 / float(window * window)
        # Integral rows [first, first + held); row 0 is the zero row.
        integral = np.zeros((6, _BLOCK_ROWS + window, w))
        flat_integral = integral.reshape(6, -1)
        first, held, carry = 0, 1, None
    for y0 in range(0, h, _BLOCK_ROWS):
        y1 = min(y0 + _BLOCK_ROWS, h)
        a0, a1 = max(y0, top), min(y1, bottom)  # rows with a full box
        # Rows of differences this block needs: for the integral image,
        # those it still lacks up to the lowest row its boxes reach.
        if window > 1 and a0 < a1:
            lo, hi = first + held - 1, a1 + r
        else:
            lo, hi = y0, y1
        p0, p1 = max(min(y0, lo) - 1, 0), min(max(y1, hi) + 1, h)
        p = camera_planes(frame, np.s_[p0:p1])
        n = y1 - y0
        block = means[:, :n]
        if window == 1:
            _differences(p, p0, y0, y1, h, flat_means[:, : n * w])
        else:
            # Rows outside [a0, a1) keep +0.0; interior blocks have none.
            i0 = min(max(a0 - y0, 0), n)
            i1 = min(max(a1 - y0, i0), n)
            block[:, :i0] = 0.0
            block[:, i1:] = 0.0
            if a0 < a1:
                drop = a0 - r - first
                if drop:
                    integral[:, : held - drop] = integral[:, drop:held]
                    first, held = a0 - r, held - drop
                # Extend the integral image by rows for differences [lo, hi).
                new = integral[:, held : held + hi - lo]
                _differences(p, p0, lo, hi, h,
                             flat_integral[:, held * w : (held + hi - lo) * w])
                if carry is not None:
                    new[:, 0] += carry
                # np.cumsum's additions down the columns, one row of all
                # six planes per call: faster than np.cumsum(axis=1), and
                # each numpy call takes the GIL, which the depth branch on
                # the other thread may be waiting for, so one call per row
                # rather than one per row and plane (about 470 calls a
                # 640x480 frame, not 2,800).
                for y in range(1, hi - lo):
                    new[:, y] += new[:, y - 1]
                carry = new[:, -1].copy()
                np.cumsum(new, axis=-1, out=new)
                held += hi - lo

                # Integral rows of the lower and upper corners of row a0.
                lower, upper = a0 + r + 1 - first, a0 - r - first
                # The means from column r + 1 of row a0 to the last full
                # box of row a1 - 1, end to end, and the flat starts of
                # their corners d, b (lower) and c, a (upper); column r is
                # done below.
                start, size = i0 * w + r + 1, (i1 - i0 - 1) * w + nx - 1
                d, b = lower * w + 2 * r + 1, lower * w
                c, a = upper * w + 2 * r + 1, upper * w
                box = flat_means[:, start : start + size]
                np.subtract(flat_integral[:, d : d + size],
                            flat_integral[:, b : b + size], out=box)
                box -= flat_integral[:, c : c + size]
                box += flat_integral[:, a : a + size]
                left = block[:, i0:i1, r]
                np.subtract(integral[:, lower : lower + i1 - i0, 2 * r],
                            integral[:, upper : upper + i1 - i0, 2 * r],
                            out=left)
                left += 0.0
                block[:, i0:i1, :r] = 0.0
                block[:, i0:i1, r + nx :] = 0.0
                flat_means[:, i0 * w : i1 * w] *= scale
                block[:3, i0:i1] *= ok_h[a0:a1]
                block[3:, i0:i1] *= ok_v[a0:a1]
        yield y0, y1, p[:, y0 - p0 : y1 - p0], block


def _differences(p: np.ndarray, p0: int, lo: int, hi: int, h: int,
                 out: np.ndarray) -> None:
    """Write the central differences of frame rows ``[lo, hi)`` into
    ``out``, six planes of those rows laid end to end: along x into
    ``out[:3]``, along y into ``out[3:]``, 0 on the frame's edge along
    each axis. ``p`` holds the camera planes of frame rows ``p0`` on, one
    more row each side where the frame has one.

    Each pass runs over the rows end to end: a difference along y reads
    the points one row pitch away, and one along x reads its neighbours
    in the flat rows, which past a row's end are the next row's; the
    first and last columns are then reset to 0.
    """
    w = p.shape[-1]
    points = p.reshape(3, -1)
    along_x, along_y = out[:3], out[3:]
    rows = points[:, (lo - p0) * w : (hi - p0) * w]
    np.subtract(rows[:, 2:], rows[:, :-2], out=along_x[:, 1:-1])
    along_x[:, ::w] = 0.0
    along_x[:, w - 1 :: w] = 0.0
    inner0 = max(lo, 1)  # rows [inner0, inner1) have a row above and below
    inner1 = max(min(hi, h - 1), inner0)
    along_y[:, : (inner0 - lo) * w] = 0.0
    along_y[:, (inner1 - lo) * w :] = 0.0
    np.subtract(points[:, (inner0 + 1 - p0) * w : (inner1 + 1 - p0) * w],
                points[:, (inner0 - 1 - p0) * w : (inner1 - 1 - p0) * w],
                out=along_y[:, (inner0 - lo) * w : (inner1 - lo) * w])


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
    # exp(-(theta * theta) / (2 tol^2)), theta = arccos(clip(|n_z|, 0, 1)),
    # op by op in one buffer.
    values = np.abs(normals.normals[..., 2])
    np.clip(values, 0.0, 1.0, out=values)
    np.arccos(values, out=values)
    np.multiply(values, values, out=values)
    np.negative(values, out=values)
    values /= 2.0 * slope_tolerance * slope_tolerance
    np.exp(values, out=values)
    np.copyto(values, 0.0, where=~normals.valid)
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
    where = _mask_or_true(ok)
    # With no valid pixel, hi - lo is -inf and nothing is written.
    lo = float(values.min(where=where, initial=np.inf))
    hi = float(values.max(where=where, initial=-np.inf))
    if hi - lo < NORMALIZE_EPS:
        np.copyto(out, 0.5, where=where)
    else:
        if orientation == HIGHER_IS_BETTER:
            np.subtract(values, lo, out=out, where=where)
        else:
            np.subtract(hi, values, out=out, where=where)
        np.divide(out, hi - lo, out=out, where=where)
    return Costmap(out, ok.copy())


def decision_map(depth_confidence: Costmap, flatness: Costmap,
                 steepness: Costmap, energy: Costmap,
                 config: PipelineConfig) -> Costmap:
    """Weighted sum of the four scores; valid only where all inputs are.

    The weights are ``config``'s four ``weight_*`` fields, which
    ``PipelineConfig`` keeps convex. Expects depth confidence and flatness
    normalized higher-is-better, energy normalized lower-is-better, and raw
    steepness. Each pixel is the weighted terms summed left to right, or
    +0.0 where any input is invalid.

    This thread fuses rows ``[0, H/2)`` and the costmap worker rows
    ``[H/2, H)``, into the one output this thread allocates (see the module
    docstring). Both halves finish before this returns or raises, and an
    error in rows ``[0, H/2)`` wins. Do not call it from the worker (see
    ``_run_both``).
    """
    maps = (depth_confidence, flatness, steepness, energy)
    shape = depth_confidence.shape
    if any(m.shape != shape for m in maps):
        raise ValueError("costmaps are not aligned")
    fused = np.empty(shape)
    ok = np.empty(shape, dtype=bool)
    h = shape[0]
    _run_both(lambda: _fuse_rows(maps, config, fused, ok, 0, h // 2),
              lambda: _fuse_rows(maps, config, fused, ok, h // 2, h))
    return Costmap(fused, ok)


def _fuse_rows(maps: tuple[Costmap, ...], config: PipelineConfig,
               fused: np.ndarray, ok: np.ndarray, lo: int, hi: int) -> None:
    """Write ``decision_map``'s rows ``[lo, hi)`` into ``fused`` and ``ok``:
    the weighted terms summed left to right, +0.0 where any input is
    invalid."""
    dc, flat, steep, energy = maps
    rows = slice(lo, hi)
    out, mask = fused[rows], ok[rows]
    np.logical_and(dc.valid[rows], flat.valid[rows], out=mask)
    mask &= steep.valid[rows]
    mask &= energy.valid[rows]
    np.multiply(config.weight_depth_confidence, dc.values[rows], out=out)
    term = np.empty_like(out)
    out += np.multiply(config.weight_flatness, flat.values[rows], out=term)
    out += np.multiply(config.weight_steepness, steep.values[rows], out=term)
    out += np.multiply(config.weight_energy, energy.values[rows], out=term)
    del term  # before the mask's inverse is allocated
    np.copyto(out, 0.0, where=~mask)


def _make_worker() -> None:
    """Make the process's costmap worker; its thread starts with its
    first task."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1,
                                 thread_name_prefix="landsite-costmaps")


_make_worker()
# The fork copies the parent's worker but not its thread, so a task queued
# on it in the child would never run: the child makes its own.
os.register_at_fork(after_in_child=_make_worker)


def _run_both(here, there):
    """Run ``there()`` on the costmap worker while this thread runs
    ``here()``; return ``(here(), there())``.

    ``there`` runs in a copy of this thread's context, so an enclosing
    ``np.errstate`` applies to it too. Both finish before this returns or
    raises, and if both fail, ``here``'s error wins. Never call this from
    the worker itself (from a ``there``): the call would wait for a task
    queued behind its own.
    """
    elsewhere = _worker.submit(contextvars.copy_context().run, there)
    try:
        result = here()
    finally:
        wait((elsewhere,))
    return result, elsewhere.result()


class _StageClock:
    """Lap timer: each ``lap`` records the milliseconds since the last one."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def lap(self, stage: str) -> None:
        t = time.perf_counter()
        self.ms[stage] = (t - self._t0) * 1e3
        self._t0 = t


def _depth_branch(config: PipelineConfig, frame: DepthFrame) -> dict:
    """Every map that needs only the depth, each with its normalisation,
    timed on its own clock; the ``FrameMaps`` fields plus ``stage_ms``."""
    clock = _StageClock()
    depth_conf_raw = depth_confidence_map(frame)
    depth_conf = minmax_normalize(depth_conf_raw, HIGHER_IS_BETTER)
    clock.lap("depth_accuracy")
    edges = canny_edges(frame, config.canny_low_m, config.canny_high_m)
    flat_raw = distance_transform(edges, frame.valid)
    flat = minmax_normalize(flat_raw, HIGHER_IS_BETTER)
    clock.lap("flatness")
    energy_raw = energy_map(frame)
    energy = minmax_normalize(energy_raw, LOWER_IS_BETTER)
    clock.lap("energy")
    return dict(depth_confidence_raw=depth_conf_raw, edges=edges,
                flatness_raw=flat_raw, energy_raw=energy_raw,
                depth_confidence=depth_conf, flatness=flat, energy=energy,
                stage_ms=clock.ms)


def _normals_branch(config: PipelineConfig, frame: DepthFrame):
    """Normals and steepness, timed as one "steepness" lap; returns
    ``(normals, steepness, stage_ms)``."""
    clock = _StageClock()
    normals = surface_normals(frame, config.smoothing_window_px)
    steep = steepness_map(normals, math.radians(config.slope_tolerance_deg))
    clock.lap("steepness")
    return normals, steep, clock.ms


def evaluate_costmaps(config: PipelineConfig, frame: DepthFrame) -> FrameMaps:
    """Run the costmap stages for one frame, timing each into ``stage_ms``.

    The depth branch runs on this thread and normals and steepness on the
    costmap worker; "final" times the fusion alone, after they join. The
    module docstring describes the schedule and what an error leaves.
    """
    depth_maps, (normals, steep, steep_ms) = _run_both(
        lambda: _depth_branch(config, frame),
        lambda: _normals_branch(config, frame))
    final = _StageClock()
    decision = decision_map(depth_maps["depth_confidence"],
                            depth_maps["flatness"], steep,
                            depth_maps["energy"], config)
    final.lap("final")
    stage_ms = {**depth_maps.pop("stage_ms"), **steep_ms, **final.ms}
    return FrameMaps(**depth_maps, normals=normals, steepness=steep,
                     decision=decision, stage_ms=stage_ms)
