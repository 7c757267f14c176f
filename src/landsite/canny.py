"""Canny edge detection over metric depth images.

Thresholds are expressed in meters of depth change per pixel; the Sobel
kernels are scaled by 1/8 so a unit-slope ramp reads as 1.0.

The exact conventions below are load-bearing: an independent
reimplementation that follows them reproduces this detector
pixel-for-pixel, floats included.

* Invalid depths are replaced by 0.0 before any filtering.
* Gaussian smoothing: sigma 1.0, kernel radius ceil(3 sigma), sampled
  and normalized; separable, vertical pass first; borders clamp to the
  edge pixel; taps accumulate in ascending offset order.
* Gradients: 3x3 Sobel / 8, taps accumulated row-major, clamped borders.
* Non-maximum suppression: gradient directions quantized into four
  classes by comparing |gy| against tan(22.5 deg)*|gx| (class boundaries
  inclusive toward the horizontal class) and the sign of gx*gy for the
  diagonals. A pixel survives iff mag > mag(prev) and mag >= mag(next),
  where (prev, next) per class are fixed offsets:
  horizontal (x-1,y)/(x+1,y); 45 deg (x-1,y-1)/(x+1,y+1);
  vertical (x,y-1)/(x,y+1); 135 deg (x+1,y-1)/(x-1,y+1).
  Out-of-image neighbors count as magnitude 0.
* Hysteresis: weak = mag >= low, strong = mag >= high, 8-connectivity.
* Finally, every invalid pixel and every pixel 8-adjacent to one is
  forced to 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .errors import ConfigError

GAUSSIAN_SIGMA = 1.0

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64) / 8.0
SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64) / 8.0

_TAN_22_5 = math.tan(math.pi / 8.0)
_TAN_67_5 = math.tan(3.0 * math.pi / 8.0)


def gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _correlate2d_clamped(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    p = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    h, w = img.shape
    out = np.zeros_like(img)
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[dy, dx] * p[dy : dy + h, dx : dx + w]
    return out


def _shifted(padded: np.ndarray, dy: int, dx: int, h: int, w: int) -> np.ndarray:
    return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]


def detect_edges(depth: np.ndarray, valid: np.ndarray, low: float,
                 high: float) -> np.ndarray:
    """Edge map (uint8 {0, 1}) of depth discontinuities.

    ``low`` and ``high`` are hysteresis thresholds on the gradient
    magnitude, in meters per pixel.
    """
    if not (0 < low <= high):
        raise ConfigError("edge thresholds must satisfy 0 < low <= high")
    d = np.where(valid, depth, 0.0).astype(np.float64)
    h, w = d.shape

    k = gaussian_kernel(GAUSSIAN_SIGMA)
    smoothed = _correlate2d_clamped(d, k[:, None])
    smoothed = _correlate2d_clamped(smoothed, k[None, :])

    gx = _correlate2d_clamped(smoothed, SOBEL_X)
    gy = _correlate2d_clamped(smoothed, SOBEL_Y)
    mag = np.sqrt(gx * gx + gy * gy)

    ax = np.abs(gx)
    ay = np.abs(gy)
    horizontal = ay <= _TAN_22_5 * ax
    vertical = ay > _TAN_67_5 * ax
    diagonal = ~horizontal & ~vertical
    diag_main = diagonal & (gx * gy >= 0)
    diag_anti = diagonal & ~diag_main

    padded = np.pad(mag, 1, mode="constant")
    prev_mag = np.select(
        [horizontal, diag_main, vertical, diag_anti],
        [_shifted(padded, 0, -1, h, w), _shifted(padded, -1, -1, h, w),
         _shifted(padded, -1, 0, h, w), _shifted(padded, -1, 1, h, w)])
    next_mag = np.select(
        [horizontal, diag_main, vertical, diag_anti],
        [_shifted(padded, 0, 1, h, w), _shifted(padded, 1, 1, h, w),
         _shifted(padded, 1, 0, h, w), _shifted(padded, 1, -1, h, w)])
    peak = (mag > prev_mag) & (mag >= next_mag)

    weak = peak & (mag >= low)
    strong = peak & (mag >= high)
    labels, n_labels = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    if n_labels:
        keep = np.zeros(n_labels + 1, dtype=bool)
        keep[np.unique(labels[strong])] = True
        keep[0] = False
        edges = keep[labels]
    else:
        edges = np.zeros_like(weak)

    invalid = ~np.asarray(valid, dtype=bool)
    if invalid.any():
        edges = edges | ndimage.binary_dilation(invalid, np.ones((3, 3), bool))
    return edges.astype(np.uint8)
