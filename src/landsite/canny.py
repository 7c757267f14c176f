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

The magnitude is computed over the whole frame, but the direction
classes and the suppression only where it reaches ``low`` (on the six
golden test scenes, 0-5% of the pixels). That is exact: a weak pixel
needs mag >= low, and a strong one is weak because high >= low, so a
pixel below ``low`` is never an edge whatever its class. The magnitude
is held with a one-pixel ring of zeros around the image, so a neighbour
outside it reads 0 and a candidate's comparisons are the ones a
whole-frame pass would make. The invalid forcing is a 3x3 dilation
written as ORs of shifted slices.

All four filter passes are ``scipy.ndimage.correlate(..., mode="nearest")``,
which clamps like ``np.pad(mode="edge")`` and adds ``tap * pixel`` in
row-major tap order into a double that starts at +0.0. It skips taps
with |w| <= DBL_EPSILON: here only Sobel's zero taps, whose products are
+-0.0 for finite input and cannot change a sum that started at +0.0.
The smallest sigma-1 Gaussian tap is about 4.4e-3, so none is skipped;
a kernel with a nonzero tap at or below DBL_EPSILON would break this.
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


def detect_edges(depth: np.ndarray, valid: np.ndarray, low: float,
                 high: float) -> np.ndarray:
    """Edge map (uint8 {0, 1}) of depth discontinuities.

    ``low`` and ``high`` are hysteresis thresholds on the gradient
    magnitude, in meters per pixel.
    """
    if not (0 < low <= high):
        raise ConfigError("edge thresholds must satisfy 0 < low <= high")
    d = np.where(valid, depth, 0.0).astype(np.float64, copy=False)
    h, w = d.shape

    k = gaussian_kernel(GAUSSIAN_SIGMA)
    smoothed = ndimage.correlate(d, k[:, None], mode="nearest")
    del d
    smoothed = ndimage.correlate(smoothed, k[None, :], mode="nearest")

    # The gradients and the magnitude fill the inside of frames one pixel
    # wider on every side, whose ring stays 0: the magnitude outside the
    # image that the suppression reads.
    pw = w + 2
    gx = np.zeros((h + 2, pw))
    gy = np.zeros((h + 2, pw))
    ndimage.correlate(smoothed, SOBEL_X, output=gx[1:-1, 1:-1], mode="nearest")
    ndimage.correlate(smoothed, SOBEL_Y, output=gy[1:-1, 1:-1], mode="nearest")
    del smoothed
    mag = gx * gx
    mag += gy * gy
    np.sqrt(mag, out=mag)
    mag = mag.ravel()

    # Only a pixel with mag >= low can become an edge, so the direction
    # classes and the suppression are evaluated at those pixels alone, on
    # flat indices into the padded frame; a neighbour's index is the
    # pixel's plus or minus its class's stride.
    at = np.flatnonzero(mag >= low)
    gx = gx.ravel().take(at)
    gy = gy.ravel().take(at)
    m = mag.take(at)
    rising = gx * gy >= 0
    ax = np.abs(gx, out=gx)
    ay = np.abs(gy, out=gy)
    # The horizontal and vertical tests cannot both hold (tan 22.5 |gx| <=
    # tan 67.5 |gx|); the diagonals take the rest.
    stride = np.where(rising, pw + 1, pw - 1)
    stride[ay > _TAN_67_5 * ax] = pw
    stride[ay <= _TAN_22_5 * ax] = 1
    peak = (m > mag.take(at - stride)) & (m >= mag.take(at + stride))
    del mag
    weak_at = at[peak]
    strong_at = weak_at[m[peak] >= high]  # high >= low: strong is weak

    weak = np.zeros((h + 2) * pw, dtype=bool)
    weak[weak_at] = True
    labels, n_labels = ndimage.label(weak.reshape(h + 2, pw),
                                     structure=np.ones((3, 3), dtype=int))
    keep = np.zeros(n_labels + 1, dtype=bool)
    keep[labels.ravel().take(strong_at)] = True  # keep[0] stays False
    edges = keep.take(labels[1:-1, 1:-1])

    # Every invalid pixel and its 8 neighbours: the mask ORed with its
    # rows above and below, then that ORed into the edges with its
    # columns left and right; the same pixels as a 3x3 dilation.
    invalid = ~np.asarray(valid, dtype=bool)
    if invalid.any():
        grown = invalid.copy()
        grown[1:] |= invalid[:-1]
        grown[:-1] |= invalid[1:]
        edges |= grown
        edges[:, 1:] |= grown[:, :-1]
        edges[:, :-1] |= grown[:, 1:]
    return edges.astype(np.uint8)
