"""Exact Euclidean distance transform of binary images.

Wraps ``scipy.ndimage.distance_transform_edt`` (the exact linear-time
EDT of Maurer, Qi & Raghavan, TPAMI 2003). The squared distance is
formed in int64 from the returned nearest-pixel indices, so it is exact.

A virtual one-pixel ring of set pixels surrounds the image, guaranteeing
a finite result even for an all-zero input.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def squared_distance_transform(bits: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest set pixel (int64)."""
    b = np.asarray(bits)
    if b.ndim != 2:
        raise ValueError("binary map must be 2-D")
    h, w = b.shape
    padded = np.ones((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = b != 0
    iy, ix = ndimage.distance_transform_edt(~padded, return_distances=False,
                                            return_indices=True)
    dy = iy[1:-1, 1:-1].astype(np.int64) - np.arange(1, h + 1)[:, None]
    dx = ix[1:-1, 1:-1].astype(np.int64) - np.arange(1, w + 1)[None, :]
    return dy * dy + dx * dx


def distance_transform(bits: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance (float64) to the nearest set pixel."""
    return np.sqrt(squared_distance_transform(bits).astype(np.float64))
