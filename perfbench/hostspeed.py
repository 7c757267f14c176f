"""A fixed reference load that tells how fast the host runs right now.

On a shared host the speed of one core drifts by 15-30% over tens of
seconds and between runs, because other tenants load the same physical
cores; CPU time drifts with wall time, so it does not help. The
benchmark times ``reference()`` between its timed operations and scales
each operation's wall time by ``NOMINAL_S`` over the mean of the
reference times just before and just after it: the figure is the
operation's time on a host where ``reference()`` takes ``NOMINAL_S``.
The reference is the benchmark's own code and never changes with the
package, so a change to the package moves the scaled time exactly as it
moves the wall time.

The load has the two kinds of work the package does. The image half
streams 640x480 float arrays through numpy as the costmaps do; the
registry half computes blocked pairwise distances over a few hundred
points, walks a union-find over Python lists and round-trips records
through JSON, as insertion, clustering and the writers do. Each half
alone tracked its own kind of work across processes to within 3%, and
the other kind to within 10%; the sum tracks both to within 7%.
"""

from __future__ import annotations

import json
import time

import numpy as np

# reference() on the host the benchmark was written on (one thread of a
# 2-vCPU Intel Xeon guest, Python 3.11, numpy 2.4): medians of 200 calls
# read 28-32 ms.
NOMINAL_S = 0.030

_rng = np.random.default_rng(12345)
_IMAGE = _rng.random((480, 640))
_POINTS = _rng.uniform(0.0, 30.0, (600, 3))
_RECORDS = [{"x": float(x), "y": float(y), "z": float(z), "score": 0.5}
            for x, y, z in _POINTS[:300]]


def reference() -> float:
    """Run the fixed load once; return its wall time in seconds."""
    t0 = time.perf_counter()
    image = _IMAGE
    for _ in range(2):
        gy, gx = np.gradient(image)
        mag = np.sqrt(gx * gx + gy * gy)
        mag = (mag - mag.min()) / (mag.max() - mag.min())
        np.argwhere(mag > 0.9)
    for start in range(0, len(_POINTS), 200):
        block = _POINTS[start:start + 200]
        d2 = ((block[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=2)
        np.argwhere(d2 < 0.25)
    parent = list(range(2000))
    for i in range(1, 2000):
        j = (i * 7919) % i
        while parent[j] != j:
            j = parent[j]
        parent[i] = j
    json.loads(json.dumps(_RECORDS))
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the nominal host speed, from the references around it."""
    return seconds * 2.0 * NOMINAL_S / (ref_before + ref_after)
