"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, linear scans, O(N^2) pair checks) and shares no code with the
package under test. The Canny reference follows the documented detector
conventions tap for tap so the comparison is exact.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

TAN_22_5 = math.tan(math.pi / 8.0)
TAN_67_5 = math.tan(3.0 * math.pi / 8.0)


def brute_force_squared_edt(bits: np.ndarray) -> np.ndarray:
    """O(pixels x sites) exact squared EDT, virtual border ring included."""
    b = np.asarray(bits) != 0
    h, w = b.shape
    ys0, xs0 = np.nonzero(b)
    ring_x = np.concatenate([np.arange(-1, w + 1), np.arange(-1, w + 1),
                             np.full(h, -1), np.full(h, w)])
    ring_y = np.concatenate([np.full(w + 2, -1), np.full(w + 2, h),
                             np.arange(h), np.arange(h)])
    sx = np.concatenate([xs0, ring_x]).astype(np.int64)
    sy = np.concatenate([ys0, ring_y]).astype(np.int64)
    dx2 = (np.arange(w, dtype=np.int64)[:, None] - sx[None, :]) ** 2  # (w, S)
    out = np.empty((h, w), np.int64)
    for y in range(h):
        dy2 = (np.int64(y) - sy) ** 2
        out[y] = (dx2 + dy2[None, :]).min(axis=1)
    return out


def naive_canny(depth: np.ndarray, valid: np.ndarray, low: float,
                high: float, sigma: float = 1.0) -> np.ndarray:
    """Loop-based Canny sharing the production detector's conventions."""
    h, w = depth.shape
    img = [[float(depth[y, x]) if valid[y, x] else 0.0 for x in range(w)]
           for y in range(h)]

    radius = int(math.ceil(3.0 * sigma))
    kernel = [math.exp(-0.5 * ((j - radius) / sigma) ** 2)
              for j in range(2 * radius + 1)]
    total = sum(kernel)
    kernel = [k / total for k in kernel]

    def clamp(i, n):
        return 0 if i < 0 else (n - 1 if i >= n else i)

    # vertical then horizontal pass, taps in ascending offset order
    sm_v = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for j, kj in enumerate(kernel):
                acc += kj * img[clamp(y + j - radius, h)][x]
            sm_v[y][x] = acc
    sm = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for j, kj in enumerate(kernel):
                acc += kj * sm_v[y][clamp(x + j - radius, w)]
            sm[y][x] = acc

    sobel_x = [[-1 / 8, 0.0, 1 / 8], [-2 / 8, 0.0, 2 / 8], [-1 / 8, 0.0, 1 / 8]]
    sobel_y = [[-1 / 8, -2 / 8, -1 / 8], [0.0, 0.0, 0.0], [1 / 8, 2 / 8, 1 / 8]]
    gx = [[0.0] * w for _ in range(h)]
    gy = [[0.0] * w for _ in range(h)]
    mag = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            ax = 0.0
            ay = 0.0
            for dy in range(3):
                for dx in range(3):
                    v = sm[clamp(y + dy - 1, h)][clamp(x + dx - 1, w)]
                    ax += sobel_x[dy][dx] * v
                    ay += sobel_y[dy][dx] * v
            gx[y][x] = ax
            gy[y][x] = ay
            mag[y][x] = math.sqrt(ax * ax + ay * ay)

    def mag_at(y, x):
        if 0 <= y < h and 0 <= x < w:
            return mag[y][x]
        return 0.0

    peak = [[False] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            ax = abs(gx[y][x])
            ay = abs(gy[y][x])
            if ay <= TAN_22_5 * ax:
                prev, nxt = (y, x - 1), (y, x + 1)
            elif ay > TAN_67_5 * ax:
                prev, nxt = (y - 1, x), (y + 1, x)
            elif gx[y][x] * gy[y][x] >= 0:
                prev, nxt = (y - 1, x - 1), (y + 1, x + 1)
            else:
                prev, nxt = (y - 1, x + 1), (y + 1, x - 1)
            m = mag[y][x]
            peak[y][x] = m > mag_at(*prev) and m >= mag_at(*nxt)

    strong = deque()
    weak = [[False] * w for _ in range(h)]
    edges = [[False] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            if peak[y][x] and mag[y][x] >= low:
                weak[y][x] = True
                if mag[y][x] >= high:
                    strong.append((y, x))
                    edges[y][x] = True
    while strong:
        y, x = strong.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny][nx] \
                        and not edges[ny][nx]:
                    edges[ny][nx] = True
                    strong.append((ny, nx))

    out = np.array(edges, dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            if not valid[y, x]:
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w:
                            out[ny, nx] = 1
    return out


def homogeneous_pixel_to_world(pixel, depth, intrinsics, rotation,
                               translation) -> np.ndarray:
    """Reference pixel -> world lift via an explicit 4x4 matrix product."""
    x, y = pixel
    p_cam = np.array([
        depth * (x - intrinsics.cx) / intrinsics.fx,
        depth * (y - intrinsics.cy) / intrinsics.fy,
        depth,
        1.0,
    ])
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return (m @ p_cam)[:3]


def json_dumps_candidates_jsonl(frame_results) -> str:
    """Reference candidates.jsonl text: one ``json.dumps`` call per row."""
    lines = []
    for fr in frame_results:
        c = fr.candidates
        for i in range(len(c)):
            obj = {"frame_id": fr.frame_id, "px": int(c.xs[i]),
                   "py": int(c.ys[i]), "depth_m": float(c.depth[i]),
                   "score": float(c.score[i]),
                   "flat_radius_px": float(c.flat_radius_px[i])}
            lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


def linear_scan_nearest(points, query):
    """(index, squared distance) of the nearest point; ties -> lowest index."""
    best_idx = -1
    best_d2 = float("inf")
    qx, qy, qz = float(query[0]), float(query[1]), float(query[2])
    for i, p in enumerate(points):
        dx = qx - float(p[0])
        dy = qy - float(p[1])
        dz = qz - float(p[2])
        d2 = dx * dx + dy * dy + dz * dz
        if d2 < best_d2:
            best_idx = i
            best_d2 = d2
    return (best_idx, best_d2) if best_idx >= 0 else None


def sequential_dedup(positions, dedup_radius: float) -> list[bool]:
    """Greedy insertion order dedup via linear scans."""
    accepted: list[tuple[float, float, float]] = []
    flags = []
    r2 = dedup_radius * dedup_radius
    for p in positions:
        hit = linear_scan_nearest(accepted, p)
        ok = hit is None or not hit[1] < r2
        flags.append(ok)
        if ok:
            accepted.append((float(p[0]), float(p[1]), float(p[2])))
    return flags


def sequential_dedup_vectorized(positions, dedup_radius: float) -> list[bool]:
    """Same greedy dedup, with the per-candidate scan done by numpy.

    Still a brute-force scan over every accepted site (no spatial index);
    usable for large inputs.
    """
    pos = np.asarray(positions, dtype=np.float64)
    accepted = np.empty_like(pos)
    n_acc = 0
    flags = []
    r2 = dedup_radius * dedup_radius
    for p in pos:
        if n_acc:
            d = accepted[:n_acc] - p
            d2 = (d * d).sum(axis=1)
            ok = not bool((d2 < r2).any())
        else:
            ok = True
        flags.append(ok)
        if ok:
            accepted[n_acc] = p
            n_acc += 1
    return flags


def brute_force_partition(positions, dist_th: float, z_th: float,
                          metric: str = "xy") -> list[int]:
    """Connected components over all pairs; labels are canonicalized.

    Linkability: dx*dx + dy*dy <= dist_th*dist_th and abs(dz) <= z_th,
    with + dz*dz on the left for the "xyz" metric.
    """
    n = len(positions)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = dist_th * dist_th
    for i in range(n):
        xi, yi, zi = positions[i]
        for j in range(i + 1, n):
            dx = float(xi) - float(positions[j][0])
            dy = float(yi) - float(positions[j][1])
            dz = float(zi) - float(positions[j][2])
            if metric == "xy":
                link = dx * dx + dy * dy <= d2 and abs(dz) <= z_th
            else:
                link = dx * dx + dy * dy + dz * dz <= d2 and abs(dz) <= z_th
            if link:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    labels = [find(i) for i in range(n)]
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return out


def canonical_partition(labels) -> list[int]:
    """Relabel any partition labeling into first-appearance order."""
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return out
