"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, linear scans, O(N^2) pair checks, every primitive against every
pixel) and shares no code with the package under test; the snapshot
reader only fills its plain ``LandingSite`` records, and the reference
renderer and the scene-file writer only read the package's scene, frame
and ground-truth types, and the full-frame candidate selector only fills
a ``Candidates``.
``edge_mask_from_prim_ids`` derives the edge ground truth from a
render's primitive ids. The Canny reference follows the documented
detector conventions tap for tap so the comparison is exact, and its
gradients are exposed for tests that pick thresholds from them; the
invalid-pixel forcing has a second reference in scipy's
``binary_dilation``, and the EDT one in scipy's distance call. The
box-validity, min-max, unit-normal and fusion references are
whole-array formulations (a minimum filter, a gather and scatter,
``np.where`` masks) that pin the package's in-place versions bit for
bit; the fusion one is written from ``decision_map``'s docstring.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np
from scipy import ndimage

from landsite.detection import Candidates
from landsite.geometry import DepthFrame
from landsite.registry import LandingSite
from landsite.scene_synth import D_MAX_DEFAULT, D_MIN_DEFAULT, Box, \
    GroundPlane, GroundTruth, SceneSpec, Sphere, TiltedPlane

TAN_22_5 = math.tan(math.pi / 8.0)
TAN_67_5 = math.tan(3.0 * math.pi / 8.0)

_EPS = 1e-12  # the renderer's ray-parameter and parallel-ray threshold


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


def scipy_flatness(bits: np.ndarray) -> np.ndarray:
    """Flatness distances as one ``distance_transform_edt`` call on the
    edge map inside a ring of edge pixels, the ring then cut off (the
    result is a view into the padded map)."""
    padded = np.pad(np.asarray(bits) != 0, 1, constant_values=True)
    return ndimage.distance_transform_edt(~padded)[1:-1, 1:-1]


def naive_gradients(depth: np.ndarray, valid: np.ndarray,
                    sigma: float = 1.0) -> tuple[list, list, list]:
    """Loop-based smoothed Sobel gradients (gx, gy) and their magnitude,
    as lists of rows, by the production detector's conventions."""
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
    return gx, gy, mag


def naive_canny(depth: np.ndarray, valid: np.ndarray, low: float,
                high: float, sigma: float = 1.0) -> np.ndarray:
    """Loop-based Canny sharing the production detector's conventions."""
    h, w = depth.shape
    gx, gy, mag = naive_gradients(depth, valid, sigma)

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


def dilated_holes(valid: np.ndarray) -> np.ndarray:
    """Every invalid pixel and its 8 neighbours: ``binary_dilation`` of
    the invalid mask by a 3x3 square, nothing outside the frame."""
    return ndimage.binary_dilation(~np.asarray(valid, dtype=bool),
                                   np.ones((3, 3), bool))


def backproject(frame: DepthFrame) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame point grid (H, W, 3) of a frame, zeros at invalid
    pixels, and a copy of its mask: the pinhole model per pixel axis."""
    intr = frame.intrinsics
    ys, xs = np.indices(frame.depth.shape, dtype=np.float64)
    points = np.stack([frame.depth * ((xs - intr.cx) / intr.fx),
                       frame.depth * ((ys - intr.cy) / intr.fy),
                       frame.depth], axis=-1)
    points[~frame.valid] = 0.0
    return points, frame.valid.copy()


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


def loop_surface_normals(depth, valid, intrinsics, rotation, window: int):
    """Reference ``surface_normals`` in scalar float loops, op for op.

    Camera points; central differences at x +/- 1 and y +/- 1; per
    component a box mean from an integral image (prefix sums down the
    columns, then along the rows; corners combined as
    ``((d - b) - c) + a``), kept only where the whole box lies in the
    frame over valid tangents; cross product; unit normal facing the
    camera; world rotation. Each step is one IEEE operation in the
    estimator's order, so results, signed zeros included, match bit for
    bit. Returns (normals (H, W, 3), valid (H, W)).
    """
    h, w = depth.shape
    fx, fy, cx, cy = intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy
    pts = [[[float(depth[y, x]) * ((x - cx) / fx),
             float(depth[y, x]) * ((y - cy) / fy), float(depth[y, x])]
            if valid[y, x] else [0.0, 0.0, 0.0] for x in range(w)]
           for y in range(h)]

    def tangent(dy, dx):
        field = [[[0.0] * 3 for _ in range(w)] for _ in range(h)]
        ok = [[False] * w for _ in range(h)]
        for y in range(dy, h - dy):
            for x in range(dx, w - dx):
                a, b = pts[y + dy][x + dx], pts[y - dy][x - dx]
                field[y][x] = [a[c] - b[c] for c in range(3)]
                ok[y][x] = bool(valid[y + dy, x + dx] and valid[y - dy, x - dx])
        return field, ok

    def prefix(values):
        out = [values[0]]
        for v in values[1:]:
            out.append(out[-1] + v)
        return out

    def box_mean(field, ok):
        if window == 1:
            return field, ok
        r = window // 2
        mean = [[[0.0] * 3 for _ in range(w)] for _ in range(h)]
        full = [[False] * w for _ in range(h)]
        for c in range(3):
            cols = [prefix([field[y][x][c] for y in range(h)]) for x in range(w)]
            rows = [[0.0] * (w + 1)] + [[0.0] + prefix([cols[x][y] for x in range(w)])
                                        for y in range(h)]
            for y in range(r, h - r):
                for x in range(r, w - r):
                    box = (rows[y + r + 1][x + r + 1] - rows[y + r + 1][x - r]
                           - rows[y - r][x + r + 1] + rows[y - r][x - r])
                    full[y][x] = all(ok[j][i] for j in range(y - r, y + r + 1)
                                     for i in range(x - r, x + r + 1))
                    mean[y][x][c] = box * (1.0 / float(window * window))
        for y in range(h):
            for x in range(w):
                mean[y][x] = [v * float(full[y][x]) for v in mean[y][x]]
        return mean, full

    (avg_h, ok_h), (avg_v, ok_v) = box_mean(*tangent(0, 1)), box_mean(*tangent(1, 0))
    normals = np.zeros((h, w, 3))
    ok_out = np.zeros((h, w), bool)
    for y in range(h):
        for x in range(w):
            a, b, p = avg_h[y][x], avg_v[y][x], pts[y][x]
            cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]]
            norm = math.sqrt(cross[0] * cross[0] + cross[1] * cross[1]
                             + cross[2] * cross[2])
            scale = 1.0 / norm if norm > 0.0 else 0.0
            if cross[0] * p[0] + cross[1] * p[1] + cross[2] * p[2] > 0.0:
                scale = -scale
            ok = ok_h[y][x] and ok_v[y][x] and norm > 0.0
            n = [v * scale * float(ok) for v in cross]
            normals[y, x] = [float(rotation[i, 0]) * n[0] + float(rotation[i, 1]) * n[1]
                             + float(rotation[i, 2]) * n[2] for i in range(3)]
            ok_out[y, x] = ok
    return normals, ok_out


def box_validity(ok: np.ndarray, window: int) -> np.ndarray:
    """True where the centered window x window box lies inside the frame
    and holds only True pixels of ``ok`` (``window`` odd): a minimum
    filter whose outside is False."""
    return ndimage.minimum_filter(np.asarray(ok, bool), size=window,
                                  mode="constant")


def gather_minmax_normalize(values, valid, orientation: str) -> np.ndarray:
    """Reference min-max rescale of the valid values: gather them, rescale
    the gathered vector, scatter it back into zeros."""
    out = np.zeros_like(values)
    if valid.any():
        vals = values[valid]
        lo = float(vals.min())
        hi = float(vals.max())
        if hi - lo < 1e-12:
            out[valid] = 0.5
        elif orientation == "higher_is_better":
            out[valid] = (vals - lo) / (hi - lo)
        else:
            out[valid] = (hi - vals) / (hi - lo)
    return out


def formula_decision_map(depth_confidence, flatness, steepness, energy,
                         config) -> tuple[np.ndarray, np.ndarray]:
    """Reference fusion of four ``(values, valid)`` maps, returned as
    ``(values, valid)``: the weighted terms of ``config``'s ``weight_*``
    fields summed left to right, +0.0 where any input is invalid; valid
    is the AND of the four masks."""
    maps = (depth_confidence, flatness, steepness, energy)
    weights = (config.weight_depth_confidence, config.weight_flatness,
               config.weight_steepness, config.weight_energy)
    total = weights[0] * maps[0].values
    for weight, m in zip(weights[1:], maps[1:]):
        total = total + weight * m.values
    valid = maps[0].valid & maps[1].valid & maps[2].valid & maps[3].valid
    return np.where(valid, total, 0.0), valid


def where_unit_normals(cross: np.ndarray, points: np.ndarray):
    """Reference unit normals from (3, H, W) cross products, built with
    ``np.where``: 1 / norm where the norm is nonzero, else 0, negated
    where the cross product points away from the camera (``points``)."""
    (c0, c1, c2), (p0, p1, p2) = cross, points
    norm = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    nonzero = norm > 0.0
    toward = c0 * p0 + c1 * p1 + c2 * p2
    scale = np.where(nonzero, 1.0 / np.where(nonzero, norm, 1.0), 0.0)
    scale = np.where(toward > 0.0, -scale, scale)
    return cross * scale, nonzero


def json_dumps_candidates_jsonl(frame_results) -> str:
    """Reference candidates.jsonl text: one ``json.dumps`` call per row of
    each ``(Candidates, FrameResult)`` pair."""
    lines = []
    for c, fr in frame_results:
        for i in range(len(c)):
            obj = {"frame_id": fr.frame_id, "px": int(c.xs[i]),
                   "py": int(c.ys[i]), "depth_m": float(c.depth[i]),
                   "score": float(c.score[i]),
                   "flat_radius_px": float(c.flat_radius_px[i])}
            lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


def full_frame_dense_candidates(decision, flat_raw, frame, config):
    """Reference ``dense_candidates``: the footprint requirement is built
    at every valid pixel of the frame, then one full-frame mask holds both
    tests. The requirement is ``safety_factor * (fx * uav_radius / depth)``,
    the pinhole projection of the UAV radius; one that overflows is inf."""
    ok = decision.valid & flat_raw.valid & frame.valid
    required = np.zeros_like(frame.depth)
    with np.errstate(over="ignore"):
        required[ok] = config.safety_factor * (
            frame.intrinsics.fx * config.uav_radius_m / frame.depth[ok])
    passing = (ok & (decision.values >= config.decision_threshold)
               & (flat_raw.values >= required))
    ys, xs = np.nonzero(passing)
    return Candidates(xs=xs, ys=ys, depth=frame.depth[ys, xs],
                      score=decision.values[ys, xs],
                      flat_radius_px=flat_raw.values[ys, xs])


def edge_mask_from_prim_ids(truth) -> np.ndarray:
    """Pixels of a render's ground truth 4-adjacent to a different
    primitive id (or to invalid space)."""
    pid = truth.prim_id
    mask = np.zeros(pid.shape, dtype=bool)
    mask[:, :-1] |= pid[:, :-1] != pid[:, 1:]
    mask[:, 1:] |= pid[:, 1:] != pid[:, :-1]
    mask[:-1, :] |= pid[:-1, :] != pid[1:, :]
    mask[1:, :] |= pid[1:, :] != pid[:-1, :]
    return mask


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


def loop_cluster_summaries(positions, scores, labels) -> list[tuple]:
    """Per-cluster ``(centroid, mean_score, member_count)``, one at a time.

    Each group's members are gathered in ascending index order and
    averaged with its own ``mean`` calls; the list is then sorted by mean
    score descending, member count descending, then centroid
    lexicographic, with a stable sort so full ties stay in label order.
    """
    pos = np.asarray(positions, dtype=np.float64)
    sc = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)  # also when there are none
    order = np.argsort(labels, kind="stable")
    out = []
    # split at every group's end; the last piece is always empty
    for idx in np.split(order, np.cumsum(np.bincount(labels)))[:-1]:
        out.append((pos[idx].mean(axis=0), float(sc[idx].mean()), len(idx)))
    out.sort(key=lambda c: (-c[1], -c[2], c[0][0], c[0][1], c[0][2]))
    return out


def _snapshot_number(obj: dict, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, not {value!r}")
    if not math.isfinite(value):  # OverflowError for an int past float range
        raise ValueError(f"{key} must be finite, not {value!r}")
    return float(value)


def landing_site_from_json_obj(obj: dict) -> LandingSite:
    """One snapshot record as a site: x, y, z, score and timestamp finite
    numbers, frame_id an integer (bools are neither)."""
    position = np.array([_snapshot_number(obj, k) for k in "xyz"])
    score = _snapshot_number(obj, "score")
    frame_id = obj["frame_id"]
    if isinstance(frame_id, bool) or not isinstance(frame_id, int):
        raise TypeError(f"frame_id must be an integer, not {frame_id!r}")
    return LandingSite(position=position, score=score, frame_id=frame_id,
                       timestamp=_snapshot_number(obj, "timestamp"))


def record_snapshot_loader(obj: dict) -> tuple[float, list[LandingSite]]:
    """Reference snapshot reader, one record at a time: (radius, sites).

    The radius must be a finite positive number and ``sites`` a list of
    records valid for ``landing_site_from_json_obj``.
    """
    radius = _snapshot_number(obj, "dedup_radius_m")
    if not radius > 0:
        raise ValueError("dedup radius must be positive")
    records = obj["sites"]
    if not isinstance(records, list):
        raise TypeError(f"sites must be a list, not {type(records).__name__}")
    return radius, [landing_site_from_json_obj(rec) for rec in records]


def scene_to_json_obj(scene: SceneSpec) -> dict:
    """A scene file's JSON value for ``scene``: what ``load_scene`` reads."""
    prims = []
    for p in scene.primitives:
        if isinstance(p, GroundPlane):
            prims.append({"type": "ground_plane", "z_m": p.z, "safe": p.safe})
        elif isinstance(p, TiltedPlane):
            prims.append({"type": "tilted_plane", "point_m": list(p.point),
                          "normal": list(p.normal), "safe": p.safe})
        elif isinstance(p, Sphere):
            prims.append({"type": "sphere", "center_m": list(p.center),
                          "radius_m": p.radius, "safe": p.safe})
        else:
            rot = None if p.rotation is None else [list(row) for row in p.rotation]
            prims.append({"type": "box", "center_m": list(p.center),
                          "half_extents_m": list(p.half_extents),
                          "rotation": rot, "safe": p.safe})
    return {"primitives": prims, "noise_sigma_m": scene.noise_sigma,
            "seed": scene.seed}


def _ref_intersect_plane(point, normal, origin, dirs):
    denom = dirs @ normal
    offset = float(normal @ (point - origin))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = offset / denom
    t = np.where((np.abs(denom) > _EPS) & (t > _EPS), t, np.inf)
    n = np.broadcast_to(normal, dirs.shape)
    return t, n


def _ref_intersect_sphere(center, radius, origin, dirs):
    oc = origin - center
    a = np.sum(dirs * dirs, axis=-1)
    b = 2.0 * (dirs @ oc)
    c = float(oc @ oc) - radius * radius
    disc = b * b - 4.0 * a * c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_near = (-b - sq) / (2.0 * a)
        t_far = (-b + sq) / (2.0 * a)
    t = np.where(t_near > _EPS, t_near, t_far)
    t = np.where(hit & (t > _EPS), t, np.inf)
    t_safe = np.where(np.isfinite(t), t, 0.0)
    points = origin + t_safe[..., None] * dirs
    n = (points - center) / radius
    return t, n


def _ref_intersect_box(box, origin, dirs):
    if box.rotation is not None:
        rot = box.rotation
        o = rot.T @ (origin - box.center)
        d = dirs @ rot
    else:
        rot = None
        o = origin - box.center
        d = dirs
    h = box.half_extents
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
    t1 = (-h - o) * inv
    t2 = (h - o) * inv
    # Zero direction components: inside the slab -> (-inf, inf), else miss.
    parallel = np.abs(d) < _EPS
    inside = np.abs(o) <= h
    lo = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    hi = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    t_enter = lo.max(axis=-1)
    t_exit = hi.min(axis=-1)
    hit = (t_exit >= t_enter) & (t_enter > _EPS)
    t = np.where(hit, t_enter, np.inf)
    axis = lo.argmax(axis=-1)
    sign = -np.sign(np.take_along_axis(d, axis[..., None], axis=-1)[..., 0])
    n_local = np.zeros(d.shape)
    np.put_along_axis(n_local, axis[..., None], sign[..., None], axis=-1)
    n = n_local @ rot.T if rot is not None else n_local
    return t, n


def _ref_camera_inside(prim, origin) -> bool:
    if isinstance(prim, Sphere):
        return bool(np.linalg.norm(origin - prim.center) <= prim.radius)
    if isinstance(prim, Box):
        o = origin - prim.center
        if prim.rotation is not None:
            o = prim.rotation.T @ o
        return bool(np.all(np.abs(o) <= prim.half_extents))
    return False


def reference_render_depth(scene, intrinsics, pose, d_min=D_MIN_DEFAULT,
                           d_max=D_MAX_DEFAULT, frame_id=0, timestamp=0.0):
    """Reference ``render_depth``: every primitive against every pixel.

    The renderer as it was before screen-space culling, unchanged: each
    primitive is intersected with the whole frame and merged into the
    nearest hit, with ``argmax``/``take_along_axis`` box normals.
    Returns (DepthFrame, GroundTruth).
    """
    origin = pose.translation
    for prim in scene.primitives:
        if _ref_camera_inside(prim, origin):
            raise ValueError("camera must be outside all solids")

    u = (np.arange(intrinsics.width, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
    v = (np.arange(intrinsics.height, dtype=np.float64) - intrinsics.cy) / intrinsics.fy
    dirs_cam = np.empty((intrinsics.height, intrinsics.width, 3))
    dirs_cam[..., 0] = u[None, :]
    dirs_cam[..., 1] = v[:, None]
    dirs_cam[..., 2] = 1.0
    dirs = dirs_cam @ pose.rotation.T

    best_t = np.full(dirs.shape[:2], np.inf)
    best_n = np.zeros(dirs.shape)
    prim_id = np.full(dirs.shape[:2], -1, dtype=np.int32)
    for idx, prim in enumerate(scene.primitives):
        if isinstance(prim, GroundPlane):
            t, n = _ref_intersect_plane(np.array([0.0, 0.0, prim.z]),
                                        np.array([0.0, 0.0, 1.0]), origin, dirs)
        elif isinstance(prim, TiltedPlane):
            t, n = _ref_intersect_plane(prim.point, prim.normal, origin, dirs)
        elif isinstance(prim, Sphere):
            t, n = _ref_intersect_sphere(prim.center, prim.radius, origin, dirs)
        else:
            t, n = _ref_intersect_box(prim, origin, dirs)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_n = np.where(closer[..., None], n, best_n)
        prim_id = np.where(closer, np.int32(idx), prim_id)

    depth = np.where(np.isfinite(best_t), best_t, 0.0)
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(scene.seed)
        depth = depth + rng.normal(0.0, scene.noise_sigma, depth.shape)
    valid = np.isfinite(best_t) & (depth >= d_min) & (depth <= d_max)
    depth = np.where(valid, depth, 0.0)

    # Orient truth normals toward the camera, matching the estimator.
    toward = np.sum(best_n * dirs, axis=-1)
    normals = np.where((toward > 0.0)[..., None], -best_n, best_n)
    normals = np.where(valid[..., None], normals, 0.0)
    prim_id = np.where(valid, prim_id, np.int32(-1))
    safe_ids = np.array([i for i, p in enumerate(scene.primitives) if p.safe],
                        dtype=np.int32)
    safe_mask = valid & np.isin(prim_id, safe_ids)

    frame = DepthFrame(depth=depth, valid=valid, intrinsics=intrinsics,
                       pose_world_from_camera=pose, frame_id=frame_id,
                       timestamp=timestamp)
    return frame, GroundTruth(normals=normals, prim_id=prim_id,
                              safe_mask=safe_mask)
