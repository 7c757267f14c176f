"""Analytic scene rendering with exact ground truth.

Scenes are built from three surface shapes (plane, box, sphere) and
rendered by per-pixel ray casting, which yields depth frames plus
analytic surface normals, a per-pixel primitive id and a safe-landing
mask for oracle-style testing. A ground plane is the tilted plane
through (0, 0, z) facing +z. A box takes an optional rotation (a proper
rotation matrix) so cluttered scenes can contain tilted slabs; without
one it stores the identity. Each shape has one cast path.

Rendering is deterministic: with the noise knob off, the same scene,
intrinsics and pose produce bit-identical frames on every run.

Screen-space culling. Planes are cast against every pixel; a box or a
sphere only against its screen window. The window is the bounding
rectangle of the projections of 8 corners (the box's own, or those of
the sphere's bounding cube), widened by ``_CULL_MARGIN_PX`` pixels and
clipped to the image; a window with no pixel skips the primitive. This
is exact, not an approximation: a convex solid lying wholly in front of
the camera projects inside the convex hull of its corners' projections,
so a ray through a pixel outside the window cannot meet it, and the
margin covers rounding in the projection and in the rays. A corner at
or behind the camera plane, or one whose projection is not finite,
voids that argument, and then the window is the whole frame. Inside the
window each pixel gets the same arithmetic as in an unculled cast, so
frames, normals, primitive ids and safe masks match it bit for bit
(``tests/oracles.py`` keeps the unculled renderer as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import integer, number, numbers, read_json
from .geometry import CameraIntrinsics, DepthFrame, Pose, camera_pose, \
    project_points, ray_offsets, rotation_matrix, rotation_x, rotation_z

# The depth range (m) inside which render_depth marks a hit valid.
D_MIN_DEFAULT = 0.05
D_MAX_DEFAULT = 20.0

_EPS = 1e-12

# Pixels added on every side of a box's or sphere's projected bounds;
# they cover rounding in the projection and in the per-pixel rays.
_CULL_MARGIN_PX = 2

# Indexed by "the normal points away from the camera".
_FLIP = np.array([1.0, -1.0])

# The corners of the cube [-1, 1]^3.
_CORNER_SIGNS = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                          for z in (-1.0, 1.0)])


@dataclass(frozen=True, eq=False)
class TiltedPlane:
    point: np.ndarray
    normal: np.ndarray
    safe: bool = False

    def __post_init__(self):
        p = np.array(self.point, dtype=np.float64).reshape(3)
        n = np.array(self.normal, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(n))):
            raise ValueError("plane point and normal must be finite")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(n)
        if norm == np.inf:  # too long to square: shorten it first
            n = n / np.max(np.abs(n))
            norm = np.linalg.norm(n)
        if norm < _EPS:
            raise ValueError("plane normal must be nonzero")
        n = n / norm
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normal", n)


class GroundPlane(TiltedPlane):
    """The horizontal plane at height ``z``, facing +z."""

    def __init__(self, z: float, safe: bool = False):
        super().__init__(point=(0.0, 0.0, z), normal=(0.0, 0.0, 1.0), safe=safe)

    @property
    def z(self) -> float:
        return float(self.point[2])


@dataclass(frozen=True, eq=False)
class Box:
    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray | None = None
    safe: bool = False

    def __post_init__(self):
        c = np.array(self.center, dtype=np.float64).reshape(3)
        h = np.array(self.half_extents, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(h))):
            raise ValueError("box center and half extents must be finite")
        if np.any(h <= 0):
            raise ValueError("box half extents must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)
        object.__setattr__(self, "rotation", rotation_matrix(
            np.eye(3) if self.rotation is None else self.rotation))


@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float
    safe: bool = False

    def __post_init__(self):
        c = np.array(self.center, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(c)) and math.isfinite(self.radius)):
            raise ValueError("sphere center and radius must be finite")
        if not self.radius > 0:
            raise ValueError("sphere radius must be positive")
        object.__setattr__(self, "center", c)


Primitive = TiltedPlane | Box | Sphere


@dataclass
class SceneSpec:
    """A list of primitives plus the depth-noise knob and its seed."""

    primitives: tuple
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.primitives:
            raise ValueError("scene needs at least one primitive")
        if not self.noise_sigma >= 0:
            raise ValueError("noise sigma must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.primitives = tuple(self.primitives)


@dataclass(eq=False)
class GroundTruth:
    """Analytic per-pixel truth for a rendered frame.

    Normals are world-frame unit vectors oriented toward the camera (so
    they compare directly against estimated normals); prim_id is the
    index into the scene's primitive list (-1 where nothing was hit);
    safe_mask marks pixels whose hit primitive carries the safe-pad
    annotation.
    """

    normals: np.ndarray
    prim_id: np.ndarray
    safe_mask: np.ndarray


def _intersect_plane(point, normal, origin, dirs):
    denom = dirs @ normal
    offset = float(normal @ (point - origin))
    t = offset / denom
    t = np.where((np.abs(denom) > _EPS) & (t > _EPS), t, np.inf)
    return t, normal


def _intersect_sphere(center, radius, origin, dirs):
    oc = origin - center
    a = np.sum(dirs * dirs, axis=-1)
    b = 2.0 * (dirs @ oc)
    c = float(oc @ oc) - radius * radius
    disc = b * b - 4.0 * a * c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (-b - sq) / (2.0 * a)
    t_far = (-b + sq) / (2.0 * a)
    t = np.where(t_near > _EPS, t_near, t_far)
    t = np.where(hit & (t > _EPS), t, np.inf)
    t_safe = np.where(np.isfinite(t), t, 0.0)
    points = origin + t_safe[..., None] * dirs
    n = (points - center) / radius
    return t, n


def _box_frame_origin(box: Box, origin) -> np.ndarray:
    """``origin`` in the box's own frame, relative to its center."""
    return box.rotation.T @ (origin - box.center)


def _intersect_box(box: Box, origin, dirs):
    o = _box_frame_origin(box, origin)
    d = dirs @ box.rotation
    h = box.half_extents
    # Slab entry and exit one axis at a time (numpy is slow on a length-3
    # last axis).
    lo, hi = [], []
    for k in range(3):
        dk = d[..., k]
        inv = 1.0 / dk
        t1 = (-h[k] - o[k]) * inv
        t2 = (h[k] - o[k]) * inv
        # A zero direction component: inside the slab -> (-inf, inf), else miss.
        parallel = np.abs(dk) < _EPS
        inside = abs(o[k]) <= h[k]
        lo.append(np.where(parallel, -np.inf if inside else np.inf,
                           np.minimum(t1, t2)))
        hi.append(np.where(parallel, np.inf if inside else -np.inf,
                           np.maximum(t1, t2)))
    t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
    t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
    hit = (t_exit >= t_enter) & (t_enter > _EPS)
    t = np.where(hit, t_enter, np.inf)
    # The ray enters through the face of the first axis holding t_enter
    # (argmax's tie rule); its normal opposes the ray along that axis.
    first = (lo[0] >= lo[1]) & (lo[0] >= lo[2])
    second = ~first & (lo[1] >= lo[2])
    n_local = np.zeros(d.shape)
    for k, on_axis in enumerate((first, second, ~(first | second))):
        n_local[..., k] = np.where(on_axis, -np.sign(d[..., k]), 0.0)
    return t, n_local @ box.rotation.T


def _box_corners(box: Box, origin) -> np.ndarray:
    """The box's 8 corners as world-frame offsets from ``origin``.

    They are built from the slab bounds ``_intersect_box`` tests, so they
    bound the box it renders even where the box's and the camera's world
    coordinates are too large to subtract exactly.
    """
    o = _box_frame_origin(box, origin)
    h = box.half_extents
    local = np.where(_CORNER_SIGNS > 0, h - o, -h - o)
    return local @ box.rotation.T


def _screen_window(corners, intrinsics: CameraIntrinsics, rotation):
    """The pixels whose rays can meet the convex hull of ``corners``.

    ``corners`` are world-frame offsets from the camera, and ``rotation``
    is the camera's world-from-camera rotation. Returns a (rows, columns)
    pair of slices: the projected bounds widened by ``_CULL_MARGIN_PX``
    and clipped to the image, or the whole frame when a corner is not in
    front of the camera or does not project to a finite pixel. Returns
    None when the window holds no pixel.
    """
    with np.errstate(all="ignore"):
        cam = corners @ rotation
        uv = project_points(cam, intrinsics)
    if np.any(cam[:, 2] <= _EPS) or not np.all(np.isfinite(uv)):
        return slice(None), slice(None)
    u, v = uv.T
    x0 = max(math.floor(u.min()) - _CULL_MARGIN_PX, 0)
    x1 = min(math.ceil(u.max()) + _CULL_MARGIN_PX + 1, intrinsics.width)
    y0 = max(math.floor(v.min()) - _CULL_MARGIN_PX, 0)
    y1 = min(math.ceil(v.max()) + _CULL_MARGIN_PX + 1, intrinsics.height)
    if x0 >= x1 or y0 >= y1:
        return None
    return slice(y0, y1), slice(x0, x1)


def _camera_inside(prim: Primitive, origin) -> bool:
    if isinstance(prim, Sphere):
        return bool(np.linalg.norm(origin - prim.center) <= prim.radius)
    if isinstance(prim, Box):
        return bool(np.all(np.abs(_box_frame_origin(prim, origin))
                           <= prim.half_extents))
    return False


# Coordinates near the float limit overflow to inf or nan, which a ray
# reads as a miss and a screen window as the whole frame: no warning is due.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def render_depth(scene: SceneSpec, intrinsics: CameraIntrinsics, pose: Pose,
                 frame_id: int = 0, timestamp: float = 0.0,
                 ) -> tuple[DepthFrame, GroundTruth]:
    """Ray-cast a scene into a depth frame plus its ground truth.

    The ray parameter equals z-depth by construction, and depths outside
    [``D_MIN_DEFAULT``, ``D_MAX_DEFAULT``] (after optional noise) are
    marked invalid. Planes meet every pixel; a box or sphere meets only
    its screen window (see the module docstring). Raises if the camera
    sits inside a solid.
    """
    origin = pose.translation
    for prim in scene.primitives:
        if _camera_inside(prim, origin):
            raise ValueError("camera must be outside all solids")

    u, v = ray_offsets(intrinsics)
    dirs_cam = np.empty((intrinsics.height, intrinsics.width, 3))
    dirs_cam[..., 0] = u[None, :]
    dirs_cam[..., 1] = v[:, None]
    dirs_cam[..., 2] = 1.0
    dirs = dirs_cam @ pose.rotation.T

    best_t = np.full(dirs.shape[:2], np.inf)
    best_n = np.zeros(dirs.shape)
    prim_id = np.full(dirs.shape[:2], -1, dtype=np.int32)
    for idx, prim in enumerate(scene.primitives):
        if isinstance(prim, TiltedPlane):
            win = (slice(None), slice(None))
            t, n = _intersect_plane(prim.point, prim.normal, origin, dirs)
        elif isinstance(prim, Sphere):
            # The corners of the sphere's bounding cube, as the quadratic
            # sees it: centered at -(origin - center).
            corners = (prim.center - origin) + prim.radius * _CORNER_SIGNS
            win = _screen_window(corners, intrinsics, pose.rotation)
            if win is None:
                continue
            t, n = _intersect_sphere(prim.center, prim.radius, origin, dirs[win])
        else:
            win = _screen_window(_box_corners(prim, origin), intrinsics,
                                 pose.rotation)
            if win is None:
                continue
            t, n = _intersect_box(prim, origin, dirs[win])
        closer = t < best_t[win]
        np.copyto(best_t[win], t, where=closer)
        # One component at a time: a mask broadcast over the last axis
        # makes numpy run one inner loop per pixel.
        for i in range(3):
            np.copyto(best_n[win][..., i], n[..., i], where=closer)
        np.copyto(prim_id[win], np.int32(idx), where=closer)

    # A miss stays at inf, past D_MAX_DEFAULT; DepthFrame zeroes invalid depth.
    depth = best_t
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(scene.seed)
        depth = depth + rng.normal(0.0, scene.noise_sigma, depth.shape)
    valid = (depth >= D_MIN_DEFAULT) & (depth <= D_MAX_DEFAULT)

    # Orient truth normals toward the camera, matching the estimator. The
    # dot product adds its terms in np.sum's order: the same value up to
    # the sign of a zero, which the comparison does not read. Multiplying
    # by -1.0 negates exactly as np.negative does, signed zeros included.
    toward = (best_n[..., 0] * dirs[..., 0] + best_n[..., 1] * dirs[..., 1]) \
        + best_n[..., 2] * dirs[..., 2]
    normals = best_n
    flip = _FLIP.take((toward > 0.0).view(np.uint8))
    invalid = ~valid
    for i in range(3):
        normals[..., i] *= flip
        np.copyto(normals[..., i], 0.0, where=invalid)
    del flip, invalid  # before the truth's full-frame arrays
    prim_id = np.where(valid, prim_id, np.int32(-1))
    safe_ids = np.array([i for i, p in enumerate(scene.primitives) if p.safe],
                        dtype=np.int32)
    safe_mask = np.isin(prim_id, safe_ids)

    frame = DepthFrame(depth=depth, valid=valid, intrinsics=intrinsics,
                       pose_world_from_camera=pose, frame_id=frame_id,
                       timestamp=timestamp)
    return frame, GroundTruth(normals=normals, prim_id=prim_id,
                              safe_mask=safe_mask)


# --- canonical scene set -----------------------------------------------------

FLAT_PAD = "FLAT_PAD"
STEEP_WALL = "STEEP_WALL"
TREE = "TREE"
ROOF_EDGE = "ROOF_EDGE"
RUBBLE = "RUBBLE"

# Nadir camera heights (meters) used by canonical_camera().
CANONICAL_HEIGHTS = {
    FLAT_PAD: 5.0,
    STEEP_WALL: 5.0,
    TREE: 5.0,
    ROOF_EDGE: 8.0,
    RUBBLE: 5.5,
}

_SLOPE_25 = math.radians(25.0)


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                            width=640, height=480)


def canonical_scenes(seed: int = 7) -> dict[str, SceneSpec]:
    """The named test scenes.

    FLAT_PAD: open ground with one raised landable pad.
    STEEP_WALL: a single 25-degree slope, steeper than any tolerable site.
    TREE: a canopy sphere over that same slope, so nothing is landable.
    ROOF_EDGE: a flat roof next to a drop to the ground.
    RUBBLE: cluttered boxes at random tilts around a landable pad, with a
    25-degree slab, a canopy sphere and a tall block mixed in.
    """
    slope_normal = np.array([0.0, -math.sin(_SLOPE_25), math.cos(_SLOPE_25)])
    scenes = {
        # The pad is a thin slab well above the ground: its silhouette is a
        # sharp occluded drop, which is what depth-edge detection keys on
        # (a short block's visible side reads as a smooth ramp instead).
        FLAT_PAD: SceneSpec(primitives=(
            GroundPlane(z=0.0),
            Box(center=(0.0, 0.0, 0.79), half_extents=(1.3, 1.3, 0.01),
                safe=True),
        )),
        STEEP_WALL: SceneSpec(primitives=(
            TiltedPlane(point=(0.0, 0.0, 0.0), normal=slope_normal),
        )),
        TREE: SceneSpec(primitives=(
            TiltedPlane(point=(0.0, 0.0, 0.0), normal=slope_normal),
            Sphere(center=(0.6, -0.5, 1.1), radius=0.3),
        )),
        ROOF_EDGE: SceneSpec(primitives=(
            GroundPlane(z=0.0),
            Box(center=(-1.1, 0.0, 1.5), half_extents=(1.6, 2.6, 1.5), safe=True),
        )),
        RUBBLE: _rubble_scene(seed),
    }
    return scenes


def _rubble_scene(seed: int) -> SceneSpec:
    """Seeded clutter around a guaranteed-landable pad."""
    rng = np.random.default_rng(seed)
    pad_center = np.array([1.4, 0.9])
    prims: list[Primitive] = [
        GroundPlane(z=0.0),
        # Raised slab pad: sharp drop at the silhouette (see FLAT_PAD note).
        Box(center=(pad_center[0], pad_center[1], 0.69),
            half_extents=(1.0, 1.0, 0.01), safe=True),
        # A slab tilted exactly 25 degrees: steeper than tolerable.
        Box(center=(-1.5, 1.2, 0.55), half_extents=(0.9, 0.9, 0.08),
            rotation=rotation_x(_SLOPE_25)),
        # Canopy sphere and a taller block that owns the depth minimum.
        Sphere(center=(-1.6, -1.1, 0.9), radius=0.3),
        Box(center=(0.3, -1.5, 0.9), half_extents=(0.45, 0.45, 0.9)),
    ]
    placed = 0
    while placed < 8:
        cx, cy = rng.uniform(-2.6, 2.6, size=2)
        if np.hypot(cx - pad_center[0], cy - pad_center[1]) < 1.9:
            continue
        half = rng.uniform(0.15, 0.45, size=3)
        yaw = rng.uniform(0.0, math.pi)
        tilt = rng.uniform(math.radians(18.0), math.radians(35.0))
        rot = rotation_z(yaw) @ rotation_x(tilt)
        prims.append(Box(center=(cx, cy, half[2] * 0.8),
                         half_extents=half, rotation=rot))
        placed += 1
    return SceneSpec(primitives=tuple(prims), seed=seed)


def canonical_camera(name: str, position_xy=(0.0, 0.0)) -> Pose:
    """Nadir camera pose at the canonical height for a named scene."""
    height = CANONICAL_HEIGHTS[name]
    return camera_pose((position_xy[0], position_xy[1], height))


# --- JSON interchange --------------------------------------------------------

def scene_from_json_obj(obj: dict) -> SceneSpec:
    prims: list[Primitive] = []
    for rec in obj["primitives"]:
        kind = rec["type"]
        safe = rec.get("safe", False)
        if not isinstance(safe, bool):
            raise TypeError(f"safe must be true or false, not {safe!r}")
        if kind == "ground_plane":
            prims.append(GroundPlane(z=number(rec, "z_m"), safe=safe))
        elif kind == "tilted_plane":
            prims.append(TiltedPlane(point=numbers(rec, "point_m"),
                                     normal=numbers(rec, "normal"), safe=safe))
        elif kind == "sphere":
            prims.append(Sphere(center=numbers(rec, "center_m"),
                                radius=number(rec, "radius_m"), safe=safe))
        elif kind == "box":
            rot = None if rec.get("rotation") is None \
                else numbers(rec, "rotation", (3, 3))
            prims.append(Box(center=numbers(rec, "center_m"),
                             half_extents=numbers(rec, "half_extents_m"),
                             rotation=rot, safe=safe))
        else:
            raise ValueError(f"unknown primitive type {kind!r}")
    return SceneSpec(primitives=tuple(prims),
                     noise_sigma=number(obj, "noise_sigma_m", 0.0),
                     seed=integer(obj, "seed", 0))


def load_scene(path) -> SceneSpec:
    """Read a scene JSON; malformed content raises OSError naming the path."""
    return read_json(path, scene_from_json_obj, "scene")
