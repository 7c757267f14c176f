"""Camera model, rigid transforms and the depth-frame container.

Conventions used throughout the package:

* Image frame: origin at the top-left pixel, x right (columns), y down
  (rows). Pixel coordinates refer to pixel centers, so the left-most
  pixel of a row sits at x = 0.
* Camera frame: right-handed, x right, y down, z forward along the
  optical axis. Depth is z-depth (distance along the optical axis),
  not ray length.
* World frame: right-handed, z up (anti-parallel to gravity).

Arrays are indexed [row, column] = [y, x]. All functions are pure and
never mutate their inputs; they are safe to call from multiple threads.
The module does no I/O: ``pipeline`` reads and writes the frame-stream
files, through ``CameraIntrinsics.to_json_obj``/``from_json_obj`` and
``Pose``'s quaternion conversions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .formats import integer, number

ROTATION_TOL = 1e-9
QUAT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera parameters, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError("focal lengths and principal point must be finite")
        # Below 1 px, backprojected offsets (x - cx) / fx can overflow and
        # poison the tangents, normals and normalization downstream.
        if not (self.fx >= 1 and self.fy >= 1):
            raise ValueError("focal lengths must be at least 1 px")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CameraIntrinsics":
        return cls(
            fx=number(obj, "fx"),
            fy=number(obj, "fy"),
            cx=number(obj, "cx"),
            cy=number(obj, "cy"),
            width=integer(obj, "width"),
            height=integer(obj, "height"),
        )


def rotation_matrix(value) -> np.ndarray:
    """``value`` as a new float64 3x3 rotation matrix.

    Raises ValueError unless it is 3x3, finite, orthonormal and of
    determinant +1, the last two checked to ``ROTATION_TOL``.
    """
    r = np.array(value, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError("rotation must be 3x3")
    if not np.all(np.isfinite(r)):
        raise ValueError("rotation entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail
        if not np.max(np.abs(r.T @ r - np.eye(3))) <= ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise ValueError("rotation determinant must be +1")
    return r


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that no caller can make writeable again.

    ``array`` must own its data: numpy refuses the flag to a view only
    while the array that owns the data is read-only.
    """
    array.flags.writeable = False
    return array.view()


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform mapping camera/body coordinates into the world.

    ``rotation`` must pass ``rotation_matrix``; ``translation`` is the
    camera position in world coordinates. Both are stored as read-only
    copies.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = rotation_matrix(self.rotation)
        t = np.array(np.reshape(self.translation, 3), dtype=np.float64)
        if not np.all(np.isfinite(t)):
            raise ValueError("pose translation must be finite")
        object.__setattr__(self, "rotation", _read_only(r))
        object.__setattr__(self, "translation", _read_only(t))

    @classmethod
    def from_quaternion(cls, qw: float, qx: float, qy: float, qz: float,
                        translation) -> "Pose":
        """Build a pose from a (w, x, y, z) quaternion, normalizing it first."""
        n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if not math.isfinite(n) or n < QUAT_NORM_TOL:
            raise ValueError("quaternion norm is degenerate")
        w, x, y, z = qw / n, qx / n, qy / n, qz / n
        r = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        return cls(r, np.asarray(translation, dtype=np.float64))

    def to_quaternion(self) -> tuple[float, float, float, float]:
        """Rotation as a (w, x, y, z) unit quaternion with w >= 0."""
        x, y, z, w = Rotation.from_matrix(self.rotation).as_quat().tolist()
        if w < 0:
            w, x, y, z = -w, -x, -y, -z
        return w, x, y, z

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply R p + t to points of shape (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


def rotation_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rotation_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


# Downward-looking base orientation: camera x -> world x, camera y ->
# world -y, camera z (optical axis) -> world -z.
_NADIR = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def camera_pose(position, roll: float = 0.0, pitch: float = 0.0,
                yaw: float = 0.0) -> Pose:
    """World-from-camera pose for a (roughly) downward-looking camera.

    With zero angles the camera looks straight down. Roll, pitch and yaw
    (radians) rotate the camera about the world x, y and z axes, applied
    in that order on top of the nadir orientation.
    """
    r = rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll) @ _NADIR
    return Pose(r, np.asarray(position, dtype=np.float64))


@dataclass(eq=False)
class DepthFrame:
    """A metric depth image with validity mask, intrinsics and pose.

    Depth at invalid pixels is canonicalized to 0.0 on construction so
    that no downstream math can ever observe garbage values there.
    """

    depth: np.ndarray
    valid: np.ndarray
    intrinsics: CameraIntrinsics
    pose_world_from_camera: Pose
    frame_id: int = 0
    timestamp: float = 0.0

    def __post_init__(self):
        d = np.array(self.depth, dtype=np.float64)
        v = np.array(self.valid, dtype=bool)
        shape = (self.intrinsics.height, self.intrinsics.width)
        if d.shape != shape or v.shape != shape:
            raise ValueError(f"depth/valid must have shape {shape}")
        if v.any():
            dv = d[v]
            if not np.all(np.isfinite(dv)) or np.any(dv <= 0):
                raise ValueError("valid pixels must carry finite positive depth")
        d[~v] = 0.0
        self.depth = d
        self.valid = v

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


def ray_offsets(intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """(u, v): the camera point at column x, row y and depth d is
    (d * u[x], d * v[y], d)."""
    u = (np.arange(intr.width, dtype=np.float64) - intr.cx) / intr.fx
    v = (np.arange(intr.height, dtype=np.float64) - intr.cy) / intr.fy
    return u, v


def camera_planes(frame: DepthFrame, rows: slice = np.s_[:]) -> np.ndarray:
    """Camera-frame x, y and z of the pixels in ``rows`` (all by default)
    as contiguous (3, rows, W) planes.

    Invalid pixels hold +0.0 in all three planes.
    """
    u, v = ray_offsets(frame.intrinsics)
    depth = frame.depth[rows]
    planes = np.empty((3, *depth.shape), dtype=np.float64)
    np.multiply(depth, u[None, :], out=planes[0])
    np.multiply(depth, v[rows, None], out=planes[1])
    planes[2] = depth
    np.copyto(planes, 0.0, where=~frame.valid[rows])
    return planes


def project_points(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixel coordinates (..., 2).

    This is the inverse of :func:`camera_planes` on valid pixels. A point
    with z <= 0 projects to a mirrored or non-finite pixel, which the
    caller must handle.
    """
    p = np.asarray(points, dtype=np.float64)
    z = p[..., 2]
    out = np.empty(p.shape[:-1] + (2,), dtype=np.float64)
    out[..., 0] = intrinsics.fx * p[..., 0] / z + intrinsics.cx
    out[..., 1] = intrinsics.fy * p[..., 1] / z + intrinsics.cy
    return out


def project_uav_radius(uav_radius: float, depth, intrinsics: CameraIntrinsics):
    """Footprint radius in pixels of a disc of ``uav_radius`` meters seen at ``depth``.

    Accepts scalar or array depth. Raises ValueError for non-positive depth.
    """
    d = np.asarray(depth, dtype=np.float64)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("depth must be positive and finite")
    r = intrinsics.fx * uav_radius / d
    return float(r) if np.isscalar(depth) or d.ndim == 0 else r

