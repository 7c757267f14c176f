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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def to_json_obj(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(obj["fx"]),
            fy=float(obj["fy"]),
            cx=float(obj["cx"]),
            cy=float(obj["cy"]),
            width=int(obj["width"]),
            height=int(obj["height"]),
        )


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform mapping camera/body coordinates into the world.

    ``rotation`` must be orthonormal with determinant +1 (checked to
    1e-9); ``translation`` is the camera position in world coordinates.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise ValueError("pose entries must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation determinant must be +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

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
        r = self.rotation
        tr = r[0, 0] + r[1, 1] + r[2, 2]
        if tr > 0:
            s = math.sqrt(tr + 1.0) * 2
            w = 0.25 * s
            x = (r[2, 1] - r[1, 2]) / s
            y = (r[0, 2] - r[2, 0]) / s
            z = (r[1, 0] - r[0, 1]) / s
        elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
            s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2
            w = (r[2, 1] - r[1, 2]) / s
            x = 0.25 * s
            y = (r[0, 1] + r[1, 0]) / s
            z = (r[0, 2] + r[2, 0]) / s
        elif r[1, 1] >= r[2, 2]:
            s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2
            w = (r[0, 2] - r[2, 0]) / s
            x = (r[0, 1] + r[1, 0]) / s
            y = 0.25 * s
            z = (r[1, 2] + r[2, 1]) / s
        else:
            s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2
            w = (r[1, 0] - r[0, 1]) / s
            x = (r[0, 2] + r[2, 0]) / s
            y = (r[1, 2] + r[2, 1]) / s
            z = 0.25 * s
        if w < 0:
            w, x, y, z = -w, -x, -y, -z
        return w, x, y, z

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply R p + t to points of shape (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -(rt @ self.translation))


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


def backproject(frame: DepthFrame) -> tuple[np.ndarray, np.ndarray]:
    """Lift a depth frame to a camera-frame point grid.

    Returns (points, valid) where points has shape (H, W, 3) and invalid
    pixels hold zeros.
    """
    intr = frame.intrinsics
    u = (np.arange(intr.width, dtype=np.float64) - intr.cx) / intr.fx
    v = (np.arange(intr.height, dtype=np.float64) - intr.cy) / intr.fy
    pts = np.empty((*frame.depth.shape, 3), dtype=np.float64)
    pts[..., 0] = frame.depth * u[None, :]
    pts[..., 1] = frame.depth * v[:, None]
    pts[..., 2] = frame.depth
    pts[~frame.valid] = 0.0
    return pts, frame.valid.copy()


def project_points(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixel coordinates (..., 2).

    Callers must ensure z > 0; this is the inverse of :func:`backproject`
    on valid pixels.
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


# --- file interchange -------------------------------------------------------

def load_intrinsics(path) -> CameraIntrinsics:
    """Read intrinsics JSON; OSError naming the path if it is malformed."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return CameraIntrinsics.from_json_obj(json.load(f))
        except (KeyError, TypeError, ValueError) as exc:
            raise OSError(f"{path}: malformed intrinsics "
                          f"({type(exc).__name__}: {exc})") from exc


def save_intrinsics(path, intrinsics: CameraIntrinsics) -> None:
    Path(path).write_text(json.dumps(intrinsics.to_json_obj(), indent=2) + "\n",
                          encoding="utf-8")


def load_pose_records(path) -> dict[int, tuple[float, Pose]]:
    """Read a JSONL pose stream into {frame_id: (t_sec, pose)}.

    A malformed line, including one with a non-finite ``t_sec``, raises
    OSError naming the path and line number.
    """
    records: dict[int, tuple[float, Pose]] = {}
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                pose = Pose.from_quaternion(
                    float(obj["qw"]), float(obj["qx"]), float(obj["qy"]),
                    float(obj["qz"]),
                    (float(obj["tx"]), float(obj["ty"]), float(obj["tz"])))
                t_sec = float(obj["t_sec"])
                if not math.isfinite(t_sec):
                    raise ValueError(f"t_sec must be finite, got {t_sec}")
                records[int(obj["frame_id"])] = (t_sec, pose)
            except (KeyError, TypeError, ValueError) as exc:
                raise OSError(f"{path}:{lineno}: malformed pose record "
                              f"({type(exc).__name__}: {exc})") from exc
    return records


def save_pose_records(path, records) -> None:
    """Write (frame_id, t_sec, Pose) triples as a JSONL pose stream."""
    with open(path, "w", encoding="utf-8") as f:
        for frame_id, t_sec, pose in records:
            qw, qx, qy, qz = pose.to_quaternion()
            tx, ty, tz = (float(c) for c in pose.translation)
            obj = {"frame_id": int(frame_id), "t_sec": float(t_sec),
                   "qw": qw, "qx": qx, "qy": qy, "qz": qz,
                   "tx": tx, "ty": ty, "tz": tz}
            f.write(json.dumps(obj) + "\n")
