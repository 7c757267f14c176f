"""End-to-end orchestration: frames in, candidates, sites and clusters out.

Per frame: hazard costmaps -> decision map -> dense candidates -> world
sites -> registry insertion; clustering runs over the registry at the
end (or on demand). ``run_pipeline`` is the one frame loop. It processes
frames strictly in order, because the registry's dedup semantics are
order sensitive, and hands each frame's candidates on (to
``write_candidates_jsonl``, or nowhere) as soon as the frame is done, so
a run keeps no frame's candidates. ``costmaps.evaluate_costmaps`` runs
a frame's costmap stages; the ``costmaps`` module docstring describes
how.

A frame stream on disk is a directory that ``write_frame_stream`` writes
and ``read_frame_stream`` reads:

* ``intrinsics.json``: ``CameraIntrinsics.to_json_obj()``, the keys fx,
  fy, cx, cy, width and height.
* ``frames.jsonl``: one pose record a line, frames in the order written,
  keys frame_id, t_sec, qw, qx, qy, qz, tx, ty and tz: the frame id, its
  timestamp, the world-from-camera rotation as ``Pose.to_quaternion``
  gives it (qw >= 0) and the camera position. Every value must be a
  finite number and frame_id an integer; a line that breaks this or
  repeats a frame id is an OSError naming ``path:line``, and a blank
  line is skipped.
* ``NNNNNN.pfm``: one depth file per frame, named by its frame id as
  ``f"{frame_id:06d}"``. Invalid pixels are stored as 0.0; anything
  outside the configured sensor range is invalid on load.

``write_frame_stream`` raises ValueError, before it writes any file, if
the frames are empty or do not share one intrinsics, if a frame id is a
bool or not an integer (``operator.index`` refuses it), if a timestamp
is not finite, or if a frame id repeats. So every stream it writes reads
back.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import formats
from .config import PipelineConfig
from .costmaps import Costmap, FrameMaps, evaluate_costmaps
from .detection import Candidates, dense_candidates, world_positions
from .geometry import CameraIntrinsics, DepthFrame, Pose
from .registry import Clusters, SiteRegistry, cluster_fields, cluster_sites

log = logging.getLogger(__name__)


@dataclass(eq=False)
class FrameResult:
    """What a run keeps of one frame: counts and timings, no candidates."""

    frame_id: int
    n_candidates: int
    inserted: int
    # FrameMaps.stage_ms plus dense_detection (select, lift and insert)
    stage_ms: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class PipelineResult:
    frames: list[FrameResult] = field(default_factory=list)
    registry: SiteRegistry | None = None
    clusters: Clusters = field(default_factory=lambda: Clusters([], [], []))
    frames_failed: int = 0
    frames_empty: int = 0
    cluster_ms: float = 0.0  # the one cluster_sites call, at the end


def detect_frame(config: PipelineConfig, frame: DepthFrame, maps: FrameMaps,
                 registry: SiteRegistry) -> tuple[Candidates, FrameResult]:
    """Dense detection for one frame, including registry aggregation.

    Candidate positions and scores go to the registry in raster order,
    matching sequential insertion semantics. Returns the frame's
    candidates and its summary.
    """
    t0 = time.perf_counter()
    candidates = dense_candidates(maps.decision, maps.flatness_raw, frame,
                                  config)
    flags = registry.insert_positions(world_positions(candidates, frame),
                                      candidates.score, frame.frame_id,
                                      frame.timestamp)
    ms = (time.perf_counter() - t0) * 1e3
    return candidates, FrameResult(
        frame_id=frame.frame_id, n_candidates=len(candidates),
        inserted=flags.count(True),
        stage_ms={**maps.stage_ms, "dense_detection": ms})


def run_pipeline(config: PipelineConfig, frames, dump_dir=None,
                 candidates_path=None) -> PipelineResult:
    """Process a frame iterable end to end; the one per-frame loop.

    Each frame's candidates are handed on as soon as the frame is done:
    with ``candidates_path`` set, ``write_candidates_jsonl`` writes them
    there as ``candidates.jsonl`` lines (see it for what an error
    leaves); without, they are dropped. The result holds each frame's
    ``FrameResult`` summary, the final registry and its clusters, but no
    frame's candidates, so a run's memory does not grow with them.
    A frame with no pixel valid in every costmap (no valid depth, or a
    smoothing window wider than the frame) is processed like any other
    (it yields no candidates) but logged and counted in ``frames_empty``.
    With ``dump_dir`` set, the exact stage arrays used for the decisions
    are written there per frame (PFM for scalar fields, PGM for binary).
    """
    registry = SiteRegistry(config.dedup_radius_m)
    result = PipelineResult(registry=registry)

    def frame_results():
        for frame in frames:
            try:
                maps = evaluate_costmaps(config, frame)
            except (ValueError, FloatingPointError) as exc:
                log.warning("frame %s failed: %s",
                            getattr(frame, "frame_id", "?"), exc)
                result.frames_failed += 1
                continue
            if not maps.decision.valid.any():
                log.warning("frame %s has no pixel valid in every costmap "
                            "(%d valid depth pixels)", frame.frame_id,
                            np.count_nonzero(frame.valid))
                result.frames_empty += 1
            if dump_dir is not None:
                dump_costmaps(dump_dir, frame.frame_id, maps)
            candidates, summary = detect_frame(config, frame, maps, registry)
            del maps  # free this frame's maps before the next frame's are built
            result.frames.append(summary)
            yield candidates, summary

    if candidates_path is None:
        for _ in frame_results():
            pass
    else:
        write_candidates_jsonl(candidates_path, frame_results())
    t0 = time.perf_counter()
    result.clusters = cluster_sites(registry, config.cluster_dist_m,
                                    config.cluster_z_m, config.cluster_metric)
    result.cluster_ms = (time.perf_counter() - t0) * 1e3
    return result


# --- disk formats ------------------------------------------------------------

def dump_costmaps(dump_dir, frame_id: int, maps: FrameMaps) -> None:
    """Write one frame's stage outputs under dump_dir.

    Each ``Costmap`` field of ``maps`` goes out as PFM named after the
    field, with NaN at invalid pixels, and a PGM preview scaled over the
    valid range; the edge map as 0/255 PGM.
    """
    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{frame_id:06d}"
    for name in (f.name for f in fields(maps)):
        costmap = getattr(maps, name)
        if isinstance(costmap, Costmap):
            formats.write_values_pfm(out / f"{prefix}_{name}.pfm",
                                     costmap.values, costmap.valid)
            formats.write_pgm(out / f"{prefix}_{name}.pgm",
                              formats.preview_u8(costmap.values, costmap.valid))
    formats.write_binary_pgm(out / f"{prefix}_edges.pgm", maps.edges.bits)


def write_candidates_jsonl(path, frame_results) -> None:
    """One JSON object per candidate, frames in order, rows in raster order.

    ``frame_results`` is an iterable of ``(Candidates, FrameResult)``
    pairs, as ``detect_frame`` returns them, read one frame at a time:
    each frame's lines are written before the next frame is asked for.
    They go to ``<path>.tmp``, renamed to ``path`` after the last frame.
    If reading a frame or writing raises, the temporary file is removed
    and ``path`` is left as it was.

    The lines are byte-identical to ``json.dumps`` of each row's dict:
    ``json.dumps`` writes a finite float as ``float.__repr__``, which is
    what ``!r`` gives, and every column is finite because NaN fails the
    ``>=`` gates of ``dense_candidates`` (depth is finite on valid pixels,
    the score lies in [0, 1] and the flat radius is an EDT distance).
    """
    tmp = Path(f"{path}.tmp")
    f = open(tmp, "w", encoding="utf-8")  # a file not made needs no removal
    try:
        with f:
            for c, fr in frame_results:
                f.writelines(
                    f'{{"frame_id": {fr.frame_id}, "px": {x}, "py": {y}, '
                    f'"depth_m": {d!r}, "score": {s!r}, "flat_radius_px": {r!r}}}\n'
                    for x, y, d, s, r in zip(c.xs.tolist(), c.ys.tolist(),
                                             c.depth.tolist(), c.score.tolist(),
                                             c.flat_radius_px.tolist()))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_clusters_json(path, clusters: Clusters) -> None:
    """Write ``clusters.json`` from the columns, byte for byte ``write_json``
    of each ``ClusterSite.to_json_obj()``."""
    formats.write_records_json(path, {}, "clusters", cluster_fields(
        clusters.centroids, clusters.mean_score, clusters.members))


def write_outputs(out_dir, result: PipelineResult) -> None:
    """Write ``sites.json`` and ``clusters.json`` once a run is done; its
    ``candidates.jsonl`` is written while it runs (``run_pipeline``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.registry.save(out / "sites.json")
    write_clusters_json(out / "clusters.json", result.clusters)


# --- frame streams -----------------------------------------------------------

def write_frame_stream(stream_dir, frames) -> None:
    """Write frames as a stream directory (see the module docstring)."""
    frames = list(frames)
    if not frames:
        raise ValueError("cannot write an empty frame stream")
    if any(f.intrinsics != frames[0].intrinsics for f in frames):
        raise ValueError("all frames in a stream must share intrinsics")
    for f in frames:
        try:
            operator.index(f.frame_id)
        except TypeError:
            integral = False
        else:
            integral = not isinstance(f.frame_id, bool)
        if not integral:
            raise ValueError(f"frame id {f.frame_id!r} is not an integer")
        if not math.isfinite(f.timestamp):
            raise ValueError(f"frame {f.frame_id}: timestamp {f.timestamp!r} "
                             f"is not finite")
    if len({f.frame_id for f in frames}) != len(frames):
        raise ValueError("frame ids in a stream must be unique")
    out = Path(stream_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_json(out / "intrinsics.json",
                       frames[0].intrinsics.to_json_obj())
    with open(out / "frames.jsonl", "w", encoding="utf-8") as poses:
        for frame in frames:
            qw, qx, qy, qz = frame.pose_world_from_camera.to_quaternion()
            tx, ty, tz = frame.pose_world_from_camera.translation.tolist()
            poses.write(json.dumps(
                {"frame_id": int(frame.frame_id), "t_sec": float(frame.timestamp),
                 "qw": qw, "qx": qx, "qy": qy, "qz": qz,
                 "tx": tx, "ty": ty, "tz": tz}, allow_nan=False) + "\n")
            formats.write_pfm(out / f"{frame.frame_id:06d}.pfm", frame.depth)


def read_frame_stream(stream_dir, d_min: float, d_max: float):
    """Yield DepthFrames from a stream directory, in frame-id order.

    A malformed ``intrinsics.json`` or pose line raises OSError naming
    the file (and line). Frames whose depth file is missing or
    unreadable are skipped with a warning; a pass that yields no frame
    raises ``OSError("no readable frames in <stream>")``.
    """
    root = Path(stream_dir)
    if not root.is_dir():
        raise OSError(f"{root}: not a directory")
    intrinsics = formats.read_json(root / "intrinsics.json",
                                   CameraIntrinsics.from_json_obj, "intrinsics")
    poses = _read_poses(root / "frames.jsonl")
    shape = (intrinsics.height, intrinsics.width)
    readable = False
    for frame_id in sorted(poses):
        t_sec, pose = poses[frame_id]
        pfm_path = root / f"{frame_id:06d}.pfm"
        try:
            # a signalling NaN widens to a quiet one, invalid like any NaN
            with np.errstate(invalid="ignore"):
                depth = formats.read_pfm(pfm_path).astype(np.float64)
            if depth.shape != shape:
                raise OSError(f"{pfm_path}: depth shape {depth.shape} does "
                              f"not match intrinsics {shape}")
        except OSError as exc:
            log.warning("skipping frame %d: %s", frame_id, exc)
            continue
        valid = np.isfinite(depth) & (depth >= d_min) & (depth <= d_max)
        readable = True
        yield DepthFrame(depth=depth, valid=valid, intrinsics=intrinsics,
                         pose_world_from_camera=pose, frame_id=frame_id,
                         timestamp=t_sec)
    if not readable:
        raise OSError(f"no readable frames in {root}")


def _read_poses(path) -> dict[int, tuple[float, Pose]]:
    """``frames.jsonl`` as {frame_id: (t_sec, pose)}; blank lines skipped."""
    records: dict[int, tuple[float, Pose]] = {}
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            with formats.malformed(f"{path}:{lineno}", "pose record"):
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                pose = Pose.from_quaternion(
                    *(formats.number(obj, k) for k in ("qw", "qx", "qy", "qz")),
                    tuple(formats.number(obj, k) for k in ("tx", "ty", "tz")))
                t_sec = formats.number(obj, "t_sec")
                frame_id = formats.integer(obj, "frame_id")
                if frame_id in records:
                    raise ValueError(f"repeated frame_id {frame_id}")
                records[frame_id] = (t_sec, pose)
    return records
