"""End-to-end orchestration: frames in, candidates, sites and clusters out.

Per frame: hazard costmaps -> decision map -> dense candidates -> world
sites -> registry insertion; clustering runs over the registry at the
end (or on demand). Frames are processed strictly in order because the
registry's dedup semantics are order sensitive.

A frame stream on disk is a directory holding intrinsics.json,
frames.jsonl (one pose record per frame) and one NNNNNN.pfm depth file
per frame, matched by frame id. Depth PFMs encode invalid pixels as 0.0;
anything outside the configured sensor range is treated as invalid on
load.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import costmaps as cm
from . import formats
from .config import PipelineConfig
from .errors import ConfigError
from .detection import Candidates, dense_candidates, world_positions
from .geometry import DepthFrame, load_intrinsics, load_pose_records, \
    save_intrinsics, save_pose_records
from .registry import SiteRegistry, cluster_sites

log = logging.getLogger(__name__)


@dataclass(eq=False)
class FrameMaps:
    """Every array the per-frame stages produce, exactly as used downstream."""

    depth_confidence_raw: cm.Costmap
    edges: cm.BinaryMap
    flatness_raw: cm.Costmap
    normals: cm.NormalMap
    steepness: cm.Costmap
    energy_raw: cm.Costmap
    depth_confidence: cm.Costmap
    flatness: cm.Costmap
    energy: cm.Costmap
    decision: cm.Costmap


@dataclass(eq=False)
class FrameResult:
    frame_id: int
    candidates: Candidates
    inserted: int


@dataclass(eq=False)
class PipelineResult:
    frames: list[FrameResult] = field(default_factory=list)
    registry: SiteRegistry | None = None
    clusters: list = field(default_factory=list)
    frames_failed: int = 0
    frames_empty: int = 0


class _StageClock:
    """Accumulates wall-clock stage durations (milliseconds)."""

    def __init__(self, sink: dict[str, float] | None):
        self.sink = sink
        self._t0 = 0.0

    def start(self):
        if self.sink is not None:
            self._t0 = time.perf_counter()

    def stop(self, stage: str):
        if self.sink is not None:
            self.sink[stage] = self.sink.get(stage, 0.0) \
                + (time.perf_counter() - self._t0) * 1e3


def evaluate_costmaps(config: PipelineConfig, frame: DepthFrame,
                      timings: dict[str, float] | None = None) -> FrameMaps:
    """Run the costmap stages for one frame.

    When ``timings`` is given, per-stage durations (ms) are accumulated
    into it under the keys depth_accuracy, flatness, steepness, energy
    and final.
    """
    weights = config.fusion_weights()
    clock = _StageClock(timings)

    clock.start()
    depth_conf_raw = cm.depth_confidence_map(frame)
    clock.stop("depth_accuracy")

    clock.start()
    edges = cm.canny_edges(frame, config.canny_low_m, config.canny_high_m)
    flat = cm.distance_transform(edges)
    flat_raw = cm.Costmap(flat.values, frame.valid.copy(), cm.CostmapKind.FLATNESS)
    clock.stop("flatness")

    clock.start()
    normals = cm.surface_normals(frame, config.smoothing_window_px)
    steep = cm.steepness_map(normals, weights.slope_tolerance)
    clock.stop("steepness")

    clock.start()
    energy_raw = cm.energy_map(frame)
    clock.stop("energy")

    clock.start()
    depth_conf = cm.minmax_normalize(depth_conf_raw, cm.HIGHER_IS_BETTER)
    flat_norm = cm.minmax_normalize(flat_raw, cm.HIGHER_IS_BETTER)
    energy = cm.minmax_normalize(energy_raw, cm.LOWER_IS_BETTER)
    decision = cm.decision_map(depth_conf, flat_norm, steep, energy, weights)
    clock.stop("final")

    return FrameMaps(depth_confidence_raw=depth_conf_raw, edges=edges,
                     flatness_raw=flat_raw, normals=normals, steepness=steep,
                     energy_raw=energy_raw, depth_confidence=depth_conf,
                     flatness=flat_norm, energy=energy, decision=decision)


def detect_frame(config: PipelineConfig, frame: DepthFrame, maps: FrameMaps,
                 registry: SiteRegistry,
                 timings: dict[str, float] | None = None) -> FrameResult:
    """Dense detection for one frame, including registry aggregation.

    Candidate positions and scores go to the registry in raster order,
    matching sequential insertion semantics.
    """
    clock = _StageClock(timings)
    clock.start()
    candidates = dense_candidates(maps.decision, maps.flatness_raw, frame,
                                  config.fusion_weights(), config.uav_radius_m,
                                  config.safety_factor)
    flags = registry.insert_positions(world_positions(candidates, frame),
                                      candidates.score, frame.frame_id,
                                      frame.timestamp)
    clock.stop("dense_detection")
    return FrameResult(frame_id=frame.frame_id, candidates=candidates,
                       inserted=sum(flags))


def run_pipeline(config: PipelineConfig, frames, dump_dir=None) -> PipelineResult:
    """Process a frame iterable end to end.

    Returns per-frame candidates, the final registry and its clusters.
    A frame with no valid depth pixel is processed like any other (it
    yields no candidates) but logged and counted in ``frames_empty``.
    With ``dump_dir`` set, the exact stage arrays used for the decisions
    are written there per frame (PFM for scalar fields, PGM for binary).
    """
    registry = SiteRegistry(config.dedup_radius_m)
    result = PipelineResult(registry=registry)
    for frame in frames:
        try:
            maps = evaluate_costmaps(config, frame)
        except ConfigError:
            raise  # a bad config fails the run, not the frame
        except (ValueError, FloatingPointError) as exc:
            log.warning("frame %s failed: %s", getattr(frame, "frame_id", "?"), exc)
            result.frames_failed += 1
            continue
        if not frame.valid.any():
            log.warning("frame %s has no valid depth pixel", frame.frame_id)
            result.frames_empty += 1
        if dump_dir is not None:
            dump_costmaps(dump_dir, frame.frame_id, maps)
        result.frames.append(detect_frame(config, frame, maps, registry))
    result.clusters = cluster_sites(registry, config.cluster_dist_m,
                                    config.cluster_z_m, config.cluster_metric)
    return result


# --- disk formats ------------------------------------------------------------

def dump_costmaps(dump_dir, frame_id: int, maps: FrameMaps,
                  previews: bool = True) -> None:
    """Write one frame's stage outputs under dump_dir.

    Scalar maps go out as PFM with NaN at invalid pixels; the edge map as
    0/255 PGM; optional PGM previews are scaled over the valid range.
    """
    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{frame_id:06d}"
    scalar = {
        "depth_confidence_raw": maps.depth_confidence_raw,
        "flatness_raw": maps.flatness_raw,
        "steepness": maps.steepness,
        "energy_raw": maps.energy_raw,
        "depth_confidence": maps.depth_confidence,
        "flatness": maps.flatness,
        "energy": maps.energy,
        "decision": maps.decision,
    }
    for name, costmap in scalar.items():
        formats.write_values_pfm(out / f"{prefix}_{name}.pfm",
                                 costmap.values, costmap.valid)
        if previews:
            formats.write_pgm(out / f"{prefix}_{name}.pgm",
                              formats.preview_u8(costmap.values, costmap.valid))
    formats.write_binary_pgm(out / f"{prefix}_edges.pgm", maps.edges.bits)


def write_candidates_jsonl(path, frame_results: list[FrameResult]) -> None:
    """One JSON object per candidate, frames in order, rows in raster order.

    The lines are byte-identical to ``json.dumps`` of each row's dict:
    ``json.dumps`` writes a finite float as ``float.__repr__``, which is
    what ``!r`` gives, and every column is finite because NaN fails the
    ``>=`` gates of ``dense_candidates`` (depth is finite on valid pixels,
    the score lies in [0, 1] and the flat radius is an EDT distance).
    """
    with open(path, "w", encoding="utf-8") as f:
        for fr in frame_results:
            c = fr.candidates
            f.writelines(
                f'{{"frame_id": {fr.frame_id}, "px": {x}, "py": {y}, '
                f'"depth_m": {d!r}, "score": {s!r}, "flat_radius_px": {r!r}}}\n'
                for x, y, d, s, r in zip(c.xs.tolist(), c.ys.tolist(),
                                         c.depth.tolist(), c.score.tolist(),
                                         c.flat_radius_px.tolist()))


def write_sites_json(path, registry: SiteRegistry) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(registry.to_json_obj(), f, indent=2)
        f.write("\n")


def write_clusters_json(path, clusters) -> None:
    obj = {"clusters": [c.to_json_obj() for c in clusters]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def write_outputs(out_dir, result: PipelineResult) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_candidates_jsonl(out / "candidates.jsonl", result.frames)
    write_sites_json(out / "sites.json", result.registry)
    write_clusters_json(out / "clusters.json", result.clusters)


# --- frame streams -----------------------------------------------------------

def write_frame_stream(stream_dir, frames) -> None:
    """Write frames as intrinsics.json + frames.jsonl + NNNNNN.pfm files."""
    out = Path(stream_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = list(frames)
    if not frames:
        raise ValueError("cannot write an empty frame stream")
    if any(f.intrinsics != frames[0].intrinsics for f in frames):
        raise ValueError("all frames in a stream must share intrinsics")
    save_intrinsics(out / "intrinsics.json", frames[0].intrinsics)
    records = []
    for frame in frames:
        records.append((frame.frame_id, frame.timestamp,
                        frame.pose_world_from_camera))
        formats.write_pfm(out / f"{frame.frame_id:06d}.pfm", frame.depth)
    save_pose_records(out / "frames.jsonl", records)


def read_frame_stream(stream_dir, d_min: float, d_max: float):
    """Yield DepthFrames from a stream directory, in frame-id order.

    Frames whose depth file is missing or unreadable are skipped with a
    warning; completely unreadable streams raise OSError.
    """
    root = Path(stream_dir)
    if not root.is_dir():
        raise OSError(f"{root}: not a directory")
    intrinsics = load_intrinsics(root / "intrinsics.json")
    poses = load_pose_records(root / "frames.jsonl")
    for frame_id in sorted(poses):
        t_sec, pose = poses[frame_id]
        pfm_path = root / f"{frame_id:06d}.pfm"
        try:
            depth = read_pfm_depth(pfm_path, intrinsics.height, intrinsics.width)
        except OSError as exc:
            log.warning("skipping frame %d: %s", frame_id, exc)
            continue
        valid = np.isfinite(depth) & (depth >= d_min) & (depth <= d_max)
        yield DepthFrame(depth=np.where(valid, depth, 0.0), valid=valid,
                         intrinsics=intrinsics, pose_world_from_camera=pose,
                         frame_id=frame_id, timestamp=t_sec)


def read_pfm_depth(path, height: int, width: int) -> np.ndarray:
    depth = formats.read_pfm(path).astype(np.float64)
    if depth.shape != (height, width):
        raise OSError(f"{path}: depth shape {depth.shape} does not match "
                      f"intrinsics ({height}, {width})")
    return depth
