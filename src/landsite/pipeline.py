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

A frame stream on disk is a directory holding intrinsics.json,
frames.jsonl (one pose record per frame) and one NNNNNN.pfm depth file
per frame, matched by frame id. Depth PFMs encode invalid pixels as 0.0;
anything outside the configured sensor range is treated as invalid on
load.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import formats
from .config import PipelineConfig
from .costmaps import Costmap, FrameMaps, evaluate_costmaps
from .detection import Candidates, dense_candidates, world_positions
from .geometry import DepthFrame, load_intrinsics, load_pose_records, \
    save_intrinsics, save_pose_records
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
    """Write frames as intrinsics.json + frames.jsonl + NNNNNN.pfm files."""
    frames = list(frames)
    if not frames:
        raise ValueError("cannot write an empty frame stream")
    if any(f.intrinsics != frames[0].intrinsics for f in frames):
        raise ValueError("all frames in a stream must share intrinsics")
    if len({f.frame_id for f in frames}) != len(frames):
        raise ValueError("frame ids in a stream must be unique")
    out = Path(stream_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    warning; a pass that yields no frame raises
    ``OSError("no readable frames in <stream>")``.
    """
    root = Path(stream_dir)
    if not root.is_dir():
        raise OSError(f"{root}: not a directory")
    intrinsics = load_intrinsics(root / "intrinsics.json")
    poses = load_pose_records(root / "frames.jsonl")
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
