"""Command-line interface.

Subcommands: detect (run the pipeline over a frame stream), costmap
(dump one frame's stage maps), synth (render canonical or custom scenes
into a frame stream), bench (per-stage timing) and cluster (re-cluster a
registry snapshot). Exit codes: 0 success, 1 configuration error, 2 I/O
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import formats, scene_synth
from .bench import bench, timing_table
from .config import PipelineConfig, get_profile
from .errors import ConfigError
from .geometry import camera_pose
from .pipeline import dump_costmaps, evaluate_costmaps, read_frame_stream, \
    run_pipeline, write_clusters_json, write_frame_stream, write_outputs
from .registry import SiteRegistry, cluster_sites


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    p.add_argument("--profile", choices=("sim", "real"), default=None,
                   help="named parameter profile (default: sim)")


def _resolve_config(args) -> PipelineConfig:
    if args.config is not None:
        if args.profile is not None:
            raise ConfigError("give either --config or --profile, not both")
        try:
            return PipelineConfig.load(args.config)
        except FileNotFoundError as exc:
            raise OSError(f"config file not found: {args.config}") from exc
    return get_profile(args.profile or "sim")


def _build_parser() -> _Parser:
    parser = _Parser(prog="landsite",
                     description="Landing-site detection from depth frames")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the full pipeline")
    _add_config_args(p)
    p.add_argument("--in", dest="stream", type=Path, required=True,
                   help="frame stream directory")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--dump-costmaps", type=Path, default=None,
                   help="also dump per-frame stage maps to this directory")

    p = sub.add_parser("costmap", help="dump stage maps for a single frame")
    _add_config_args(p)
    p.add_argument("--in", dest="stream", type=Path, required=True)
    p.add_argument("--frame-id", type=int, default=None,
                   help="frame to process (default: first in stream)")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("synth", help="render synthetic scenes to a frame stream")
    p.add_argument("--scene",
                   choices=[n.lower() for n in scene_synth.CANONICAL_HEIGHTS],
                   default=None, help="canonical scene name")
    p.add_argument("--scene-file", type=Path, default=None,
                   help="custom scene JSON instead of a canonical scene")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--spacing-m", type=_finite, default=0.5,
                   help="camera step along +x between frames")
    p.add_argument("--height-m", type=_finite, default=None,
                   help="camera height override")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise-sigma-m", type=_finite, default=None,
                   help="override the scene's depth noise")
    p.add_argument("--ground-truth", action="store_true",
                   help="also dump safe mask and primitive ids per frame")

    p = sub.add_parser("bench", help="per-stage timing over a frame stream")
    _add_config_args(p)
    p.add_argument("--in", dest="stream", type=Path, required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", type=Path, default=None,
                   help="directory for timing.json (default: print only)")

    p = sub.add_parser("cluster", help="re-cluster a registry snapshot")
    _add_config_args(p)
    p.add_argument("--sites", type=Path, required=True, help="sites.json path")
    p.add_argument("--out", type=Path, required=True,
                   help="clusters.json output path")
    return parser


def _cmd_detect(args) -> int:
    config = _resolve_config(args)
    frames = read_frame_stream(args.stream, config.d_min_m, config.d_max_m)
    # The first frame is read before the output directories are made, so
    # an unreadable stream leaves none behind, and they are made before
    # any frame runs.
    first = next(frames)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.dump_costmaps is not None:
        args.dump_costmaps.mkdir(parents=True, exist_ok=True)
    result = run_pipeline(config, itertools.chain((first,), frames),
                          dump_dir=args.dump_costmaps)
    write_outputs(args.out, result)
    n_candidates = sum(len(f.candidates) for f in result.frames)
    print(f"frames: {len(result.frames)} (failed: {result.frames_failed})  "
          f"empty: {result.frames_empty}  candidates: {n_candidates}  "
          f"sites: {len(result.registry)}  clusters: {len(result.clusters)}")
    return 0


def _cmd_costmap(args) -> int:
    config = _resolve_config(args)
    for frame in read_frame_stream(args.stream, config.d_min_m, config.d_max_m):
        if args.frame_id is None or frame.frame_id == args.frame_id:
            maps = evaluate_costmaps(config, frame)
            dump_costmaps(args.out, frame.frame_id, maps)
            print(f"dumped stage maps for frame {frame.frame_id} to {args.out}")
            return 0
    raise OSError(f"no frame {args.frame_id} in {args.stream}")


def _cmd_synth(args) -> int:
    if (args.scene is None) == (args.scene_file is None):
        raise ConfigError("give exactly one of --scene or --scene-file")
    if args.frames < 1:
        raise ConfigError("--frames must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.noise_sigma_m is not None and args.noise_sigma_m < 0:
        raise ConfigError("--noise-sigma-m must be >= 0")
    if args.height_m is not None and args.height_m <= 0:
        raise ConfigError("--height-m must be > 0")
    if not math.isfinite((args.frames - 1) * args.spacing_m):
        raise ConfigError("--spacing-m times --frames overflows")
    if args.scene_file is not None:
        try:
            scene = scene_synth.load_scene(args.scene_file)
        except FileNotFoundError as exc:
            raise OSError(f"scene file not found: {args.scene_file}") from exc
        height = args.height_m if args.height_m is not None else 5.0
    else:
        name = args.scene.upper()
        scene = scene_synth.canonical_scenes(seed=args.seed)[name]
        height = args.height_m if args.height_m is not None \
            else scene_synth.CANONICAL_HEIGHTS[name]
    if args.noise_sigma_m is not None:
        scene = dataclasses.replace(scene, noise_sigma=args.noise_sigma_m,
                                    seed=args.seed)
    if args.ground_truth and len(scene.primitives) > 255:
        raise ConfigError(f"--ground-truth writes primitive ids as 8-bit "
                          f"PGM values: at most 255 primitives, not "
                          f"{len(scene.primitives)}")

    intrinsics = scene_synth.default_intrinsics()
    rate_hz = 20.0
    frames = []
    truths = []
    for i in range(args.frames):
        pose = camera_pose((i * args.spacing_m, 0.0, height))
        # Distinct noise per frame, still fully seed-determined.
        per_frame = dataclasses.replace(scene, seed=scene.seed + i)
        try:
            frame, truth = scene_synth.render_depth(per_frame, intrinsics, pose,
                                                    frame_id=i,
                                                    timestamp=i / rate_hz)
        except ValueError as exc:  # the camera sits inside a solid
            raise ConfigError(f"frame {i}: {exc}") from exc
        frames.append(frame)
        if args.ground_truth:  # about 8 MB a frame at 640x480
            truths.append(truth)
    write_frame_stream(args.out, frames)
    if args.ground_truth:
        gt_dir = Path(args.out) / "ground_truth"
        gt_dir.mkdir(parents=True, exist_ok=True)
        for frame, truth in zip(frames, truths):
            prefix = f"{frame.frame_id:06d}"
            formats.write_binary_pgm(gt_dir / f"{prefix}_safe_mask.pgm",
                                     truth.safe_mask.astype(np.uint8))
            formats.write_pgm(gt_dir / f"{prefix}_prim_id.pgm",
                              (truth.prim_id + 1).astype(np.uint8))
            for i, axis in enumerate("xyz"):
                formats.write_values_pfm(
                    gt_dir / f"{prefix}_normal_{axis}.pfm",
                    truth.normals[..., i], frame.valid)
    print(f"wrote {len(frames)} frame(s) to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = _resolve_config(args)
    if args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    frames = list(read_frame_stream(args.stream, config.d_min_m, config.d_max_m))
    if args.out is not None:  # before any frame runs
        args.out.mkdir(parents=True, exist_ok=True)
    report = bench(config, frames, repetitions=args.reps)
    print(timing_table(report))
    if args.out is not None:
        formats.write_json(args.out / "timing.json", report)
    return 0


def _cmd_cluster(args) -> int:
    config = _resolve_config(args)
    registry = SiteRegistry.load(args.sites)
    clusters = cluster_sites(registry, config.cluster_dist_m,
                             config.cluster_z_m, config.cluster_metric)
    write_clusters_json(args.out, clusters)
    print(f"{len(registry)} sites -> {len(clusters)} clusters")
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "costmap": _cmd_costmap,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "cluster": _cmd_cluster,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
