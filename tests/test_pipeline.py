import contextlib
import copy
import dataclasses
import functools
import gc
import io
import itertools
import json
import logging
import math
import os
import re
import signal
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landsite import costmaps as cm
from landsite import scene_synth as ss
from landsite import cli
from landsite.bench import STAGES, bench, timing_table
from landsite.cli import main as cli_main
from landsite.config import MAX_DISTANCE_M, PROFILES, PipelineConfig, \
    get_profile
from landsite.detection import Candidates
from landsite.errors import ConfigError
from landsite.formats import read_pfm, write_json, write_pfm
from landsite.geometry import (CameraIntrinsics, DepthFrame, Pose,
                               camera_pose, project_uav_radius, rotation_x,
                               rotation_z)
from landsite.registry import SiteRegistry, cluster_sites
from landsite import pipeline
from landsite.pipeline import (
    FrameResult,
    detect_frame,
    evaluate_costmaps,
    read_frame_stream,
    run_pipeline,
    write_candidates_jsonl,
    write_frame_stream,
    write_outputs,
)

from oracles import formula_decision_map, json_dumps_candidates_jsonl, \
    scene_to_json_obj
from test_formats import read_pgm


@pytest.fixture(scope="module")
def intr():
    return ss.default_intrinsics()


def render_canonical(name, frame_id=0, camera_xy=(0.0, 0.0), seed=7):
    intrinsics = ss.default_intrinsics()
    scene = ss.canonical_scenes(seed=seed)[name]
    return ss.render_depth(scene, intrinsics,
                           ss.canonical_camera(name, camera_xy),
                           frame_id=frame_id, timestamp=frame_id / 20.0)[0]


# The largest slope tolerance (degrees) whose 2 tol^2, in radians, is below
# DBL_MIN; the next float up is the smallest one accepted.
BELOW_SLOPE_BOUND_DEG = 6.0433792665828e-153


class TestConfig:
    def test_sim_profile_parameters(self):
        cfg = get_profile("sim")
        assert (cfg.weight_depth_confidence, cfg.weight_flatness,
                cfg.weight_steepness, cfg.weight_energy) == (0.05, 0.4, 0.4, 0.15)
        assert cfg.decision_threshold == 0.72
        assert cfg.cluster_z_m == 0.01
        assert cfg.slope_tolerance_deg == 15.0
        assert cfg.cluster_dist_m == 0.5
        assert cfg.d_min_m == 0.05 and cfg.d_max_m == 20.0

    def test_real_profile_parameters(self):
        cfg = get_profile("real")
        assert (cfg.weight_depth_confidence, cfg.weight_flatness,
                cfg.weight_steepness, cfg.weight_energy) == (0.15, 0.35, 0.4, 0.1)
        assert cfg.decision_threshold == 0.7
        assert cfg.cluster_z_m == 0.05
        assert cfg.uav_radius_m == 0.13

    def test_profiles_round_trip_unchanged(self, tmp_path):
        for name, cfg in PROFILES.items():
            path = tmp_path / f"{name}.json"
            write_json(path, cfg.to_json_obj())
            assert PipelineConfig.load(path) == cfg
            assert PipelineConfig.from_json_obj(cfg.to_json_obj()) == cfg

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            get_profile("fast")

    def test_unknown_field_rejected(self):
        obj = get_profile("sim").to_json_obj()
        obj["dedup_radius"] = 0.5  # missing unit suffix
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_obj(obj)

    def test_missing_field_rejected(self):
        obj = get_profile("sim").to_json_obj()
        del obj["canny_low_m"]
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_obj(obj)

    @pytest.mark.parametrize("field,value", [
        ("canny_low_m", 0.5), ("canny_low_m", 0.0),
        ("smoothing_window_px", 4), ("uav_radius_m", -1.0),
        ("d_min_m", 0.0), ("cluster_metric", "spherical"),
        ("weight_energy", 0.5), ("slope_tolerance_deg", 0.0),
        # the largest tolerance whose 2 tol^2 (radians) underflows
        ("slope_tolerance_deg", BELOW_SLOPE_BOUND_DEG),
        ("smoothing_window_px", 3.5), ("weight_flatness", "a"),
        ("d_max_m", None), ("uav_radius_m", True), ("profile", 1),
        ("dedup_radius_m", float("inf")), ("d_max_m", float("inf")),
        pytest.param("cluster_dist_m", 10**400, id="cluster_dist_m-10**400"),
        ("canny_high_m", float("nan")),
        ("weight_energy", 0.35),  # the weights sum to 1.2
        ("weight_energy", 0.15 + 5e-6),  # just past WEIGHT_SUM_TOL
        # a negative weight while the four still sum to 1
        pytest.param("weights", {"weight_depth_confidence": -0.1,
                                 "weight_energy": 0.3},
                     id="weight_depth_confidence--0.1"),
    ])
    def test_validation_rejects_bad_values(self, field, value):
        obj = get_profile("sim").to_json_obj()
        obj.update(value if field == "weights" else {field: value})
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_obj(obj)

    @pytest.mark.parametrize("field", ["dedup_radius_m", "cluster_dist_m",
                                       "cluster_z_m"])
    def test_distances_are_bounded_so_squares_stay_finite(self, field):
        obj = get_profile("sim").to_json_obj()
        for value in (MAX_DISTANCE_M, math.nextafter(MAX_DISTANCE_M, 0.0)):
            config = PipelineConfig.from_json_obj({**obj, field: value})
            assert getattr(config, field) == value
        for value in (math.nextafter(MAX_DISTANCE_M, math.inf), 1e155):
            with pytest.raises(ConfigError,
                               match=rf"^{field} must be at most 1e\+150$"):
                PipelineConfig.from_json_obj({**obj, field: value})

    def test_config_and_steepness_share_the_slope_bound(self):
        # the config refuses BELOW_SLOPE_BOUND_DEG (see above); the next
        # float up builds a config whose steepness is finite everywhere
        normals = cm.surface_normals(render_canonical("FLAT_PAD"), 3)
        config = dataclasses.replace(
            get_profile("sim"),
            slope_tolerance_deg=math.nextafter(BELOW_SLOPE_BOUND_DEG, 1.0))
        steep = cm.steepness_map(normals,
                                 math.radians(config.slope_tolerance_deg))
        assert np.isfinite(steep.values).all()
        with pytest.raises(ConfigError, match=r"2 tol\^2 does not underflow"):
            cm.steepness_map(normals, math.radians(BELOW_SLOPE_BOUND_DEG))

    def test_rejects_nonpositive_slope_tolerance(self):
        for value in (0.0, -0.0, -15.0):
            obj = dict(get_profile("sim").to_json_obj(),
                       slope_tolerance_deg=value)
            with pytest.raises(ConfigError):
                PipelineConfig.from_json_obj(obj)

    def test_weight_sum_within_tolerance_accepted(self):
        obj = dict(get_profile("sim").to_json_obj(), weight_energy=0.15 + 5e-7)
        assert PipelineConfig.from_json_obj(obj).weight_energy == 0.15 + 5e-7


class TestFrameStream:
    def test_round_trip(self, tmp_path):
        frames = [render_canonical("FLAT_PAD", frame_id=i, camera_xy=(0.3 * i, 0))
                  for i in range(2)]
        stream = tmp_path / "stream"
        write_frame_stream(stream, frames)
        assert (stream / "intrinsics.json").exists()
        assert (stream / "frames.jsonl").exists()
        assert (stream / "000001.pfm").exists()
        loaded = list(read_frame_stream(stream, 0.05, 20.0))
        assert [f.frame_id for f in loaded] == [0, 1]
        for orig, back in zip(frames, loaded):
            # depth survives the float32 file format exactly
            assert np.array_equal(back.depth[back.valid],
                                  orig.depth.astype(np.float32)[back.valid])
            assert np.array_equal(back.valid, orig.valid)
            assert np.allclose(back.pose_world_from_camera.translation,
                               orig.pose_world_from_camera.translation)

    def test_intrinsics_json_round_trip(self, tmp_path, make_frame,
                                        intrinsics_small):
        write_frame_stream(tmp_path / "s", [make_frame(np.full((48, 64), 5.0))])
        (frame,) = read_frame_stream(tmp_path / "s", 0.05, 20.0)
        assert frame.intrinsics == intrinsics_small

    def test_pose_jsonl_round_trip(self, tmp_path, make_frame):
        poses = [
            (0, 0.0, Pose.from_quaternion(1, 0, 0, 0, (0, 0, 5))),
            (1, 0.05, Pose.from_quaternion(0.9, 0.1, -0.2, 0.3, (1, 2, 6))),
        ]
        write_frame_stream(tmp_path / "s", [
            make_frame(np.full((48, 64), 5.0), pose=pose, frame_id=frame_id,
                       timestamp=t_sec)
            for frame_id, t_sec, pose in poses])
        records = {f.frame_id: (f.timestamp, f.pose_world_from_camera)
                   for f in read_frame_stream(tmp_path / "s", 0.05, 20.0)}
        assert set(records) == {0, 1}
        for frame_id, t_sec, pose in poses:
            t_loaded, p_loaded = records[frame_id]
            assert t_loaded == t_sec
            assert np.allclose(p_loaded.rotation, pose.rotation, atol=1e-9)
            assert np.allclose(p_loaded.translation, pose.translation)

    def test_unreadable_frame_skipped(self, tmp_path):
        frames = [render_canonical("FLAT_PAD", frame_id=i) for i in range(3)]
        stream = tmp_path / "stream"
        write_frame_stream(stream, frames)
        for damaged in (b"Pf\n4 4\n-1.0\nxx",
                        b"Pf\nabc def\n-1.0\n",
                        b"Pf\n-2 -3\n-1.0\n" + b"\x00" * 24,
                        b"Pf\n1048576 262144\n-1.0\n",
                        b"Pf\n2 2\nabc\n" + b"\x00" * 16,
                        b"Pf\n2 2\n-1.0\n" + b"\x00" * 16):
            (stream / "000001.pfm").write_bytes(damaged)
            loaded = list(read_frame_stream(stream, 0.05, 20.0))
            assert [f.frame_id for f in loaded] == [0, 2], damaged

    def test_no_readable_frame_raises(self, tmp_path):
        frames = [render_canonical("FLAT_PAD", frame_id=i) for i in range(2)]
        stream = tmp_path / "stream"
        write_frame_stream(stream, frames)
        (stream / "000000.pfm").write_bytes(b"Pf\nabc def\n-1.0\n")
        (stream / "000001.pfm").unlink()
        message = re.escape(f"no readable frames in {stream}") + "$"
        with pytest.raises(OSError, match=message):
            list(read_frame_stream(stream, 0.05, 20.0))
        with pytest.raises(OSError, match=message):
            run_pipeline(get_profile("sim"),
                         read_frame_stream(stream, 0.05, 20.0))

    def test_out_of_range_depth_invalid_on_read(self, tmp_path, make_frame):
        depth = np.full((48, 64), 5.0)
        depth[0, 0] = 25.0
        depth[0, 1] = 0.01
        write_frame_stream(tmp_path / "s", [make_frame(depth)])
        (frame,) = read_frame_stream(tmp_path / "s", 0.05, 20.0)
        assert not frame.valid[0, 0]
        assert not frame.valid[0, 1]
        assert frame.valid[10, 10]

    def test_missing_stream_raises(self, tmp_path):
        with pytest.raises(OSError):
            list(read_frame_stream(tmp_path / "nope", 0.05, 20.0))

    def test_mixed_intrinsics_rejected(self, tmp_path):
        from landsite.geometry import CameraIntrinsics, DepthFrame, Pose

        a = render_canonical("FLAT_PAD", frame_id=0)
        small = CameraIntrinsics(fx=80, fy=80, cx=31.5, cy=23.5,
                                 width=64, height=48)
        depth = np.full((48, 64), 2.0)
        b = DepthFrame(depth, np.ones_like(depth, bool), small,
                       Pose(np.eye(3), np.zeros(3)), frame_id=1)
        with pytest.raises(ValueError):
            write_frame_stream(tmp_path / "s", [a, b])
        assert not (tmp_path / "s").exists()

    def test_repeated_frame_id_rejected_before_writing(self, tmp_path):
        frames = [render_canonical("FLAT_PAD", frame_id=3, camera_xy=(0.3 * i, 0))
                  for i in range(2)]
        with pytest.raises(ValueError, match="frame ids in a stream must be unique"):
            write_frame_stream(tmp_path / "s", frames)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("frame_id,timestamp,message", [
        (0, math.inf, "timestamp inf is not finite"),
        (0, -math.inf, "timestamp -inf is not finite"),
        (0, math.nan, "timestamp nan is not finite"),
        (2.0, 0.0, "frame id 2.0 is not an integer"),
        (True, 0.0, "frame id True is not an integer"),
    ])
    def test_unreadable_record_rejected_before_writing(
            self, tmp_path, make_frame, frame_id, timestamp, message):
        # none of these would read back as written
        frame = make_frame(np.full((48, 64), 5.0), frame_id=frame_id,
                           timestamp=timestamp)
        with pytest.raises(ValueError, match=message):
            write_frame_stream(tmp_path / "s", [frame])
        assert not (tmp_path / "s").exists()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_written_stream_reads_back(self, data):
        intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=8,
                                height=6)
        ids = data.draw(st.lists(
            st.integers(max_value=0) | st.integers(min_value=2**63 + 1),
            min_size=1, max_size=3, unique=True), label="ids")
        finite = st.floats(allow_nan=False, allow_infinity=False)
        component = st.floats(-1.0, 1.0)
        frames = []
        for frame_id in ids:
            depth = data.draw(st.lists(st.floats(1.0, 10.0), min_size=48,
                                       max_size=48))
            valid = data.draw(st.lists(st.booleans(), min_size=48,
                                       max_size=48))
            q = data.draw(st.tuples(component, component, component,
                                    component).filter(
                lambda q: sum(c * c for c in q) > 1e-4))
            pose = Pose.from_quaternion(*q, data.draw(st.tuples(
                finite, finite, finite)))
            frames.append(DepthFrame(
                np.reshape(depth, (6, 8)), np.reshape(valid, (6, 8)), intr,
                pose, frame_id=frame_id, timestamp=data.draw(finite)))
        with tempfile.TemporaryDirectory() as stream:
            write_frame_stream(stream, frames)
            loaded = list(read_frame_stream(stream, 0.5, 20.0))
        assert [f.frame_id for f in loaded] == sorted(ids)
        for back in loaded:
            (orig,) = (f for f in frames if f.frame_id == back.frame_id)
            assert back.timestamp == orig.timestamp
            assert back.intrinsics == intr
            assert np.array_equal(back.valid, orig.valid)
            assert np.array_equal(back.depth[back.valid],
                                  orig.depth.astype(np.float32)[back.valid])
            pose, orig_pose = (back.pose_world_from_camera,
                               orig.pose_world_from_camera)
            assert np.array_equal(pose.translation, orig_pose.translation)
            np.testing.assert_allclose(pose.rotation, orig_pose.rotation,
                                       rtol=0, atol=1e-12)


class TestRunPipeline:
    def test_flat_pad_finds_pad(self):
        frame = render_canonical("FLAT_PAD")
        result = run_pipeline(get_profile("sim"), [frame])
        assert len(result.registry) > 0
        assert len(result.clusters) > 0
        top = result.clusters.centroids[0]
        assert np.hypot(top[0], top[1]) < 0.5
        assert abs(top[2] - 0.8) < 0.02

    def test_steep_wall_finds_nothing(self):
        frame = render_canonical("STEEP_WALL")
        result = run_pipeline(get_profile("sim"), [frame])
        assert len(result.registry) == 0
        assert len(result.clusters) == 0
        assert result.clusters.centroids.shape == (0, 3)

    def test_real_profile_behaves_on_canonical_scenes(self):
        real = get_profile("real")
        pad = run_pipeline(real, [render_canonical("FLAT_PAD")])
        assert len(pad.registry) > 0
        top = pad.clusters.centroids[0]
        assert np.hypot(top[0], top[1]) < 0.5
        wall = run_pipeline(real, [render_canonical("STEEP_WALL")])
        assert len(wall.registry) == 0

    def test_replayed_frame_adds_nothing(self):
        frame = render_canonical("FLAT_PAD")
        result_once = run_pipeline(get_profile("sim"), [frame])
        result_twice = run_pipeline(get_profile("sim"), [frame, frame])
        assert len(result_twice.registry) == len(result_once.registry)
        assert result_twice.frames[1].inserted == 0

    def test_scores_sorted_descending(self):
        frame = render_canonical("RUBBLE")
        result = run_pipeline(get_profile("sim"), [frame])
        scores = result.clusters.mean_score.tolist()
        assert len(scores) > 1 and scores == sorted(scores, reverse=True)

    def test_dumped_maps_reproduce_decisions(self, tmp_path):
        frame = render_canonical("RUBBLE")
        config = get_profile("sim")
        run_pipeline(config, [frame], dump_dir=tmp_path / "maps",
                     candidates_path=tmp_path / "candidates.jsonl")
        decision = read_pfm(tmp_path / "maps" / "000000_decision.pfm")
        flat = read_pfm(tmp_path / "maps" / "000000_flatness_raw.pfm")
        dec_valid, flat_valid = np.isfinite(decision), np.isfinite(flat)
        cands = _read_candidates(tmp_path / "candidates.jsonl")
        assert len(cands) > 0
        # dumps are the decision arrays themselves, float32-quantized
        from landsite.pipeline import evaluate_costmaps as _eval
        maps = _eval(config, frame)
        assert np.array_equal(dec_valid, maps.decision.valid)
        assert np.array_equal(decision[dec_valid],
                              maps.decision.values.astype(np.float32)[dec_valid])
        required = config.safety_factor * project_uav_radius(
            config.uav_radius_m, frame.depth[frame.valid], frame.intrinsics)
        req = np.zeros_like(frame.depth)
        req[frame.valid] = required
        # float32 dump quantization allows half-ulp slack
        eps = 1e-6
        ys, xs = cands.ys, cands.xs
        assert np.all(dec_valid[ys, xs] & flat_valid[ys, xs])
        assert np.all(decision[ys, xs] >= config.decision_threshold - eps)
        assert np.all(flat[ys, xs] >= req[ys, xs] - eps)
        # and the written values (exact float reprs) pass exactly
        assert np.all(cands.score >= config.decision_threshold)
        assert np.all(cands.flat_radius_px >= req[ys, xs])

    def test_empty_frame_warned_and_counted(self, caplog):
        frame = render_canonical("FLAT_PAD")
        empty = DepthFrame(np.zeros(frame.shape), np.zeros(frame.shape, bool),
                           frame.intrinsics, frame.pose_world_from_camera,
                           frame_id=1)
        once = run_pipeline(get_profile("sim"), [frame])
        with caplog.at_level("WARNING", logger="landsite.pipeline"):
            result = run_pipeline(get_profile("sim"), [frame, empty])
        assert result.frames_empty == 1 and result.frames_failed == 0
        assert ("frame 1 has no pixel valid in every costmap "
                "(0 valid depth pixels)") in caplog.text
        # still processed, so the outputs are those of the good frame alone
        assert [f.frame_id for f in result.frames] == [0, 1]
        assert result.frames[1].n_candidates == 0
        assert result.registry.to_json_obj() == once.registry.to_json_obj()
        # every depth pixel valid, but a smoothing window wider than the
        # frame leaves no pixel with a steepness score
        tiny = DepthFrame(np.full((3, 3), 4.0), np.ones((3, 3), bool),
                          CameraIntrinsics(fx=50.0, fy=50.0, cx=1.0, cy=1.0,
                                           width=3, height=3),
                          camera_pose((0, 0, 4.0)), frame_id=2)
        wide = dataclasses.replace(get_profile("sim"), smoothing_window_px=5)
        caplog.clear()
        with caplog.at_level("WARNING", logger="landsite.pipeline"):
            result = run_pipeline(wide, [tiny])
        assert result.frames_empty == 1 and result.frames_failed == 0
        assert ("frame 2 has no pixel valid in every costmap "
                "(9 valid depth pixels)") in caplog.text
        assert result.frames[0].n_candidates == 0

    def test_stage_timings_recorded(self):
        frames = [render_canonical("FLAT_PAD", frame_id=i, camera_xy=(0.3 * i, 0))
                  for i in range(2)]
        result = run_pipeline(get_profile("sim"), frames)
        for fr in result.frames:
            assert set(fr.stage_ms) == {"depth_accuracy", "flatness",
                                        "steepness", "energy", "final",
                                        "dense_detection"}
            assert all(ms >= 0 for ms in fr.stage_ms.values())
        assert result.cluster_ms >= 0

    def test_all_outputs_written(self, tmp_path):
        frame = render_canonical("FLAT_PAD")
        result = run_pipeline(get_profile("sim"), [frame],
                              candidates_path=tmp_path / "candidates.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["candidates.jsonl"]
        write_outputs(tmp_path, result)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["candidates.jsonl", "clusters.json", "sites.json"]
        lines = (tmp_path / "candidates.jsonl").read_text().splitlines()
        assert len(lines) == result.frames[0].n_candidates > 0
        sites = json.loads((tmp_path / "sites.json").read_text())
        assert len(sites["sites"]) == len(result.registry)
        clusters = json.loads((tmp_path / "clusters.json").read_text())
        keys = set(clusters["clusters"][0])
        assert keys == {"cx", "cy", "cz", "mean_score", "members"}
        assert set(json.loads(lines[0])) == {"frame_id", "px", "py",
                                             "depth_m", "score",
                                             "flat_radius_px"}

    def test_memory_does_not_grow_with_frames(self, tmp_path):
        # A flat 72x112 frame: 2,960 candidates, five 8-byte columns each.
        # Replayed, it adds no site after the first time, so only what the
        # run keeps of each frame could raise the peak.
        config = get_profile("sim")
        depth = np.full((72, 112), 4.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool),
                           CameraIntrinsics(fx=50.0, fy=50.0, cx=55.5,
                                            cy=35.5, width=112, height=72),
                           camera_pose((0.0, 0.0, 4.0)))
        cands, _ = detect_frame(config, frame, evaluate_costmaps(config, frame),
                                SiteRegistry(config.dedup_radius_m))
        nbytes = sum(getattr(cands, f.name).nbytes
                     for f in dataclasses.fields(cands))
        assert nbytes >= 100_000
        path = tmp_path / "candidates.jsonl"

        def peak(n_frames):
            tracemalloc.start()
            try:
                result = run_pipeline(config, itertools.repeat(frame, n_frames),
                                      candidates_path=path)
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result.frames) == n_frames
            with open(path, "rb") as f:
                assert sum(1 for _ in f) == n_frames * len(cands)
            return peak_bytes

        ten, forty = peak(10), peak(40)
        assert forty - ten <= nbytes, (ten, forty, nbytes)


@st.composite
def posed_frames(draw):
    """One to three small random frames (steps for Canny, holes), each
    with a tilted camera pose at its own position."""
    angle = st.floats(-math.pi, math.pi)
    frames = []
    for i in range(draw(st.integers(1, 3))):
        h, w = draw(st.integers(1, 24)), draw(st.integers(1, 32))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        depth = rng.uniform(2.0, 6.0, (h, w))
        depth[rng.random((h, w)) < 0.2] += 1.5
        depth[rng.random((h, w)) < 0.25] = 0.0
        position = draw(st.tuples(*[st.floats(-100.0, 100.0)] * 3))
        pose = camera_pose(position, draw(angle), draw(angle), draw(angle))
        frame = tiny_frame(depth)
        frames.append(dataclasses.replace(frame, pose_world_from_camera=pose,
                                          frame_id=i))
    return frames


@settings(max_examples=60, deadline=None)
@given(frames=posed_frames(), yaw=st.floats(-10.0, 10.0),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
def test_heading_and_position_change_no_map_and_no_candidate(tmp_path_factory,
                                                             frames, yaw,
                                                             shift):
    """Turning every pose about the world z axis and shifting it leaves
    every map bit (the normals' world x and y aside) and every
    ``candidates.jsonl`` byte as it was: where to land does not depend on
    where the UAV is or which way it faces."""
    config = get_profile("sim")
    turned = [dataclasses.replace(f, pose_world_from_camera=Pose(
        rotation_z(yaw) @ f.pose_world_from_camera.rotation,
        f.pose_world_from_camera.translation + shift)) for f in frames]
    for frame, other in zip(frames, turned):
        maps = evaluate_costmaps(config, frame)
        got = evaluate_costmaps(config, other)
        for name in (f.name for f in dataclasses.fields(maps)):
            if name not in ("normals", "stage_ms"):
                want, have = getattr(maps, name), getattr(got, name)
                for f in dataclasses.fields(want):
                    assert getattr(have, f.name).tobytes() == \
                        getattr(want, f.name).tobytes(), (name, f.name)
        assert got.normals.valid.tobytes() == maps.normals.valid.tobytes()
        assert got.normals.normals[..., 2].tobytes() == \
            maps.normals.normals[..., 2].tobytes()
    out = tmp_path_factory.mktemp("turned")
    run_pipeline(config, frames, candidates_path=out / "a.jsonl")
    run_pipeline(config, turned, candidates_path=out / "b.jsonl")
    assert (out / "a.jsonl").read_bytes() == (out / "b.jsonl").read_bytes()


def _read_candidates(path) -> Candidates:
    """The columns of a ``candidates.jsonl``, its frames run together."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return _candidates(*([row[key] for row in rows] for key in
                         ("px", "py", "depth_m", "score", "flat_radius_px")))


def _candidates(xs, ys, depth, score, flat_radius_px):
    return Candidates(xs=np.array(xs, dtype=np.intp),
                      ys=np.array(ys, dtype=np.intp),
                      depth=np.array(depth, dtype=np.float64),
                      score=np.array(score, dtype=np.float64),
                      flat_radius_px=np.array(flat_radius_px, dtype=np.float64))


class TestWriteCandidates:
    """``write_candidates_jsonl`` against one ``json.dumps`` call per row."""

    def _assert_matches_oracle(self, path, frame_results):
        write_candidates_jsonl(path, frame_results)
        expect = json_dumps_candidates_jsonl(frame_results).encode("utf-8")
        assert path.read_bytes() == expect

    def test_awkward_floats_empty_and_several_frames(self, tmp_path):
        awkward = [0.1, 1e-05, 1e16, 5e-324, 57.0, 4.800000190734863]
        frames = [
            _candidates(range(6), [0, 0, 1, 1, 2, 479], awkward,
                        awkward[::-1], awkward[2:] + awkward[:2]),
            _candidates([], [], [], [], []),
            _candidates([639, 5], [0, 7], [19.999999, 0.05], [1.0, 0.72],
                        [1e-300, 123456789.5]),
        ]
        results = [(c, FrameResult(frame_id, len(c), inserted))
                   for c, frame_id, inserted in zip(frames, (0, 3, 12),
                                                    (1, 0, 2))]
        self._assert_matches_oracle(tmp_path / "candidates.jsonl", results)

    def test_no_frames(self, tmp_path):
        self._assert_matches_oracle(tmp_path / "candidates.jsonl", [])

    def test_rubble_frames(self, tmp_path):
        config = get_profile("sim")
        frames = [render_canonical("RUBBLE", frame_id=i, camera_xy=(0.4 * i, 0))
                  for i in range(2)]
        registry = SiteRegistry(config.dedup_radius_m)
        results = [detect_frame(config, frame, evaluate_costmaps(config, frame),
                                registry) for frame in frames]
        assert sum(len(c) for c, _ in results) > 0
        path = tmp_path / "candidates.jsonl"
        run_pipeline(config, frames, candidates_path=path)
        assert path.read_bytes() == \
            json_dumps_candidates_jsonl(results).encode("utf-8")

    def test_error_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        path.write_bytes(b"earlier run\n")
        first = (_candidates([1], [2], [3.0], [0.9], [4.0]),
                 FrameResult(0, 1, 1))

        def failing_second_frame():
            yield first
            raise OSError("frame 1 unreadable")

        with pytest.raises(OSError, match="frame 1 unreadable"):
            write_candidates_jsonl(path, failing_second_frame())
        assert path.read_bytes() == b"earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["candidates.jsonl"]
        write_candidates_jsonl(path, iter([first]))
        assert path.read_bytes() == \
            json_dumps_candidates_jsonl([first]).encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["candidates.jsonl"]


@pytest.fixture(scope="module")
def report():
    frames = [render_canonical("RUBBLE", frame_id=i, seed=7 + i)
              for i in range(2)]
    return bench(get_profile("sim"), frames, repetitions=2)


def assert_timing_document(obj, n_frames, repetitions):
    """The ``timing.json`` keys, their order and nesting."""
    assert list(obj) == ["n_frames", "repetitions", "stages", "total"]
    assert (obj["n_frames"], obj["repetitions"]) == (n_frames, repetitions)
    assert list(obj["stages"]) == list(STAGES)
    for stat in (*obj["stages"].values(), obj["total"]):
        assert list(stat) == ["mean_ms", "std_ms"]
        assert all(isinstance(v, float) and v >= 0 for v in stat.values())


class TestBench:

    def test_all_stage_rows_present(self, report):
        assert list(report["stages"]) == list(STAGES)

    def test_total_bounds(self, report):
        means = [s["mean_ms"] for s in report["stages"].values()]
        assert report["total"]["mean_ms"] >= max(means)
        assert report["total"]["mean_ms"] == pytest.approx(sum(means), rel=1e-9)

    def test_table_mirrors_stage_rows(self, report):
        table = timing_table(report)
        for label in ("Depth Accuracy", "Flatness", "Steepness", "Energy",
                      "Final", "Dense Detection", "Clustering", "Total Time"):
            assert label in table

    def test_json_shape(self, report, tmp_path):
        write_json(tmp_path / "timing.json", report)
        obj = json.loads((tmp_path / "timing.json").read_text())
        assert obj == report
        assert_timing_document(obj, n_frames=2, repetitions=2)
        assert obj["total"]["mean_ms"] > 0

    def test_table_text_is_pinned(self):
        # Hand-built numbers: rounding at .x5, a four- and five-digit mean,
        # and a std that fills its field. The expected text is what the
        # former ``TimingReport.to_table()`` printed for them.
        stats = [(12.345, 0.5), (63.25, 4.75), (40.0, 1.05), (3.375, 0.125),
                 (9.95, 0.0), (1234.56, 12.345), (0.04, 0.001)]
        report = {"n_frames": 5, "repetitions": 3,
                  "stages": {name: {"mean_ms": m, "std_ms": s}
                             for name, (m, s) in zip(STAGES, stats)},
                  "total": {"mean_ms": 12345.678, "std_ms": 123.45}}
        assert timing_table(report) == "\n".join((
            "Algorithm           Time (mean ± std) ms",
            "----------------------------------------",
            "Costmap Evaluation  ",
            "  Depth Accuracy        12.3 ±   0.5",
            "  Flatness              63.2 ±   4.8",
            "  Steepness             40.0 ±   1.1",
            "  Energy                 3.4 ±   0.1",
            "  Final                  9.9 ±   0.0",
            "Dense Detection       1234.6 ±  12.3",
            "Clustering               0.0 ±   0.0",
            "Total Time           12345.7 ± 123.5"))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bench(get_profile("sim"), [], repetitions=1)
        frame = render_canonical("STEEP_WALL")
        with pytest.raises(ValueError):
            bench(get_profile("sim"), [frame], repetitions=0)


class TestBenchRunsPipeline:
    """``bench`` drives ``run_pipeline``, so it handles frames like ``detect``."""

    def test_empty_frame_warned_like_detect(self, caplog):
        frame = render_canonical("FLAT_PAD")
        empty = DepthFrame(np.zeros(frame.shape), np.zeros(frame.shape, bool),
                           frame.intrinsics, frame.pose_world_from_camera,
                           frame_id=1)
        with caplog.at_level("WARNING", logger="landsite.pipeline"):
            report = bench(get_profile("sim"), [frame, empty])
        assert ("frame 1 has no pixel valid in every costmap "
                "(0 valid depth pixels)") in caplog.text
        assert report["n_frames"] == 2
        means = [s["mean_ms"] for s in report["stages"].values()]
        assert report["total"]["mean_ms"] == pytest.approx(sum(means), rel=1e-9)

    def test_failed_frames_skipped_and_all_failed_rejected(self, monkeypatch,
                                                            caplog):
        frames = [render_canonical("FLAT_PAD", frame_id=i) for i in range(2)]
        evaluate = pipeline.evaluate_costmaps
        assert evaluate is cm.evaluate_costmaps  # perfbench patches it here

        def fail_frame_1(config, frame):
            if frame.frame_id == 1:
                raise ValueError("injected")
            return evaluate(config, frame)

        monkeypatch.setattr(pipeline, "evaluate_costmaps", fail_frame_1)
        with caplog.at_level("WARNING", logger="landsite.pipeline"):
            report = bench(get_profile("sim"), frames, repetitions=2)
        assert "frame 1 failed: injected" in caplog.text
        assert all(np.isfinite(s["mean_ms"]) for s in report["stages"].values())
        with pytest.raises(ValueError, match="every frame failed"):
            bench(get_profile("sim"), frames[1:], repetitions=2)


def oracle_decision(depth_conf, flat, steep, energy, config) -> cm.Costmap:
    """The fusion oracle's ``(values, valid)`` as a ``Costmap``."""
    return cm.Costmap(*formula_decision_map(depth_conf, flat, steep, energy,
                                            config))


def serial_costmaps(config, frame) -> dict:
    """The costmap stages one after another on this thread, in the order
    of their fields, then the fusion oracle: ``decision_map`` itself
    always splits its rows over two threads."""
    depth_conf_raw = cm.depth_confidence_map(frame)
    edges = cm.canny_edges(frame, config.canny_low_m, config.canny_high_m)
    flat_raw = cm.distance_transform(edges, frame.valid)
    normals = cm.surface_normals(frame, config.smoothing_window_px)
    steep = cm.steepness_map(normals, math.radians(config.slope_tolerance_deg))
    energy_raw = cm.energy_map(frame)
    depth_conf = cm.minmax_normalize(depth_conf_raw, cm.HIGHER_IS_BETTER)
    flat = cm.minmax_normalize(flat_raw, cm.HIGHER_IS_BETTER)
    energy = cm.minmax_normalize(energy_raw, cm.LOWER_IS_BETTER)
    return dict(depth_confidence_raw=depth_conf_raw, edges=edges,
                flatness_raw=flat_raw, normals=normals, steepness=steep,
                energy_raw=energy_raw, depth_confidence=depth_conf,
                flatness=flat, energy=energy,
                decision=oracle_decision(depth_conf, flat, steep, energy,
                                         config))


def assert_maps_bitwise_equal(maps, expected: dict) -> None:
    assert {f.name for f in dataclasses.fields(maps)} == {*expected, "stage_ms"}
    for name, want in expected.items():
        got = getattr(maps, name)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and a.shape == b.shape, (name, f.name)
            assert a.tobytes() == b.tobytes(), (name, f.name)


def tiny_frame(depth) -> DepthFrame:
    h, w = depth.shape
    intr = CameraIntrinsics(fx=20.0, fy=20.0, cx=w / 2, cy=h / 2,
                            width=w, height=h)
    return DepthFrame(depth, depth > 0, intr, camera_pose((0.0, 0.0, 5.0)))


# The stage functions evaluate_costmaps calls, by the thread that runs them.
DEPTH_STAGES = ("depth_confidence_map", "canny_edges", "distance_transform",
                "energy_map", "minmax_normalize")
WORKER_STAGES = ("surface_normals", "steepness_map")


class TestConcurrentCostmaps:
    """``evaluate_costmaps`` runs its two branches on two threads."""

    def test_only_the_fusion_runs_after_the_join(self, monkeypatch):
        calls = []  # (stage, thread id, start, end), in order of return

        def recorded(name, stage):
            def run(*args):
                start = time.perf_counter()
                out = stage(*args)
                calls.append((name, threading.get_ident(), start,
                              time.perf_counter()))
                return out
            return run

        for name in DEPTH_STAGES + WORKER_STAGES + ("decision_map",):
            monkeypatch.setattr(cm, name, recorded(name, getattr(cm, name)))
        evaluate_costmaps(get_profile("sim"), render_canonical("FLAT_PAD"))

        caller = threading.get_ident()
        worker = next(tid for name, tid, *_ in calls
                      if name == "surface_normals")
        assert worker != caller
        threads = {}
        for name, tid, *_ in calls:
            threads.setdefault(name, []).append(tid)
        assert threads == {**{name: [caller] for name in DEPTH_STAGES},
                           "minmax_normalize": [caller] * 3,
                           **{name: [worker] for name in WORKER_STAGES},
                           "decision_map": [caller]}
        # decision_map starts only after every stage of both branches ended
        *branches, fusion = sorted(calls, key=lambda call: call[2])
        assert fusion[0] == "decision_map"
        assert fusion[2] >= max(end for *_, end in branches)

    @pytest.mark.parametrize("name", sorted(ss.canonical_scenes()))
    def test_canonical_maps_equal_serial_stages(self, name):
        config = get_profile("sim")
        frame = render_canonical(name)
        assert_maps_bitwise_equal(evaluate_costmaps(config, frame),
                                  serial_costmaps(config, frame))

    def test_random_frames_with_holes_equal_serial_stages(self):
        config = get_profile("sim")
        rng = np.random.default_rng(16)
        for _ in range(25):
            h, w = rng.integers(1, 30, size=2)
            depth = rng.uniform(2.0, 6.0, (h, w))
            depth[rng.random((h, w)) < 0.2] += 1.5  # steps for Canny
            depth[rng.random((h, w)) < 0.25] = 0.0  # holes
            frame = tiny_frame(depth)
            assert_maps_bitwise_equal(evaluate_costmaps(config, frame),
                                      serial_costmaps(config, frame))

    def test_caller_errstate_reaches_the_worker(self):
        # At 1e100 m the squares of the depth branch stay finite, but the
        # unit normals square the tangents' cross product, about 1e198:
        # only the worker's branch overflows.
        config = get_profile("sim")
        frame = tiny_frame(np.full((6, 8), 1e100))
        with np.errstate(all="raise"):
            cm._depth_branch(config, frame)
            with pytest.raises(FloatingPointError) as caught:
                evaluate_costmaps(config, frame)
        assert "surface_normals" in {e.name for e in caught.traceback}

    @pytest.mark.parametrize("worker_delay_s", [0.0, 0.05])
    def test_worker_error_wins(self, monkeypatch, worker_delay_s):
        # Canny is the depth branch's second stage and energy its last;
        # either fails before the normals in the serial order the branches
        # mirror, so the depth branch's error wins, whichever branch fails
        # first.
        def normals_fail(*args):
            time.sleep(worker_delay_s)
            raise FloatingPointError("normals branch")

        for depth_stage in ("canny_edges", "energy_map"):
            def depth_fails(*args, stage=depth_stage):
                time.sleep(0.05 - worker_delay_s)
                raise ValueError(f"{stage} in the depth branch")

            with monkeypatch.context() as patch:
                patch.setattr(cm, depth_stage, depth_fails)
                patch.setattr(cm, "surface_normals", normals_fail)
                with pytest.raises(ValueError,
                                   match=f"{depth_stage} in the depth"):
                    evaluate_costmaps(get_profile("sim"),
                                      render_canonical("FLAT_PAD"))

    def test_no_thread_outlives_the_call(self, monkeypatch):
        # Both branches end before the call returns or raises, and the
        # worker is one thread for the process: after the call that starts
        # it, no call, successful or failing, adds or ends a thread.
        config = get_profile("sim")
        frame = render_canonical("FLAT_PAD")
        evaluate_costmaps(config, frame)
        before = threading.active_count()
        finished, workers = [], set()
        surface_normals = cm.surface_normals

        def slow_canny(*args):
            time.sleep(0.05)
            finished.append(True)
            return cm.BinaryMap(np.zeros(frame.shape, np.uint8))

        def normals_fail(*args):
            workers.add(threading.get_ident())
            raise FloatingPointError("normals branch")

        # The mirror case: the depth branch fails at once while the
        # worker's normals are still running.
        def slow_normals(*args):
            workers.add(threading.get_ident())
            time.sleep(0.05)
            finished.append(True)
            raise FloatingPointError("normals branch")

        def canny_fails(*args):
            raise ValueError("depth branch")

        def normals(*args):
            workers.add(threading.get_ident())
            return surface_normals(*args)

        for rep in range(1, 3):
            with monkeypatch.context() as patch:
                patch.setattr(cm, "surface_normals", normals)
                for _ in range(3):
                    evaluate_costmaps(config, frame)
                    assert threading.active_count() == before
            with monkeypatch.context() as patch:
                patch.setattr(cm, "canny_edges", slow_canny)
                patch.setattr(cm, "surface_normals", normals_fail)
                with pytest.raises(FloatingPointError, match="normals branch"):
                    evaluate_costmaps(config, frame)
            assert finished == [True] * (2 * rep - 1)
            assert threading.active_count() == before
            with monkeypatch.context() as patch:
                patch.setattr(cm, "canny_edges", canny_fails)
                patch.setattr(cm, "surface_normals", slow_normals)
                with pytest.raises(ValueError, match="depth branch"):
                    evaluate_costmaps(config, frame)
            assert finished == [True] * (2 * rep)
            assert threading.active_count() == before
        assert len(workers) == 1 and threading.get_ident() not in workers

    # A serial run of both branches on one thread gives these bits
    # whatever the threads' interleaving: under a switch interval of 1 us,
    # with the worker's tasks starting late, and with two callers sharing
    # the worker.

    def test_tiny_switch_interval_keeps_the_serial_bits(self):
        config = get_profile("sim")
        frames = [render_canonical("RUBBLE")]
        rng = np.random.default_rng(31)
        for _ in range(4):
            depth = rng.uniform(2.0, 6.0, (24, 32))
            depth[rng.random((24, 32)) < 0.2] += 1.5
            depth[rng.random((24, 32)) < 0.25] = 0.0
            frames.append(tiny_frame(depth))
        expected = [serial_costmaps(config, frame) for frame in frames]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            maps = [evaluate_costmaps(config, frame) for frame in frames]
        finally:
            sys.setswitchinterval(interval)
        assert sys.getswitchinterval() == interval
        for got, want in zip(maps, expected):
            assert_maps_bitwise_equal(got, want)

    def test_late_worker_keeps_the_serial_bits(self, monkeypatch):
        config = get_profile("sim")
        frame = render_canonical("RUBBLE")
        expected = serial_costmaps(config, frame)
        caller = threading.get_ident()
        normals_branch, fuse_rows = cm._normals_branch, cm._fuse_rows
        delayed = []

        def late_branch(*args):
            time.sleep(0.05)
            delayed.append("branch")
            return normals_branch(*args)

        def late_half(*args):
            if threading.get_ident() != caller:
                time.sleep(0.05)
                delayed.append("half")
            fuse_rows(*args)

        monkeypatch.setattr(cm, "_normals_branch", late_branch)
        monkeypatch.setattr(cm, "_fuse_rows", late_half)
        assert_maps_bitwise_equal(evaluate_costmaps(config, frame), expected)
        assert delayed == ["branch", "half"]

    def test_two_callers_share_the_worker(self):
        config = get_profile("sim")
        frames = [render_canonical("RUBBLE"),
                  render_canonical("TREE", frame_id=1)]
        expected = [serial_costmaps(config, frame) for frame in frames]
        start = threading.Barrier(len(frames))
        results = [[] for _ in frames]
        errors = []

        def caller(i):
            try:
                start.wait()
                for _ in range(3):
                    results[i].append(evaluate_costmaps(config, frames[i]))
            except BaseException as exc:  # re-raised on the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(frames))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for got, want in zip(results, expected):
            assert len(got) == 3
            for maps in got:
                assert_maps_bitwise_equal(maps, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_worker():
    """A child forked after the worker started runs the costmaps on a
    worker of its own. The parent's worker thread is not copied by the
    fork: a task queued on it in the child would wait forever, so an
    alarm ends the child after 10 s."""
    config = get_profile("sim")
    frame = render_canonical("FLAT_PAD")
    want = evaluate_costmaps(config, frame).decision  # the worker is running
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork while another thread runs.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: exit at once, never back into pytest
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(10)
            got = evaluate_costmaps(config, frame).decision
            same = (got.values.tobytes() == want.values.tobytes()
                    and got.valid.tobytes() == want.valid.tobytes())
            code = 0 if same else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    # -14 (SIGALRM) if the child waited on the parent's worker
    assert os.waitstatus_to_exitcode(status) == 0


def test_steady_state_costmaps_take_few_page_faults():
    """A steady-state 640x480 rubble frame's costmaps reuse the memory of
    the frame before, taking no minor page faults (0 a frame measured).
    What a frame's short-lived full-frame arrays cost can depend on the
    thread that allocates them; the costmaps module docstring says which
    one does."""
    resource = pytest.importorskip("resource")
    config = get_profile("sim")
    scene = dataclasses.replace(ss.canonical_scenes()["RUBBLE"],
                                noise_sigma=0.002)
    frames = [ss.render_depth(dataclasses.replace(scene, seed=i),
                              ss.default_intrinsics(),
                              ss.canonical_camera("RUBBLE", (0.5 * i, 0.0)),
                              frame_id=i)[0] for i in range(5)]
    for frame in frames[:3]:
        evaluate_costmaps(config, frame)
    faults = []
    for frame in frames:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate_costmaps(config, frame)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert sorted(faults)[2] <= 100, faults


def recorded_halves(monkeypatch, halves: list, caller_fails=None):
    """Patch ``cm._fuse_rows`` to append ``(thread id, lo, hi, np.geterr())``
    for each half it fuses. With ``caller_fails`` set, the half on the
    calling thread (True) or on the worker (False) raises at once and the
    other one waits 0.05 s before it fuses."""
    fuse_rows = cm._fuse_rows
    caller = threading.get_ident()

    def half(maps, config, fused, ok, lo, hi):
        if caller_fails is not None:
            if (threading.get_ident() == caller) == caller_fails:
                raise FloatingPointError(f"half [{lo}, {hi})")
            time.sleep(0.05)
        fuse_rows(maps, config, fused, ok, lo, hi)
        halves.append((threading.get_ident(), lo, hi, np.geterr()))

    monkeypatch.setattr(cm, "_fuse_rows", half)


class TestSplitFusion:
    """After the join, the calling thread fuses rows [0, H/2) and the worker
    rows [H/2, H), into one output: the same bytes as the fusion oracle
    over the same maps."""

    @pytest.mark.parametrize("h", [1, 2, 3, 7, 480])
    def test_split_decision_equals_serial_fusion(self, monkeypatch, h):
        config = get_profile("sim")
        rng = np.random.default_rng(h)
        w = 640 if h == 480 else 9
        full = rng.uniform(2.0, 6.0, (h, w))
        full[rng.random((h, w)) < 0.2] += 1.5  # steps for Canny
        holes = full.copy()
        holes[rng.random((h, w)) < 0.25] = 0.0
        caller = threading.get_ident()
        for depth in (full, holes, np.zeros((h, w))):
            halves = []
            with monkeypatch.context() as patch:
                recorded_halves(patch, halves)
                maps = evaluate_costmaps(config, tiny_frame(depth))
            serial = oracle_decision(maps.depth_confidence, maps.flatness,
                                     maps.steepness, maps.energy, config)
            assert maps.decision.values.tobytes() == serial.values.tobytes()
            assert maps.decision.valid.tobytes() == serial.valid.tobytes()
            on_caller = sorted((lo, hi, tid == caller)
                               for tid, lo, hi, _ in halves)
            assert on_caller == [(0, h // 2, True), (h // 2, h, False)]
        assert not maps.decision.valid.any()  # the frame with no valid depth

    def test_depth_error_wins_and_no_half_runs(self, monkeypatch):
        def canny_fails(*args):
            raise ValueError("depth branch")

        def normals_fail(*args):
            raise FloatingPointError("normals branch")

        halves = []
        recorded_halves(monkeypatch, halves)
        monkeypatch.setattr(cm, "canny_edges", canny_fails)
        monkeypatch.setattr(cm, "surface_normals", normals_fail)
        with pytest.raises(ValueError, match="depth branch"):
            evaluate_costmaps(get_profile("sim"), render_canonical("FLAT_PAD"))
        assert halves == []

    @pytest.mark.parametrize("caller_fails", [True, False])
    def test_half_error_raises_after_both_halves(self, monkeypatch,
                                                 caller_fails):
        config = get_profile("sim")
        frame = render_canonical("FLAT_PAD")
        maps = evaluate_costmaps(config, frame)
        before = threading.active_count()
        halves = []
        recorded_halves(monkeypatch, halves, caller_fails)
        (lo, hi), other = [((0, 240), (240, 480)),
                           ((240, 480), (0, 240))][not caller_fails]
        match = re.escape(f"half [{lo}, {hi})")
        with pytest.raises(FloatingPointError, match=match):
            evaluate_costmaps(config, frame)
        # The other half ran to its end before the error left the call.
        assert [(lo, hi) for _, lo, hi, _ in halves] == [other]
        assert threading.active_count() == before
        # decision_map itself waits for it.
        halves.clear()
        with pytest.raises(FloatingPointError, match=match):
            cm.decision_map(maps.depth_confidence, maps.flatness,
                            maps.steepness, maps.energy, config)
        assert [(lo, hi) for _, lo, hi, _ in halves] == [other]
        assert threading.active_count() == before

    def test_caller_errstate_reaches_the_worker_half(self, monkeypatch):
        halves = []
        recorded_halves(monkeypatch, halves)
        with np.errstate(all="raise"):
            evaluate_costmaps(get_profile("sim"), render_canonical("FLAT_PAD"))
        assert len({tid for tid, *_ in halves}) == 2
        for *_, err in halves:
            assert set(err.values()) == {"raise"}, err


def test_outside_timing_harness_calls():
    """The exact calls the out-of-package benchmark makes keep working."""
    config = get_profile("sim")
    frame = render_canonical("FLAT_PAD")
    maps = evaluate_costmaps(config, frame)
    reg = SiteRegistry(config.dedup_radius_m)
    cands, result = detect_frame(config, frame, maps, reg)
    assert result.inserted == len(reg) > 0
    assert result.n_candidates == len(cands) >= result.inserted
    pos = reg.positions() + [0.0, 0.0, 0.01]
    scores = np.full(len(pos), 0.9)
    flags = reg.insert_positions(pos, scores, 1, 0.05)
    assert len(flags) == len(pos) and not any(flags)
    q = pos[0]
    assert np.array_equal(reg.nearest(q)[0].position, reg.positions()[0])
    clusters = cluster_sites(reg, config.cluster_dist_m, config.cluster_z_m,
                             config.cluster_metric)
    assert clusters.members.sum() == len(reg)
    records = [c.to_json_obj() for c in clusters]
    assert len(records) == len(clusters) > 0


# Arbitrary JSON values for the snapshot fuzz test: huge and non-finite
# numbers, strings, null, bools and nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=5)
    | st.integers(-10**400, 10**400) | st.floats()
    | st.sampled_from([1e308, -1e308, 10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

VALID_SITE = {"x": 0.0, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
              "timestamp": 0.0}

# JSON text nested deeper than any parser recursion limit.
DEEP = "[" * 100_000

# Raw JSON text put in place of one field: (file, field, text).
STREAM_DAMAGE = {
    "nan_t_sec": ("frames.jsonl", "t_sec", "NaN"),
    "repeated_frame_id": ("frames.jsonl", "frame_id", "0"),
    "frame_id_1e999": ("frames.jsonl", "frame_id", "1e999"),
    "pose_line_deep_nesting": ("frames.jsonl", "qw", DEEP),
    "intrinsics_width_1e999": ("intrinsics.json", "width", "1e999"),
    "intrinsics_fx_1e999": ("intrinsics.json", "fx", "1e999"),
    "intrinsics_deep_nesting": ("intrinsics.json", "fx", DEEP),
    "frame_id_string": ("frames.jsonl", "frame_id", '"1"'),
    "t_sec_bool": ("frames.jsonl", "t_sec", "true"),
    "pose_tx_string": ("frames.jsonl", "tx", '"0.5"'),
    "intrinsics_width_float": ("intrinsics.json", "width", "640.9"),
    "intrinsics_fx_bool": ("intrinsics.json", "fx", "true"),
    "intrinsics_fx_1e-310": ("intrinsics.json", "fx", "1e-310"),
    "intrinsics_fy_0.5": ("intrinsics.json", "fy", "0.5"),
}

# Two sites that link into one cluster whose centroid x (or mean score)
# overflows float range.
OVERFLOW_X_SITES = json.dumps([dict(VALID_SITE, x=1.7e308)] * 2)
OVERFLOW_SCORE_SITES = json.dumps([dict(VALID_SITE, score=1.7e308)] * 2)
# Sixteen sites 0.25 m apart, one cluster, whose scores alternate sign at
# the float limit: numpy's pairwise sum adds inf to -inf, a NaN mean.
NAN_SCORE_SITES = json.dumps([dict(VALID_SITE, x=0.25 * k,
                                   score=1.7e308 * (-1) ** k)
                              for k in range(16)])

# Two sites whose y difference, squared, overflows float range: they do
# not link, and clustering them must not overflow either.
FAR_APART_SITES = [dict(VALID_SITE, x=3.0, y=1.7e308, z=2.0),
                   dict(VALID_SITE, x=0.1)]

# Raw JSON text put in place of one field of a scene or config file.
USER_FILE_DAMAGE = {
    "scene_seed_1e999": ("seed", "1e999"),
    "scene_deep_nesting": ("primitives", DEEP),
    "scene_seed_float": ("seed", "1.5"),
    "scene_seed_bool": ("seed", "true"),
    "scene_noise_string": ("noise_sigma_m", '"0.01"'),
    "scene_z_string": ("primitives", '[{"type": "ground_plane", "z_m": "0"}]'),
    "scene_radius_string": ("primitives", '[{"type": "ground_plane", "z_m": 0},'
                            ' {"type": "sphere", "center_m": [0, 0, 0],'
                            ' "radius_m": "0.5"}]'),
    "scene_safe_int": ("primitives",
                       '[{"type": "ground_plane", "z_m": 0, "safe": 1}]'),
    "scene_center_string_bool": (
        "primitives", '[{"type": "ground_plane", "z_m": 0},'
        ' {"type": "sphere", "center_m": ["0", true, "0"], "radius_m": 0.5}]'),
    "scene_normal_nested": (
        "primitives", '[{"type": "tilted_plane", "point_m": [0, 0, 0],'
        ' "normal": [[0], [0], [1]]}]'),
    "scene_rotation_bool": (
        "primitives", '[{"type": "ground_plane", "z_m": 0},'
        ' {"type": "box", "center_m": [0, 0, 0.5],'
        ' "half_extents_m": [0.5, 0.5, 0.5],'
        ' "rotation": [[true, 0, 0], [0, 1, 0], [0, 0, 1]]}]'),
    "scene_rotation_scaled": (
        "primitives", '[{"type": "ground_plane", "z_m": 0},'
        ' {"type": "box", "center_m": [0, 0, 0.5],'
        ' "half_extents_m": [0.5, 0.5, 0.5],'
        ' "rotation": [[0.5, 0, 0], [0, 1, 0], [0, 0, 1]]}]'),
    "scene_rotation_zero": (
        "primitives", '[{"type": "ground_plane", "z_m": 0},'
        ' {"type": "box", "center_m": [0, 0, 0.5],'
        ' "half_extents_m": [0.5, 0.5, 0.5],'
        ' "rotation": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}]'),
    "scene_rotation_reflection": (
        "primitives", '[{"type": "ground_plane", "z_m": 0},'
        ' {"type": "box", "center_m": [0, 0, 0.5],'
        ' "half_extents_m": [0.5, 0.5, 0.5],'
        ' "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}]'),
    "config_radius_inf": ("dedup_radius_m", "Infinity"),
    "config_deep_nesting": ("d_max_m", DEEP),
}

# Whole config files that are not a JSON object of fields.
CONFIG_FILE_BYTES = {
    "config_42": b"42",
    "config_null": b"null",
    "config_non_utf8": b'{"profile": "\xff"}',
}


# A valid scene file with one primitive of each kind, for the fuzz test.
FUZZ_SCENE = {
    "primitives": [
        {"type": "ground_plane", "z_m": 0.0, "safe": False},
        {"type": "tilted_plane", "point_m": [0.0, 0.0, -0.5],
         "normal": [0.1, 0.0, 1.0], "safe": False},
        {"type": "box", "center_m": [0.5, 0.2, 0.4],
         "half_extents_m": [0.6, 0.4, 0.3],
         "rotation": (rotation_z(0.3) @ rotation_x(0.4)).tolist(),
         "safe": True},
        {"type": "sphere", "center_m": [-0.8, 0.5, 0.6], "radius_m": 0.5,
         "safe": False},
    ],
    "noise_sigma_m": 0.002,
    "seed": 3,
}

# Numbers a damaged file may hold in place of a vector element.
EXTREME_NUMBERS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e200, -1e200, 1e300, 1.7e308, -1.7e308, 10**400])


@st.composite
def damaged_scenes(draw):
    """``FUZZ_SCENE`` with one to three fields damaged: a value replaced by
    arbitrary JSON, a key deleted, one vector element made extreme, or a
    box rotation replaced by an arbitrary 3x3 matrix."""
    scene = copy.deepcopy(FUZZ_SCENE)
    for _ in range(draw(st.integers(1, 3))):
        prims = scene.get("primitives")
        records = [scene] + [p for p in prims if isinstance(p, dict)] \
            if isinstance(prims, list) else [scene]
        rec = records[draw(st.integers(0, len(records) - 1))]
        if not rec:
            continue
        key = draw(st.sampled_from(sorted(rec)))
        damage = draw(st.sampled_from(["value", "missing", "element",
                                       "rotation"]))
        if damage == "missing":
            del rec[key]
        elif damage == "element" and isinstance(rec[key], list) and rec[key]:
            rec[key][draw(st.integers(0, len(rec[key]) - 1))] = \
                draw(EXTREME_NUMBERS)
        elif damage == "rotation" and rec.get("type") == "box":
            row = st.lists(EXTREME_NUMBERS | st.sampled_from([0, 1, -1]),
                           min_size=3, max_size=3)
            rec["rotation"] = draw(st.lists(row, min_size=3, max_size=3))
        else:
            rec[key] = draw(JSON_VALUES)
    return scene


def with_box(**fields) -> dict:
    """``FUZZ_SCENE`` with its box's fields replaced by ``fields``."""
    scene = copy.deepcopy(FUZZ_SCENE)
    scene["primitives"][2].update(fields)
    return scene


# A ground plane and a sphere 1e200 m across whose quadratic overflows.
HUGE_SPHERE_SCENE = {"primitives": [
    {"type": "ground_plane", "z_m": 0},
    {"type": "sphere", "center_m": [0, 0, -1e200], "radius_m": 1e200}]}

# A plane and a rotated box whose offsets from the camera overflow.
FLOAT_LIMIT_PLANE_SCENE = {"primitives": [
    {"type": "tilted_plane", "point_m": [1.7e308, 0, 1.7e308],
     "normal": [1, 0, 1]}]}
FLOAT_LIMIT_BOX_SCENE = with_box(center_m=[1.7e308, 1.7e308, 0.5],
                                 half_extents_m=[1.7e308, 1.7e308, 0.5])


def box_grid_scene(n: int) -> dict:
    """``n`` boxes in rows of 17, 0.25 m apart, all in view from 5 m."""
    return {"primitives": [
        {"type": "box", "center_m": [0.25 * (k % 17 - 8),
                                     0.25 * (k // 17 - 7), 0],
         "half_extents_m": [0.1, 0.1, 0.05]} for k in range(n)]}


def with_raw_value(obj: dict, field: str, text: str) -> str:
    """JSON text of ``obj`` with ``field``'s value spelled as ``text``."""
    return json.dumps(dict(obj, **{field: "@"})).replace('"@"', text)


SMALL_INTRINSICS = CameraIntrinsics(fx=60.0, fy=60.0, cx=15.5, cy=11.5,
                                    width=32, height=24)


@functools.cache
def small_stream() -> dict[str, bytes]:
    """The files of a 2-frame 24x32 stream, by name: a floor 4 m below the
    camera with a 0.5 m step up on its right third, seen from two poses."""
    depth = np.full((24, 32), 4.0)
    depth[:, 22:] = 3.5
    frames = [DepthFrame(depth, np.ones_like(depth, bool), SMALL_INTRINSICS,
                         camera_pose((0.3 * i, 0.0, 4.0)), frame_id=i)
              for i in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        write_frame_stream(tmp, frames)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


def detect_damaged(files: dict[str, bytes], config=None):
    """Run ``detect`` on a stream of ``files`` (``config``: a config file's
    JSON value, or None for the sim profile).

    Returns (exit code, stderr, warning messages). The landsite logger
    prints to the captured stderr as the CLI's last-resort handler would.
    """
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    logger = logging.getLogger("landsite")
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = Path(tmp) / "stream"
        stream.mkdir()
        for name, data in files.items():
            (stream / name).write_bytes(data)
        argv = ["detect", "--in", str(stream), "--out", str(Path(tmp) / "o")]
        if config is not None:
            (Path(tmp) / "c.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(tmp) / "c.json")]
        logger.addHandler(handler)
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        finally:
            logger.removeHandler(handler)
    return code, err.getvalue(), [str(w.message) for w in caught]


FRAME_LINE = re.compile(r"(?:skipping frame (-?\d+): |frame (-?\d+) has no "
                        r"pixel valid )")


def assert_one_line_per_failure(code: int, err: str, caught: list) -> None:
    """Exit code 0-2, no traceback or warning, at most one ``error:`` line
    and at most one skipped- or empty-frame line per frame."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert caught == []
    lines = err.splitlines()
    assert sum(line.startswith("error: ") for line in lines) <= 1
    frame_lines = [line for line in lines if not line.startswith("error: ")]
    matches = [FRAME_LINE.match(line) for line in frame_lines]
    assert all(matches), frame_lines
    ids = [m.group(1) or m.group(2) for m in matches]
    assert len(ids) == len(set(ids)), frame_lines


SIM_CONFIG = get_profile("sim").to_json_obj()

# Config values whose arithmetic leaves float range: a box sum over a
# window wider than the frame, 2 tol^2 below DBL_MIN, an overflowing
# footprint and a link distance whose exact int square is too large.
HUGE_WINDOW_CONFIG = dict(SIM_CONFIG, smoothing_window_px=10**200 + 1)
TINY_SLOPE_CONFIG = dict(SIM_CONFIG, slope_tolerance_deg=1e-200)
HUGE_SAFETY_CONFIG = dict(SIM_CONFIG, safety_factor=1e308)
HUGE_INT_LINK_CONFIG = dict(SIM_CONFIG, cluster_dist_m=10**200 + 1)

# Numbers a damaged config or pose line may hold: extreme, tiny or odd.
FUZZ_NUMBERS = EXTREME_NUMBERS | st.sampled_from(
    [1e-200, 1e-310, 5e-324, 10**200 + 1, 10**400 + 1, -1, 1, 3])


def damage_record(draw, obj: dict) -> dict:
    """``obj`` with one to three fields deleted or set to arbitrary JSON or
    an extreme number."""
    obj = dict(obj)
    for _ in range(draw(st.integers(1, 3))):
        if not obj:
            break
        key = draw(st.sampled_from(sorted(obj)))
        damage = draw(st.sampled_from(["value", "missing", "number"]))
        if damage == "missing":
            del obj[key]
        else:
            obj[key] = draw(JSON_VALUES if damage == "value" else FUZZ_NUMBERS)
    return obj


@st.composite
def damaged_configs(draw):
    return damage_record(draw, SIM_CONFIG)


@st.composite
def damaged_intrinsics(draw):
    return damage_record(draw, SMALL_INTRINSICS.to_json_obj())


# Focal lengths whose backprojected offsets overflow float range.
TINY_FOCAL_INTRINSICS = dict(SMALL_INTRINSICS.to_json_obj(), fx=1e-310,
                             fy=1e-310)


@st.composite
def damaged_pose_streams(draw):
    """``small_stream()`` with one ``frames.jsonl`` line damaged: fields
    damaged as in ``damage_record``, or the line replaced by arbitrary
    text or bytes."""
    lines = small_stream()["frames.jsonl"].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    damage = draw(st.sampled_from(["record", "text", "bytes"]))
    if damage == "record":
        lines[i] = json.dumps(damage_record(draw, json.loads(lines[i]))).encode()
    elif damage == "text":
        lines[i] = draw(st.text(max_size=40)).encode()
    else:
        lines[i] = draw(st.binary(max_size=40))
    return dict(small_stream(), **{"frames.jsonl": b"\n".join(lines) + b"\n"})


PFM_HEADER_LINES = st.sampled_from(
    [b"Pf", b"PF", b"P5", b"32 24", b"24 32", b"0 24", b"-32 24", b"32",
     b"32 24 1", b"1 1", b"99999999 99999999", b"9" * 5000, b"-1.0", b"1.0",
     b"0", b"nan", b"-inf", b"1e400", b""]) | st.binary(max_size=12)


@st.composite
def damaged_pfm_streams(draw):
    """``small_stream()`` with one PFM file damaged: a header line replaced,
    pixels set to arbitrary float32 values, a span of bytes overwritten or
    the file truncated."""
    name = draw(st.sampled_from(["000000.pfm", "000001.pfm"]))
    data = small_stream()[name]
    magic, dims, scale, payload = data.split(b"\n", 3)
    damage = draw(st.sampled_from(["header", "pixels", "bytes", "truncate"]))
    if damage == "header":
        header = [magic, dims, scale]
        header[draw(st.integers(0, 2))] = draw(PFM_HEADER_LINES)
        data = b"\n".join(header) + b"\n" + payload
    elif damage == "pixels":
        pixels = bytearray(payload)
        for _ in range(draw(st.integers(1, 20))):
            at = 4 * draw(st.integers(0, len(pixels) // 4 - 1))
            pixels[at:at + 4] = struct.pack("<f", draw(
                st.floats(width=32) | st.sampled_from([0.04, 0.05, 20.0,
                                                       20.5, 3.4e38])))
        data = b"\n".join([magic, dims, scale, bytes(pixels)])
    elif damage == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=16)) + data[at + 16:]
    else:
        data = data[:draw(st.integers(0, len(data)))]
    return dict(small_stream(), **{name: data})


class TestCli:
    def _synth(self, tmp_path, scene="flat_pad", frames=1):
        stream = tmp_path / "stream"
        rc = cli_main(["synth", "--scene", scene, "--out", str(stream),
                       "--frames", str(frames)])
        assert rc == 0
        return stream

    def test_synth_detect_cluster_round_trip(self, tmp_path):
        stream = self._synth(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["detect", "--in", str(stream), "--profile", "sim",
                         "--out", str(out)]) == 0
        assert (out / "sites.json").exists()
        clusters2 = tmp_path / "reclustered.json"
        assert cli_main(["cluster", "--sites", str(out / "sites.json"),
                         "--profile", "sim", "--out", str(clusters2)]) == 0
        a = json.loads((out / "clusters.json").read_text())
        b = json.loads(clusters2.read_text())
        assert a == b

    @pytest.mark.parametrize("profile", ["sim", "real"])
    @pytest.mark.parametrize("scene", ["flat_pad", "far_rubble"])
    def test_cluster_reproduces_detect_clusters(self, tmp_path, capsys,
                                                scene, profile):
        if scene == "flat_pad":
            stream = self._synth(tmp_path, frames=3)
        else:  # two rubble frames +-1.7e308 m apart along x
            stream = self._synth(tmp_path, "rubble", frames=2)
            poses = stream / "frames.jsonl"
            lines = [dict(json.loads(line), tx=tx) for line, tx in
                     zip(poses.read_text().splitlines(), (1.7e308, -1.7e308))]
            poses.write_text("".join(json.dumps(o) + "\n" for o in lines))
        out = tmp_path / "out"
        assert cli_main(["detect", "--in", str(stream), "--profile", profile,
                         "--out", str(out)]) == 0
        capsys.readouterr()
        again = tmp_path / "clusters.json"
        assert cli_main(["cluster", "--sites", str(out / "sites.json"),
                         "--profile", profile, "--out", str(again)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if (scene, profile) == ("flat_pad", "sim"):
            assert captured.out == "29 sites -> 23 clusters\n"
        assert again.read_bytes() == (out / "clusters.json").read_bytes()

    def test_detect_dump_equals_costmap_per_frame(self, tmp_path):
        stream = self._synth(tmp_path, frames=2)
        dump = tmp_path / "dump"
        assert cli_main(["detect", "--in", str(stream), "--out",
                         str(tmp_path / "o"), "--dump-costmaps",
                         str(dump)]) == 0
        names = []
        for k in (0, 1):
            maps = tmp_path / f"maps{k}"
            assert cli_main(["costmap", "--in", str(stream), "--frame-id",
                             str(k), "--out", str(maps)]) == 0
            files = sorted(p.name for p in maps.iterdir())
            assert len(files) == 17
            for name in files:
                assert (maps / name).read_bytes() == \
                    (dump / name).read_bytes(), name
            names += files
        assert sorted(p.name for p in dump.iterdir()) == sorted(names)

    def test_costmap_dump(self, tmp_path):
        stream = self._synth(tmp_path)
        out = tmp_path / "maps"
        assert cli_main(["costmap", "--in", str(stream), "--out", str(out)]) == 0
        assert (out / "000000_decision.pfm").exists()
        assert (out / "000000_edges.pgm").exists()

    def test_costmap_unknown_frame_exits_2(self, tmp_path, capsys):
        stream = self._synth(tmp_path)
        assert cli_main(["costmap", "--in", str(stream), "--frame-id", "99",
                         "--out", str(tmp_path / "m")]) == 2
        assert "no frame 99 in" in capsys.readouterr().err
        (stream / "000000.pfm").write_bytes(b"Pf\nabc def\n-1.0\n")
        assert cli_main(["costmap", "--in", str(stream),
                         "--out", str(tmp_path / "m")]) == 2
        assert "no readable frames" in capsys.readouterr().err
        (stream / "000000.pfm").unlink()
        assert cli_main(["detect", "--in", str(stream),
                         "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no readable frames in {stream}\n"
        assert captured.out == "" and not (tmp_path / "o").exists()
        assert cli_main(["bench", "--in", str(stream), "--reps", "1",
                         "--out", str(tmp_path / "b")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no readable frames in {stream}\n"
        assert captured.out == "" and not (tmp_path / "b").exists()

    def test_costmap_window_wider_than_frame(self, tmp_path, capsys):
        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=1.0, cy=1.0,
                                width=3, height=3)
        depth = np.full((3, 3), 4.0)
        write_frame_stream(tmp_path / "s", [DepthFrame(
            depth, np.ones_like(depth, bool), intr, camera_pose((0, 0, 4.0)))])
        config = tmp_path / "w5.json"
        write_json(config, dataclasses.replace(
            get_profile("sim"), smoothing_window_px=5).to_json_obj())
        out = tmp_path / "maps"
        assert cli_main(["costmap", "--in", str(tmp_path / "s"), "--config",
                         str(config), "--out", str(out)]) == 0
        assert not np.isfinite(read_pfm(out / "000000_steepness.pfm")).any()
        assert cli_main(["detect", "--in", str(tmp_path / "s"), "--config",
                         str(config), "--out", str(tmp_path / "o")]) == 0
        assert "(failed: 0)" in capsys.readouterr().out

    def test_synth_ground_truth_and_noise(self, tmp_path):
        stream = tmp_path / "noisy"
        assert cli_main(["synth", "--scene", "rubble", "--out", str(stream),
                         "--frames", "2", "--noise-sigma-m", "0.01",
                         "--ground-truth", "--seed", "3"]) == 0
        assert (stream / "ground_truth" / "000001_safe_mask.pgm").exists()
        assert (stream / "ground_truth" / "000000_prim_id.pgm").exists()
        assert np.isfinite(read_pfm(
            stream / "ground_truth" / "000000_normal_x.pfm")).any()
        frames = list(read_frame_stream(stream, 0.05, 20.0))
        assert len(frames) == 2
        # per-frame noise differs but stays seed-determined
        assert not np.array_equal(frames[0].depth, frames[1].depth)

    def test_synth_keeps_ground_truth_only_when_asked(self, tmp_path,
                                                      monkeypatch):
        render, write = ss.render_depth, cli.write_frame_stream
        truths, alive = [], []

        def tracked_render(*args, **kwargs):
            frame, truth = render(*args, **kwargs)
            truths.append(weakref.ref(truth))
            return frame, truth

        def tracked_write(out, frames):
            gc.collect()
            alive.append([ref() is not None for ref in truths])
            truths.clear()
            return write(out, frames)

        monkeypatch.setattr(ss, "render_depth", tracked_render)
        monkeypatch.setattr(cli, "write_frame_stream", tracked_write)
        for name, extra in (("plain", []), ("truth", ["--ground-truth"])):
            assert cli_main(["synth", "--scene", "rubble", "--frames", "3",
                             "--out", str(tmp_path / name), *extra]) == 0
        # While the stream is written, only the loop's last truth is still
        # referenced without --ground-truth; with it, every frame's is.
        assert alive == [[False, False, True], [True, True, True]]
        plain = sorted(p.relative_to(tmp_path / "plain")
                       for p in (tmp_path / "plain").rglob("*"))
        assert plain and not (tmp_path / "plain" / "ground_truth").exists()
        for rel in plain:
            assert (tmp_path / "plain" / rel).read_bytes() \
                == (tmp_path / "truth" / rel).read_bytes(), rel
        assert len(list((tmp_path / "truth" / "ground_truth").iterdir())) \
            == 5 * 3

    def test_synth_ground_truth_keeps_255_prim_ids_apart(self, tmp_path):
        path = tmp_path / "scene.json"
        write_json(path, box_grid_scene(255))
        stream = tmp_path / "s"
        assert cli_main(["synth", "--scene-file", str(path), "--out",
                         str(stream), "--ground-truth"]) == 0
        ids = read_pgm(stream / "ground_truth" / "000000_prim_id.pgm")
        # 0 where no box was hit, then one value per primitive
        assert np.unique(ids).tolist() == list(range(256))

    def test_synth_ground_truth_refuses_256_primitives(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        write_json(path, box_grid_scene(256))
        stream = tmp_path / "s"
        assert cli_main(["synth", "--scene-file", str(path), "--out",
                         str(stream), "--ground-truth"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at most 255 primitives" in err
        assert not stream.exists()

    def test_synth_scene_file(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_json(scene_path,
                   scene_to_json_obj(ss.canonical_scenes()["FLAT_PAD"]))
        stream = tmp_path / "custom_scene"
        assert cli_main(["synth", "--scene-file", str(scene_path), "--out",
                         str(stream)]) == 0
        assert (stream / "000000.pfm").exists()
        assert cli_main(["synth", "--scene-file",
                         str(tmp_path / "missing.json"),
                         "--out", str(stream)]) == 2

    def test_synth_huge_sphere_warns_nothing(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(HUGE_SPHERE_SCENE))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["synth", "--scene-file", str(path),
                             "--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().err == ""

    @given(damaged_scenes())
    @example(with_box(rotation=[[0.5, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @example(with_box(rotation=[[0, 0, 0]] * 3))
    @example(HUGE_SPHERE_SCENE)
    @example(FLOAT_LIMIT_PLANE_SCENE)
    @example(FLOAT_LIMIT_BOX_SCENE)
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_scene_file_exits_with_one_line_at_most(self, scene):
        # A warning would reach stderr too, so none may be raised.
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = Path(tmp) / "scene.json"
            path.write_text(json.dumps(scene))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["synth", "--scene-file", str(path),
                                 "--out", str(Path(tmp) / "s")])
        assert code in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("config,code,first_line", [
        # a window wider than the frame: no pixel valid, no OverflowError
        (HUGE_WINDOW_CONFIG, 0, "frame 0 has no pixel valid in every costmap"),
        # 2 tol^2 would underflow and give NaN steepness: the config
        # loader refuses it before any frame is read
        (TINY_SLOPE_CONFIG, 1, r"error: \S+: malformed config \(ConfigError: "
                               r"slope tolerance must be positive"),
        # the footprint overflows to inf, which no flat radius reaches
        (HUGE_SAFETY_CONFIG, 0, None),
        # its square overflows, so the config loader refuses it
        (HUGE_INT_LINK_CONFIG, 1,
         r"error: \S+: malformed config \(ConfigError: cluster_dist_m must "
         r"be at most 1e\+150\)$"),
    ], ids=["huge_window", "tiny_slope_tolerance", "huge_safety_factor",
            "huge_int_link_distance"])
    def test_extreme_config_value_one_line_at_most(self, config, code,
                                                   first_line):
        got, err, caught = detect_damaged(small_stream(), config)
        assert_one_line_per_failure(got, err, caught)
        assert got == code
        assert re.match(first_line, err) if first_line else err == ""

    @given(damaged_configs())
    @example(HUGE_WINDOW_CONFIG)
    @example(TINY_SLOPE_CONFIG)
    @example(HUGE_SAFETY_CONFIG)
    @example(HUGE_INT_LINK_CONFIG)
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_config_file_exits_with_one_line_at_most(self, config):
        assert_one_line_per_failure(*detect_damaged(small_stream(), config))

    @given(damaged_intrinsics())
    @example(TINY_FOCAL_INTRINSICS)
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_intrinsics_file_exits_with_one_line_at_most(self,
                                                               intrinsics):
        files = dict(small_stream(),
                     **{"intrinsics.json": json.dumps(intrinsics).encode()})
        assert_one_line_per_failure(*detect_damaged(files))

    @given(damaged_pose_streams())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_pose_line_exits_with_one_line_at_most(self, files):
        assert_one_line_per_failure(*detect_damaged(files))

    @given(damaged_pfm_streams())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_pfm_file_exits_with_one_line_at_most(self, files):
        assert_one_line_per_failure(*detect_damaged(files))

    def test_signalling_nan_pixel_is_invalid_without_a_warning(self):
        # a float32 signalling NaN once warned "invalid value encountered
        # in cast" when the depth was widened to float64
        files = small_stream()
        magic, dims, scale, payload = files["000000.pfm"].split(b"\n", 3)
        files["000000.pfm"] = b"\n".join(
            [magic, dims, scale, struct.pack("<I", 0x7F810000) + payload[4:]])
        code, err, caught = detect_damaged(files)
        assert code == 0
        assert_one_line_per_failure(code, err, caught)

    def test_bench_command(self, tmp_path, capsys):
        stream = self._synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "bench"
        assert cli_main(["bench", "--in", str(stream), "--reps", "1",
                         "--out", str(out)]) == 0
        obj = json.loads((out / "timing.json").read_text())
        assert_timing_document(obj, n_frames=1, repetitions=1)
        assert capsys.readouterr().out == timing_table(obj) + "\n"

    def test_config_error_exits_1(self, tmp_path):
        assert cli_main(["detect", "--in", str(tmp_path), "--out",
                         str(tmp_path / "o"), "--profile", "sim",
                         "--config", str(tmp_path / "c.json")]) == 1
        assert cli_main(["synth", "--out", str(tmp_path / "s")]) == 1
        assert cli_main(["nonsense"]) == 1

    @pytest.mark.parametrize("command, option", [("detect", "--out"),
                                                 ("detect", "--dump-costmaps"),
                                                 ("bench", "--out"),
                                                 ("costmap", "--out")])
    def test_unwritable_out_fails_before_any_frame(self, tmp_path, capsys,
                                                   monkeypatch, command,
                                                   option):
        stream = self._synth(tmp_path, frames=2)
        capsys.readouterr()
        ran = []
        # cli imports evaluate_costmaps by name for `costmap`
        for owner in (pipeline, cli):
            monkeypatch.setattr(owner, "evaluate_costmaps",
                                lambda *args: ran.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker, blocker / "out"):
            argv = [command, "--in", str(stream), option, str(out)]
            if option != "--out":
                argv += ["--out", str(tmp_path / "o")]
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1, captured.err
            assert captured.err.startswith("error: ")
        assert ran == []

    @pytest.mark.parametrize("fault", ["dump_blocked", "clusters_unwritable"])
    def test_failed_run_leaves_the_earlier_outputs(self, tmp_path, capsys,
                                                   fault):
        stream = self._synth(tmp_path, frames=2)
        out, dump = tmp_path / "out", tmp_path / "dump"
        detect = ["detect", "--in", str(stream), "--out", str(out)]
        if fault == "clusters_unwritable":
            # sites of both frames link, so moved 1.5e308 m out along x
            # their centroid overflows
            config = tmp_path / "config.json"
            write_json(config, dict(SIM_CONFIG, cluster_dist_m=1.0,
                                    cluster_z_m=1.0))
            detect += ["--config", str(config)]
        assert cli_main(detect) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["candidates.jsonl", "clusters.json",
                                  "sites.json"]
        if fault == "dump_blocked":
            # the second frame's first dumped map cannot be written
            blocked = dump / "000001_depth_confidence_raw.pfm"
            blocked.mkdir(parents=True)
            detect += ["--dump-costmaps", str(dump)]
            message = str(blocked)
        else:
            # candidates.jsonl and sites.json can be written, clusters.json
            # not; the error names it as staged, in a directory of --out
            # that is then removed
            poses = stream / "frames.jsonl"
            poses.write_text("".join(
                json.dumps(dict(r, tx=r["tx"] + 1.5e308)) + "\n"
                for r in map(json.loads, poses.read_text().splitlines())))
            message = ("clusters.json: cannot write as strict JSON "
                       "(non-finite cx)")
        capsys.readouterr()
        assert cli_main(detect) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and message in captured.err
        if fault == "dump_blocked":
            assert (dump / "000000_decision.pfm").exists()  # frame 0 ran
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_io_error_exits_2(self, tmp_path):
        assert cli_main(["detect", "--in", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "o"),
                         "--profile", "sim"]) == 2
        assert cli_main(["cluster", "--sites", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("damage", ["truncated_pose_line",
                                        "non_utf8_pose_line",
                                        "intrinsics_missing_key",
                                        *STREAM_DAMAGE])
    def test_malformed_stream_metadata_exits_2(self, tmp_path, capsys, damage):
        stream = self._synth(tmp_path, frames=2)
        if damage == "truncated_pose_line":
            path = stream / "frames.jsonl"
            lines = path.read_text().splitlines()
            path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
            where = f"{path}:2"
        elif damage == "non_utf8_pose_line":
            path = stream / "frames.jsonl"
            with open(path, "ab") as f:
                f.write(b"\xff\xfe\n")
            where = f"{path}:3"
        elif damage in STREAM_DAMAGE:
            name, field, text = STREAM_DAMAGE[damage]
            path = stream / name
            if name == "frames.jsonl":  # damage the second pose record
                first, second = path.read_text().splitlines()
                bad = with_raw_value(json.loads(second), field, text)
                path.write_text(f"{first}\n{bad}\n")
                where = f"{path}:2"
            else:
                obj = json.loads(path.read_text())
                path.write_text(with_raw_value(obj, field, text))
                where = str(path)
        else:
            path = stream / "intrinsics.json"
            obj = json.loads(path.read_text())
            del obj["fx"]
            path.write_text(json.dumps(obj))
            where = str(path)
        capsys.readouterr()
        assert cli_main(["detect", "--in", str(stream), "--profile", "sim",
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if damage == "repeated_frame_id":
            assert "repeated frame_id 0" in err
        if damage.startswith("intrinsics_"):
            assert err.startswith(f"error: {where}: malformed intrinsics (")

    @pytest.mark.parametrize("field,token", [
        pytest.param("x", "NaN", id="nan"),
        pytest.param("x", "Infinity", id="inf"),
        pytest.param("x", '"a"', id="a"),
        pytest.param("frame_id", "1e400", id="frame_id_1e400"),
        pytest.param("frame_id", "-Infinity", id="frame_id_neg_inf"),
        pytest.param("frame_id", "1.5", id="frame_id_float"),
        pytest.param("frame_id", "true", id="frame_id_bool"),
        pytest.param("dedup_radius_m", "1e400", id="radius_1e400"),
        pytest.param("dedup_radius_m", "1e155", id="radius_past_bound"),
        pytest.param("sites", DEEP, id="sites_deep_nesting"),
        pytest.param("sites", OVERFLOW_X_SITES, id="centroid_overflow"),
        pytest.param("sites", OVERFLOW_SCORE_SITES, id="mean_score_overflow"),
        pytest.param("sites", NAN_SCORE_SITES, id="mean_score_nan"),
    ])
    def test_malformed_registry_snapshot_exits_2(self, tmp_path, capsys,
                                                 field, token):
        # the damaged value goes in as raw JSON text, so 1e400 stays 1e400
        obj = {"dedup_radius_m": 0.5, "sites": [
            {"x": 0.0, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
             "timestamp": 0.0}]}
        if field in obj:
            obj[field] = "@"
        else:
            obj["sites"][0][field] = "@"
        path, out = tmp_path / "sites.json", tmp_path / "c.json"
        path.write_text(json.dumps(obj).replace('"@"', token))
        capsys.readouterr()
        assert cli_main(["cluster", "--sites", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the sites load; their summary overflows or is NaN, quietly, and
        # the writer refuses it
        nonfinite = {OVERFLOW_X_SITES: "cx",
                     OVERFLOW_SCORE_SITES: "mean_score",
                     NAN_SCORE_SITES: "mean_score"}.get(token)
        if nonfinite:
            assert err == (f"error: {out}: cannot write as strict JSON "
                           f"(non-finite {nonfinite})\n")
        else:
            assert err.startswith(f"error: {path}: malformed registry "
                                  "snapshot")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["score", "timestamp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_score_or_timestamp_snapshot_exits_2(self, tmp_path,
                                                            capsys, field,
                                                            value):
        site = {"x": 0.0, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
                "timestamp": 0.0}
        site[field] = value
        path = tmp_path / "sites.json"
        path.write_text(json.dumps({"dedup_radius_m": 0.5, "sites": [site]}))
        capsys.readouterr()
        assert cli_main(["cluster", "--sites", str(path),
                         "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed registry snapshot")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "c.json").exists()

    @given(radius=st.one_of(st.just(0.5), JSON_VALUES),
           sites=st.lists(st.fixed_dictionaries(
               {k: st.one_of(st.just(v), JSON_VALUES)
                for k, v in VALID_SITE.items()}), max_size=3))
    @example(radius=0.5, sites=FAR_APART_SITES)
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_registry_snapshot_exits_0_or_2(self, radius, sites):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sites.json"
            path.write_text(json.dumps({"dedup_radius_m": radius,
                                        "sites": sites}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["cluster", "--sites", str(path),
                                 "--out", str(Path(tmp) / "c.json")])
        assert code in (0, 2)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()

    def test_far_apart_snapshot_clusters(self, tmp_path, capsys):
        path = tmp_path / "sites.json"
        write_json(path, {"dedup_radius_m": 0.5, "sites": FAR_APART_SITES})
        capsys.readouterr()
        assert cli_main(["cluster", "--sites", str(path), "--profile", "sim",
                         "--out", str(tmp_path / "c.json")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "2 sites -> 2 clusters\n"
        clusters = json.loads((tmp_path / "c.json").read_text())["clusters"]
        assert sorted((c["cx"], c["cy"], c["members"]) for c in clusters) == \
            [(0.1, 0.0, 1), (3.0, 1.7e308, 1)]

    def test_far_apart_frames_detect(self, tmp_path, capsys):
        # frames +-1.7e308 m apart along x: every cross-frame difference
        # overflows, so no site of one frame links to one of the other
        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=11.5,
                                width=32, height=24)
        depth = np.full((24, 32), 4.0)
        write_frame_stream(tmp_path / "s", [
            DepthFrame(depth, np.ones_like(depth, bool), intr,
                       camera_pose((tx, 0.0, 4.0)), frame_id=i)
            for i, tx in enumerate((1.7e308, -1.7e308))])
        capsys.readouterr()
        assert cli_main(["detect", "--in", str(tmp_path / "s"), "--profile",
                         "sim", "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        sites = json.loads((tmp_path / "o" / "sites.json").read_text())
        clusters = json.loads((tmp_path / "o" / "clusters.json").read_text())
        xs = {s["x"] for s in sites["sites"]}
        assert xs == {1.7e308, -1.7e308}
        assert f"clusters: {len(clusters['clusters'])}" in captured.out
        assert sum(c["members"] for c in clusters["clusters"]) == \
            len(sites["sites"])

    @pytest.mark.parametrize("case,code", [
        ("spacing_nan", 1), ("height_inf", 1), ("negative_noise", 1),
        ("negative_seed", 1),
        ("scene_bad_json", 2), ("scene_no_primitives", 2),
        ("scene_nan_noise", 2), ("scene_negative_seed", 2),
        ("config_weight_str", 1), ("config_d_max_null", 1),
        ("config_window_float", 1),
        ("height_zero", 1), ("camera_inside_roof", 1), ("spacing_overflow", 1),
        *((case, 1 if case.startswith("config_") else 2)
          for case in USER_FILE_DAMAGE),
        *((case, 1) for case in CONFIG_FILE_BYTES),
    ])
    def test_bad_user_input_one_line_error(self, tmp_path, capsys, case, code):
        out = str(tmp_path / "out")
        synth = ["synth", "--scene", "flat_pad", "--out", out]
        path = tmp_path / "input.json"
        if case == "spacing_nan":
            argv = synth + ["--spacing-m", "nan"]
        elif case == "height_inf":
            argv = synth + ["--height-m", "inf"]
        elif case == "height_zero":
            argv = synth + ["--height-m", "0"]
        elif case == "camera_inside_roof":
            argv = ["synth", "--scene", "roof_edge", "--height-m", "1.0",
                    "--out", out]
        elif case == "spacing_overflow":
            argv = ["synth", "--scene", "rubble", "--spacing-m", "1e308",
                    "--frames", "3", "--out", out]
        elif case == "negative_noise":
            argv = synth + ["--noise-sigma-m", "-1"]
        elif case == "negative_seed":
            argv = synth + ["--seed", "-1"]
        elif case.startswith("scene_"):
            scene = scene_to_json_obj(ss.canonical_scenes()["FLAT_PAD"])
            if case == "scene_no_primitives":
                scene["primitives"] = []
            elif case == "scene_nan_noise":
                scene["noise_sigma_m"] = float("nan")
            elif case == "scene_negative_seed":
                scene["seed"] = -1
            if case in USER_FILE_DAMAGE:
                path.write_text(with_raw_value(scene, *USER_FILE_DAMAGE[case]))
            else:
                path.write_text("{" if case == "scene_bad_json"
                                else json.dumps(scene))
            argv = ["synth", "--scene-file", str(path), "--out", out]
        else:
            obj = get_profile("sim").to_json_obj()
            if case in CONFIG_FILE_BYTES:
                path.write_bytes(CONFIG_FILE_BYTES[case])
            elif case in USER_FILE_DAMAGE:
                path.write_text(with_raw_value(obj, *USER_FILE_DAMAGE[case]))
            else:
                field, value = {
                    "config_weight_str": ("weight_flatness", "a"),
                    "config_d_max_null": ("d_max_m", None),
                    "config_window_float": ("smoothing_window_px", 3.5),
                }[case]
                obj[field] = value
                path.write_text(json.dumps(obj))
            argv = ["detect", "--in", str(tmp_path), "--config", str(path),
                    "--out", out]
        capsys.readouterr()
        assert cli_main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if case.startswith(("scene_", "config_")):
            assert err.startswith(f"error: {path}: ")
        if case.startswith("scene_"):
            assert err.startswith(f"error: {path}: malformed scene (")

    def test_detect_reports_empty_frames(self, tmp_path, capsys):
        stream = self._synth(tmp_path, frames=2)
        write_pfm(stream / "000001.pfm", np.zeros((480, 640)))
        capsys.readouterr()
        assert cli_main(["detect", "--in", str(stream), "--profile", "sim",
                         "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith(
            "frames: 2 (failed: 0)  empty: 1  candidates: ")

    def test_custom_config_used(self, tmp_path):
        cfg = get_profile("sim")
        path = tmp_path / "custom.json"
        obj = cfg.to_json_obj()
        obj["decision_threshold"] = 0.99
        obj["profile"] = "custom"
        path.write_text(json.dumps(obj))
        stream = self._synth(tmp_path, scene="steep_wall")
        out = tmp_path / "out"
        assert cli_main(["detect", "--in", str(stream), "--config", str(path),
                         "--out", str(out)]) == 0
        sites = json.loads((out / "sites.json").read_text())
        assert sites["sites"] == []
