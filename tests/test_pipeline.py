import json

import numpy as np
import pytest

from landsite import scene_synth as ss
from landsite.bench import STAGES, bench
from landsite.cli import main as cli_main
from landsite.config import PROFILES, PipelineConfig, get_profile
from landsite.detection import Candidates
from landsite.errors import ConfigError
from landsite.formats import read_values_pfm, write_pfm
from landsite.geometry import DepthFrame, project_uav_radius
from landsite.pipeline import (
    FrameResult,
    read_frame_stream,
    run_pipeline,
    write_candidates_jsonl,
    write_frame_stream,
    write_outputs,
)

from oracles import json_dumps_candidates_jsonl


@pytest.fixture(scope="module")
def intr():
    return ss.default_intrinsics()


def render_canonical(name, frame_id=0, camera_xy=(0.0, 0.0), seed=7):
    intrinsics = ss.default_intrinsics()
    scene = ss.canonical_scenes(seed=seed)[name]
    return ss.render_depth(scene, intrinsics,
                           ss.canonical_camera(name, camera_xy),
                           frame_id=frame_id, timestamp=frame_id / 20.0)[0]


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
            cfg.save(path)
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
    ])
    def test_validation_rejects_bad_values(self, field, value):
        obj = get_profile("sim").to_json_obj()
        obj[field] = value
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_obj(obj)


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

    def test_unreadable_frame_skipped(self, tmp_path):
        frames = [render_canonical("FLAT_PAD", frame_id=i) for i in range(3)]
        stream = tmp_path / "stream"
        write_frame_stream(stream, frames)
        (stream / "000001.pfm").write_bytes(b"Pf\n4 4\n-1.0\nxx")
        loaded = list(read_frame_stream(stream, 0.05, 20.0))
        assert [f.frame_id for f in loaded] == [0, 2]

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
                       Pose.identity(), frame_id=1)
        with pytest.raises(ValueError):
            write_frame_stream(tmp_path / "s", [a, b])


class TestRunPipeline:
    def test_flat_pad_finds_pad(self):
        frame = render_canonical("FLAT_PAD")
        result = run_pipeline(get_profile("sim"), [frame])
        assert len(result.registry) > 0
        assert len(result.clusters) > 0
        top = result.clusters[0]
        assert np.hypot(top.centroid[0], top.centroid[1]) < 0.5
        assert abs(top.centroid[2] - 0.8) < 0.02

    def test_steep_wall_finds_nothing(self):
        frame = render_canonical("STEEP_WALL")
        result = run_pipeline(get_profile("sim"), [frame])
        assert len(result.registry) == 0
        assert result.clusters == []

    def test_real_profile_behaves_on_canonical_scenes(self):
        real = get_profile("real")
        pad = run_pipeline(real, [render_canonical("FLAT_PAD")])
        assert len(pad.registry) > 0
        top = pad.clusters[0]
        assert np.hypot(top.centroid[0], top.centroid[1]) < 0.5
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
        scores = [c.mean_score for c in result.clusters]
        assert scores == sorted(scores, reverse=True)

    def test_dumped_maps_reproduce_decisions(self, tmp_path):
        frame = render_canonical("RUBBLE")
        config = get_profile("sim")
        result = run_pipeline(config, [frame], dump_dir=tmp_path / "maps")
        decision, dec_valid = read_values_pfm(tmp_path / "maps" / "000000_decision.pfm")
        flat, flat_valid = read_values_pfm(tmp_path / "maps" / "000000_flatness_raw.pfm")
        cands = result.frames[0].candidates
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
        # and the in-memory values pass exactly
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
        assert "frame 1 has no valid depth pixel" in caplog.text
        # still processed, so the outputs are those of the good frame alone
        assert [f.frame_id for f in result.frames] == [0, 1]
        assert len(result.frames[1].candidates) == 0
        assert result.registry.to_json_obj() == once.registry.to_json_obj()

    def test_all_outputs_written(self, tmp_path):
        frame = render_canonical("FLAT_PAD")
        result = run_pipeline(get_profile("sim"), [frame])
        write_outputs(tmp_path, result)
        assert (tmp_path / "candidates.jsonl").exists()
        assert (tmp_path / "sites.json").exists()
        assert (tmp_path / "clusters.json").exists()
        sites = json.loads((tmp_path / "sites.json").read_text())
        assert len(sites["sites"]) == len(result.registry)
        clusters = json.loads((tmp_path / "clusters.json").read_text())
        keys = set(clusters["clusters"][0])
        assert keys == {"cx", "cy", "cz", "mean_score", "members"}
        line = (tmp_path / "candidates.jsonl").read_text().splitlines()[0]
        assert set(json.loads(line)) == {"frame_id", "px", "py", "depth_m",
                                         "score", "flat_radius_px"}


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
            FrameResult(0, _candidates(range(6), [0, 0, 1, 1, 2, 479], awkward,
                                       awkward[::-1], awkward[2:] + awkward[:2]),
                        inserted=1),
            FrameResult(3, _candidates([], [], [], [], []), inserted=0),
            FrameResult(12, _candidates([639, 5], [0, 7], [19.999999, 0.05],
                                        [1.0, 0.72], [1e-300, 123456789.5]),
                        inserted=2),
        ]
        self._assert_matches_oracle(tmp_path / "candidates.jsonl", frames)

    def test_no_frames(self, tmp_path):
        self._assert_matches_oracle(tmp_path / "candidates.jsonl", [])

    def test_rubble_frames(self, tmp_path):
        frames = [render_canonical("RUBBLE", frame_id=i, camera_xy=(0.4 * i, 0))
                  for i in range(2)]
        result = run_pipeline(get_profile("sim"), frames)
        assert sum(len(f.candidates) for f in result.frames) > 0
        self._assert_matches_oracle(tmp_path / "candidates.jsonl",
                                    result.frames)


@pytest.fixture(scope="module")
def report():
    frames = [render_canonical("RUBBLE", frame_id=i, seed=7 + i)
              for i in range(2)]
    return bench(get_profile("sim"), frames, repetitions=2)


class TestBench:

    def test_all_stage_rows_present(self, report):
        assert set(report.stages) == set(STAGES)

    def test_total_bounds(self, report):
        means = [s.mean_ms for s in report.stages.values()]
        assert report.total.mean_ms >= max(means)
        assert report.total.mean_ms == pytest.approx(sum(means), rel=1e-9)

    def test_table_mirrors_stage_rows(self, report):
        table = report.to_table()
        for label in ("Depth Accuracy", "Flatness", "Steepness", "Energy",
                      "Final", "Dense Detection", "Clustering", "Total Time"):
            assert label in table

    def test_json_shape(self, report, tmp_path):
        report.save(tmp_path / "timing.json")
        obj = json.loads((tmp_path / "timing.json").read_text())
        assert obj["n_frames"] == 2 and obj["repetitions"] == 2
        assert set(obj["stages"]) == set(STAGES)
        assert obj["total"]["mean_ms"] > 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bench(get_profile("sim"), [], repetitions=1)
        frame = render_canonical("STEEP_WALL")
        with pytest.raises(ValueError):
            bench(get_profile("sim"), [frame], repetitions=0)


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

    def test_costmap_dump(self, tmp_path):
        stream = self._synth(tmp_path)
        out = tmp_path / "maps"
        assert cli_main(["costmap", "--in", str(stream), "--out", str(out)]) == 0
        assert (out / "000000_decision.pfm").exists()
        assert (out / "000000_edges.pgm").exists()

    def test_costmap_unknown_frame_exits_2(self, tmp_path):
        stream = self._synth(tmp_path)
        assert cli_main(["costmap", "--in", str(stream), "--frame-id", "99",
                         "--out", str(tmp_path / "m")]) == 2

    def test_synth_ground_truth_and_noise(self, tmp_path):
        stream = tmp_path / "noisy"
        assert cli_main(["synth", "--scene", "rubble", "--out", str(stream),
                         "--frames", "2", "--noise-sigma-m", "0.01",
                         "--ground-truth", "--seed", "3"]) == 0
        assert (stream / "ground_truth" / "000001_safe_mask.pgm").exists()
        assert (stream / "ground_truth" / "000000_prim_id.pgm").exists()
        nx, nx_valid = read_values_pfm(
            stream / "ground_truth" / "000000_normal_x.pfm")
        assert nx_valid.any()
        frames = list(read_frame_stream(stream, 0.05, 20.0))
        assert len(frames) == 2
        # per-frame noise differs but stays seed-determined
        assert not np.array_equal(frames[0].depth, frames[1].depth)

    def test_synth_scene_file(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        ss.save_scene(scene_path, ss.canonical_scenes()["FLAT_PAD"])
        stream = tmp_path / "custom_scene"
        assert cli_main(["synth", "--scene-file", str(scene_path), "--out",
                         str(stream)]) == 0
        assert (stream / "000000.pfm").exists()
        assert cli_main(["synth", "--scene-file",
                         str(tmp_path / "missing.json"),
                         "--out", str(stream)]) == 2

    def test_bench_command(self, tmp_path):
        stream = self._synth(tmp_path)
        out = tmp_path / "bench"
        assert cli_main(["bench", "--in", str(stream), "--reps", "1",
                         "--out", str(out)]) == 0
        assert (out / "timing.json").exists()

    def test_config_error_exits_1(self, tmp_path):
        assert cli_main(["detect", "--in", str(tmp_path), "--out",
                         str(tmp_path / "o"), "--profile", "sim",
                         "--config", str(tmp_path / "c.json")]) == 1
        assert cli_main(["synth", "--out", str(tmp_path / "s")]) == 1
        assert cli_main(["nonsense"]) == 1

    def test_io_error_exits_2(self, tmp_path):
        assert cli_main(["detect", "--in", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "o"),
                         "--profile", "sim"]) == 2
        assert cli_main(["cluster", "--sites", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("damage", ["truncated_pose_line",
                                        "non_utf8_pose_line",
                                        "nan_t_sec",
                                        "intrinsics_missing_key"])
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
        elif damage == "nan_t_sec":
            path = stream / "frames.jsonl"
            lines = path.read_text().splitlines()
            obj = json.loads(lines[1])
            obj["t_sec"] = float("nan")
            path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
            where = f"{path}:2"
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

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), "a"])
    def test_malformed_registry_snapshot_exits_2(self, tmp_path, capsys, x):
        path = tmp_path / "sites.json"
        path.write_text(json.dumps({"dedup_radius_m": 0.5, "sites": [
            {"x": x, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
             "timestamp": 0.0}]}))
        capsys.readouterr()
        assert cli_main(["cluster", "--sites", str(path),
                         "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed registry snapshot")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "c.json").exists()

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
