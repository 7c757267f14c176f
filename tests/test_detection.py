import math

import numpy as np
import pytest

from landsite.costmaps import Costmap, CostmapKind, FusionWeights
from landsite.detection import Candidates, dense_candidates, world_positions
from landsite.geometry import (
    CameraIntrinsics,
    DepthFrame,
    Pose,
    camera_pose,
    project_uav_radius,
)
from landsite import scene_synth as ss
from landsite.pipeline import detect_frame, evaluate_costmaps
from landsite.registry import SiteRegistry
from landsite.config import get_profile

from oracles import brute_force_squared_edt

SIM_WEIGHTS = FusionWeights(0.05, 0.4, 0.4, 0.15, 0.72, math.radians(15))


def _maps(frame, decision_value, flat_value):
    shape = frame.shape
    decision = Costmap(np.full(shape, float(decision_value)),
                       frame.valid.copy(), CostmapKind.DECISION)
    flat = Costmap(np.full(shape, float(flat_value)), frame.valid.copy(),
                   CostmapKind.FLATNESS)
    return decision, flat


class TestScoreThreshold:
    def test_score_just_above_threshold_is_emitted(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.73, 1000.0)
        cands = dense_candidates(decision, flat, frame, SIM_WEIGHTS, 0.13)
        assert len(cands) == 48 * 64
        assert np.all(cands.score[:5] == 0.73)

    def test_score_below_threshold_is_dropped(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.71, 1000.0)
        assert len(dense_candidates(decision, flat, frame, SIM_WEIGHTS,
                                    0.13)) == 0

    def test_score_at_threshold_is_emitted(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.72, 1000.0)
        assert len(dense_candidates(decision, flat, frame, SIM_WEIGHTS,
                                    0.13)) == 48 * 64


class TestFootprintFilter:
    def test_flat_radius_boundary(self, make_frame, intrinsics_small):
        frame = make_frame(np.full((48, 64), 2.0))
        required = project_uav_radius(0.13, 2.0, intrinsics_small)
        decision, flat_pass = _maps(frame, 0.9, required)
        assert len(dense_candidates(decision, flat_pass, frame, SIM_WEIGHTS,
                                    0.13)) == 48 * 64
        _, flat_fail = _maps(frame, 0.9, required - 1e-9)
        assert len(dense_candidates(decision, flat_fail, frame, SIM_WEIGHTS,
                                    0.13)) == 0

    def test_safety_factor_scales_requirement(self, make_frame,
                                              intrinsics_small):
        frame = make_frame(np.full((48, 64), 2.0))
        required = project_uav_radius(0.13, 2.0, intrinsics_small)
        decision, flat = _maps(frame, 0.9, 1.5 * required)
        assert len(dense_candidates(decision, flat, frame, SIM_WEIGHTS, 0.13,
                                    safety_factor=1.5)) == 48 * 64
        assert len(dense_candidates(decision, flat, frame, SIM_WEIGHTS, 0.13,
                                    safety_factor=1.6)) == 0

    def test_misaligned_grids_rejected(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        bad = Costmap(np.ones((10, 10)), np.ones((10, 10), bool),
                      CostmapKind.DECISION)
        _, flat = _maps(frame, 0.9, 10.0)
        with pytest.raises(ValueError):
            dense_candidates(bad, flat, frame, SIM_WEIGHTS, 0.13)


class TestPadSceneFootprint:
    """Footprint semantics on a rendered pad, checked against the
    ground-truth primitive mask.

    Steepness-only weights make every flat pixel pass the score test, so
    the candidate set is exactly the footprint predicate. The reference
    predicate measures the distance to the nearest ground-truth region
    transition with a brute-force distance transform; the detector's
    edges may sit one pixel off the labeled transition (sigma=1
    smoothing), hence the +/-1.5 px acceptance band.
    """

    def test_candidates_only_where_circle_fits(self):
        intr = CameraIntrinsics(fx=262.5, fy=262.5, cx=159.5, cy=119.5,
                                width=320, height=240)
        # thin slab pad: its silhouette is a sharp occluded depth drop,
        # so the detected edges coincide with the labeled transitions
        scene = ss.SceneSpec(primitives=(
            ss.GroundPlane(z=0.0),
            ss.Box(center=(0.0, 0.0, 0.79), half_extents=(0.2, 0.2, 0.01),
                   safe=True),
        ))
        frame, truth = ss.render_depth(scene, intr, camera_pose((0, 0, 2.5)))
        config = get_profile("sim")
        maps = evaluate_costmaps(config, frame)
        weights = FusionWeights(0.0, 0.0, 1.0, 0.0, 0.5, math.radians(15))
        cands = dense_candidates(maps.decision, maps.flatness_raw, frame,
                                 weights, config.uav_radius_m)
        assert len(cands) > 0

        transitions = ss.edge_mask_from_prim_ids(truth)
        gt_dist = np.sqrt(
            brute_force_squared_edt(transitions.astype(np.uint8)).astype(float))
        required = project_uav_radius(config.uav_radius_m, frame.depth, intr)

        ys, xs = cands.ys, cands.xs
        assert np.all(gt_dist[ys, xs] >= required[ys, xs] - 1.5)

        lo = int(((gt_dist >= required + 1.5) & frame.valid).sum())
        hi = int(((gt_dist >= required - 1.5) & frame.valid).sum())
        assert lo <= len(cands) <= hi

        n_pad = int(truth.safe_mask[ys, xs].sum())
        pad_lo = ((gt_dist >= required + 1.5) & truth.safe_mask).sum()
        pad_hi = ((gt_dist >= required - 1.5) & truth.safe_mask).sum()
        assert pad_lo <= n_pad <= pad_hi
        assert n_pad > 0


@pytest.fixture(scope="module")
def rubble_maps():
    intr = ss.default_intrinsics()
    scene = ss.canonical_scenes()["RUBBLE"]
    frame, _ = ss.render_depth(scene, intr, ss.canonical_camera("RUBBLE"))
    config = get_profile("sim")
    return frame, evaluate_costmaps(config, frame), config


class TestRubbleInvariants:
    """Canonical rubble: candidates avoid steep and curved hazards."""

    def test_candidate_placement_per_primitive(self):
        intr = ss.default_intrinsics()
        scene = ss.canonical_scenes()["RUBBLE"]
        frame, truth = ss.render_depth(scene, intr,
                                       ss.canonical_camera("RUBBLE"))
        config = get_profile("sim")
        maps = evaluate_costmaps(config, frame)
        cands = dense_candidates(maps.decision, maps.flatness_raw, frame,
                                 config.fusion_weights(), config.uav_radius_m,
                                 config.safety_factor)
        assert len(cands) > 0
        # primitive order in the scene: 0 ground, 1 safe pad,
        # 2 slab tilted 25 degrees, 3 canopy sphere, 4 tall block
        hit_ids = set(truth.prim_id[cands.ys, cands.xs].tolist())
        assert 2 not in hit_ids, "candidate on the 25-degree slab"
        assert 3 not in hit_ids, "candidate on the sphere canopy"
        assert truth.safe_mask[cands.ys, cands.xs].any(), \
            "no candidate on the flat pad"


class TestMonotonicity:

    def test_raising_threshold_never_adds_candidates(self, rubble_maps):
        frame, maps, config = rubble_maps
        counts = []
        for tau in np.arange(0.60, 0.91, 0.05):
            weights = FusionWeights(0.05, 0.4, 0.4, 0.15, float(tau),
                                    math.radians(15))
            counts.append(len(dense_candidates(
                maps.decision, maps.flatness_raw, frame, weights,
                config.uav_radius_m)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1] > 0 or counts[-1] == 0

    def test_raising_safety_factor_never_adds_candidates(self, rubble_maps):
        frame, maps, config = rubble_maps
        counts = [len(dense_candidates(maps.decision, maps.flatness_raw,
                                       frame, config.fusion_weights(),
                                       config.uav_radius_m, safety_factor=s))
                  for s in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestCandidatesToWorld:
    def test_identity_pose_principal_point(self, candidates_at):
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64,
                                height=48)
        depth = np.full((48, 64), 4.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           Pose.identity())
        world = world_positions(candidates_at(frame, [(32, 24)]), frame)
        assert np.allclose(world[0], [0, 0, 4.0])

    def test_nadir_sites_land_on_ground(self, candidates_at):
        intr = ss.default_intrinsics()
        scene = ss.SceneSpec(primitives=(ss.GroundPlane(z=0.0),))
        frame, _ = ss.render_depth(scene, intr, camera_pose((0, 0, 10.0)))
        cands = candidates_at(frame, [(10, 10), (320, 240), (600, 400)])
        for position in world_positions(cands, frame):
            assert abs(position[2]) < 1e-9

    def test_batch_cardinality(self, make_frame, candidates_at):
        frame = make_frame(np.full((48, 64), 3.0))
        cands = candidates_at(frame, [(x, y) for y in range(0, 48, 7)
                                      for x in range(0, 64, 7)])
        assert world_positions(cands, frame).shape == (len(cands), 3)
        assert world_positions(candidates_at(frame, []), frame).shape == (0, 3)

    def test_invalid_pixels_skipped_with_count(self, make_frame):
        depth = np.full((48, 64), 3.0)
        depth[5, 5] = np.nan
        frame = make_frame(depth)
        # lifting rows at an invalid and an out-of-image pixel is refused,
        # and the error counts them
        xs, ys = np.array([5, 10, 200]), np.array([5, 10, 3])
        bad = Candidates(xs=xs, ys=ys, depth=np.full(3, 3.0),
                         score=np.full(3, 0.8), flat_radius_px=np.full(3, 5.0))
        with pytest.raises(ValueError, match="2 of 3"):
            world_positions(bad, frame)
        # dense_candidates skips the invalid pixel even where the maps,
        # valid and passing everywhere, would let it through
        everywhere = np.ones(frame.shape, bool)
        decision = Costmap(np.full(frame.shape, 0.9), everywhere,
                           CostmapKind.DECISION)
        flat = Costmap(np.full(frame.shape, 1000.0), everywhere,
                       CostmapKind.FLATNESS)
        cands = dense_candidates(decision, flat, frame, SIM_WEIGHTS, 0.13)
        assert len(cands) == 48 * 64 - 1
        assert not np.any((cands.xs == 5) & (cands.ys == 5))
        assert world_positions(cands, frame).shape == (48 * 64 - 1, 3)

    def test_preserves_frame_id_and_timestamp(self):
        intr = ss.default_intrinsics()
        frame, _ = ss.render_depth(ss.canonical_scenes()["FLAT_PAD"], intr,
                                   ss.canonical_camera("FLAT_PAD"),
                                   frame_id=7, timestamp=1.25)
        config = get_profile("sim")
        registry = SiteRegistry(config.dedup_radius_m)
        result = detect_frame(config, frame, evaluate_costmaps(config, frame),
                              registry)
        assert result.frame_id == 7
        assert result.inserted == len(registry) > 0
        assert all(s.frame_id == 7 and s.timestamp == 1.25
                   for s in registry.sites)
        # the first candidate in raster order always enters an empty registry
        cands = result.candidates
        assert registry.sites[0].score == cands.score[0]
        assert np.array_equal(registry.sites[0].position,
                              world_positions(cands, frame)[0])
