import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from landsite.costmaps import Costmap
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

from oracles import brute_force_squared_edt, edge_mask_from_prim_ids, \
    full_frame_dense_candidates

SIM = get_profile("sim")


def _maps(frame, decision_value, flat_value):
    shape = frame.shape
    decision = Costmap(np.full(shape, float(decision_value)),
                       frame.valid.copy())
    flat = Costmap(np.full(shape, float(flat_value)), frame.valid.copy())
    return decision, flat


class TestScoreThreshold:
    def test_score_just_above_threshold_is_emitted(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.73, 1000.0)
        cands = dense_candidates(decision, flat, frame, SIM)
        assert len(cands) == 48 * 64
        assert np.all(cands.score[:5] == 0.73)

    def test_score_below_threshold_is_dropped(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.71, 1000.0)
        assert len(dense_candidates(decision, flat, frame, SIM)) == 0

    def test_score_at_threshold_is_emitted(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.72, 1000.0)
        assert len(dense_candidates(decision, flat, frame, SIM)) == 48 * 64


class TestFootprintFilter:
    def test_flat_radius_boundary(self, make_frame, intrinsics_small):
        frame = make_frame(np.full((48, 64), 2.0))
        required = project_uav_radius(0.13, 2.0, intrinsics_small)
        decision, flat_pass = _maps(frame, 0.9, required)
        assert len(dense_candidates(decision, flat_pass, frame, SIM)) == 48 * 64
        _, flat_fail = _maps(frame, 0.9, required - 1e-9)
        assert len(dense_candidates(decision, flat_fail, frame, SIM)) == 0

    def test_safety_factor_scales_requirement(self, make_frame,
                                              intrinsics_small):
        frame = make_frame(np.full((48, 64), 2.0))
        required = project_uav_radius(0.13, 2.0, intrinsics_small)
        decision, flat = _maps(frame, 0.9, 1.5 * required)
        assert len(dense_candidates(decision, flat, frame, dataclasses.replace(SIM, safety_factor=1.5))) == 48 * 64
        assert len(dense_candidates(decision, flat, frame, dataclasses.replace(SIM, safety_factor=1.6))) == 0

    def test_misaligned_grids_rejected(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        bad = Costmap(np.ones((10, 10)), np.ones((10, 10), bool))
        _, flat = _maps(frame, 0.9, 10.0)
        with pytest.raises(ValueError):
            dense_candidates(bad, flat, frame, SIM)


def assert_same_rows(got, want):
    """Every column equal bit for bit, with the same dtype and shape."""
    for name in ("xs", "ys", "depth", "score", "flat_radius_px"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g.view(np.int64), w.view(np.int64)), name


def assert_matches_full_frame(decision, flat, frame, config):
    with np.errstate(all="raise"):
        got = dense_candidates(decision, flat, frame, config)
    assert_same_rows(got, full_frame_dense_candidates(decision, flat, frame,
                                                      config))
    return got


@st.composite
def selector_inputs(draw):
    """A small frame with holes, maps with their own holes, and a config
    whose threshold may equal a decision value exactly."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    fx = draw(st.sampled_from([1.0, 80.0, 525.0]))
    intr = CameraIntrinsics(fx=fx, fy=fx, cx=(w - 1) / 2, cy=(h - 1) / 2,
                            width=w, height=h)
    depth = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.just(0.0), st.floats(5e-324, 1e300), st.floats(0.5, 20.0))))
    frame = DepthFrame(depth, depth > 0, intr, Pose(np.eye(3), np.zeros(3)))
    masks = hnp.arrays(bool, (h, w))
    values = draw(hnp.arrays(np.float64, (h, w), elements=st.floats(0, 1)))
    threshold = draw(st.one_of(st.floats(0.0, 1.0),
                               st.sampled_from(values.ravel().tolist())))
    config = dataclasses.replace(
        SIM, decision_threshold=threshold,
        safety_factor=draw(st.one_of(st.sampled_from([0.5, 1.0, 1e308]),
                                     st.floats(1e-3, 1e308))),
        uav_radius_m=draw(st.floats(1e-3, 10.0)))
    flat = draw(hnp.arrays(np.float64, (h, w), elements=st.one_of(
        st.floats(0.0, 50.0), st.sampled_from([np.inf, 1e308]))))
    # some flat radii exactly at the footprint, or one ulp below it
    with np.errstate(over="ignore", divide="ignore"):
        footprint = config.safety_factor * (fx * config.uav_radius_m / depth)
    at, below = draw(masks) & (depth > 0), draw(masks) & (depth > 0)
    flat[at] = footprint[at]
    flat[below] = np.nextafter(footprint[below], 0.0)
    return Costmap(values, draw(masks)), Costmap(flat, draw(masks)), frame, \
        config


class TestMatchesFullFrameSelector:
    """Gating only the score-passing rows gives the full-frame selector's
    rows, bit for bit, in the same order and dtypes."""

    @given(selector_inputs())
    @settings(max_examples=300, deadline=None)
    def test_random_frames(self, inputs):
        assert_matches_full_frame(*inputs)

    def test_overflowing_footprint(self, make_frame):
        # 1e308 times a 5.2 px footprint is inf: only an inf flat radius
        # reaches it, and no overflow warning escapes
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.9, 1e6)
        flat.values[3, 4:9] = np.inf
        config = dataclasses.replace(SIM, safety_factor=1e308)
        got = assert_matches_full_frame(decision, flat, frame, config)
        assert got.xs.tolist() == [4, 5, 6, 7, 8] and set(got.ys) == {3}

    def test_no_valid_pixel(self, make_frame):
        frame = make_frame(np.full((48, 64), np.nan))
        everywhere = np.ones(frame.shape, bool)
        got = assert_matches_full_frame(
            Costmap(np.full(frame.shape, 0.9), everywhere),
            Costmap(np.full(frame.shape, 1000.0), everywhere), frame, SIM)
        assert len(got) == 0 and got.xs.dtype == np.intp

    def test_every_row_fails_footprint(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.9, 1.0)
        assert len(assert_matches_full_frame(decision, flat, frame, SIM)) == 0

    def test_score_exactly_at_threshold(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        decision, flat = _maps(frame, 0.72, 1000.0)
        decision.values[::2] = np.nextafter(0.72, 0.0)
        got = assert_matches_full_frame(decision, flat, frame, SIM)
        assert len(got) == 24 * 64 and np.all(got.ys % 2 == 1)
        assert np.all(got.score == SIM.decision_threshold)


class TestPadSceneFootprint:
    """Footprint semantics on a rendered pad, checked against the
    ground-truth primitive mask.

    Steepness-only weights, used both to fuse the costmaps and to select
    candidates, let every pixel the footprint keeps pass the score test
    (checked against a near-zero threshold), so the candidate set is
    exactly the footprint predicate. The reference predicate measures the
    distance to the nearest ground-truth region transition with a
    brute-force distance transform; the detector's edges may sit one pixel
    off the labeled transition (sigma=1 smoothing), hence the +/-1.5 px
    acceptance band.
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
        config = dataclasses.replace(
            get_profile("sim"), weight_depth_confidence=0.0,
            weight_flatness=0.0, weight_steepness=1.0, weight_energy=0.0,
            decision_threshold=0.5)
        maps = evaluate_costmaps(config, frame)
        cands = dense_candidates(maps.decision, maps.flatness_raw, frame,
                                 config)
        assert len(cands) > 0
        footprint_only = dense_candidates(
            maps.decision, maps.flatness_raw, frame,
            dataclasses.replace(config, decision_threshold=1e-12))
        assert np.array_equal(cands.xs, footprint_only.xs)
        assert np.array_equal(cands.ys, footprint_only.ys)

        transitions = edge_mask_from_prim_ids(truth)
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
                                 config)
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
            counts.append(len(dense_candidates(
                maps.decision, maps.flatness_raw, frame,
                dataclasses.replace(config, decision_threshold=float(tau)))))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1] > 0 or counts[-1] == 0

    def test_raising_safety_factor_never_adds_candidates(self, rubble_maps):
        frame, maps, config = rubble_maps
        counts = [len(dense_candidates(maps.decision, maps.flatness_raw, frame,
                                       dataclasses.replace(config,
                                                           safety_factor=s)))
                  for s in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestCandidatesToWorld:
    def test_identity_pose_principal_point(self, candidates_at):
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64,
                                height=48)
        depth = np.full((48, 64), 4.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           Pose(np.eye(3), np.zeros(3)))
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
        decision = Costmap(np.full(frame.shape, 0.9), everywhere)
        flat = Costmap(np.full(frame.shape, 1000.0), everywhere)
        cands = dense_candidates(decision, flat, frame, SIM)
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
        cands, result = detect_frame(config, frame,
                                     evaluate_costmaps(config, frame), registry)
        assert result.frame_id == 7
        assert result.n_candidates == len(cands)
        assert result.inserted == len(registry) > 0
        assert all(s.frame_id == 7 and s.timestamp == 1.25
                   for s in registry.sites)
        # the first candidate in raster order always enters an empty registry
        assert registry.sites[0].score == cands.score[0]
        assert np.array_equal(registry.sites[0].position,
                              world_positions(cands, frame)[0])
