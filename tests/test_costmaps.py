import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landsite import costmaps
from landsite.config import get_profile
from landsite.costmaps import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    Costmap,
    NormalMap,
    _box_valid,
    _unit_normals,
    canny_edges,
    decision_map,
    depth_confidence_map,
    distance_transform,
    energy_map,
    minmax_normalize,
    steepness_map,
    surface_normals,
)
from landsite.errors import ConfigError
from landsite.geometry import CameraIntrinsics, DepthFrame, Pose, camera_pose
from landsite.pipeline import evaluate_costmaps

from oracles import backproject, box_validity, gather_minmax_normalize, \
    loop_surface_normals, where_unit_normals

SIM = get_profile("sim")


def uniform_costmap(value, shape=(4, 4), valid=None):
    values = np.full(shape, float(value))
    if valid is None:
        valid = np.ones(shape, bool)
    return Costmap(values, valid)


class TestDepthConfidence:
    def test_is_negative_square(self, make_frame):
        depth = np.full((48, 64), 2.0)
        cmap = depth_confidence_map(make_frame(depth))
        assert np.all(cmap.values[cmap.valid] == -4.0)

    def test_min_range_is_best(self, make_frame):
        depth = np.full((48, 64), 1.0)
        depth[0, 0] = 0.05
        cmap = depth_confidence_map(make_frame(depth))
        assert cmap.values[0, 0] == pytest.approx(-0.0025)
        assert cmap.values[0, 0] == cmap.values.max()

    def test_invalid_propagates(self, make_frame):
        depth = np.full((48, 64), 2.0)
        depth[3, 3] = np.nan
        cmap = depth_confidence_map(make_frame(depth))
        assert not cmap.valid[3, 3]

    def test_argmax_is_argmin_of_depth(self, make_frame):
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.5, 10.0, (48, 64))
        frame = make_frame(depth)
        cmap = depth_confidence_map(frame)
        assert np.argmax(cmap.values) == np.argmin(frame.depth)

    def test_equals_where_formula_bitwise(self, intrinsics_vga):
        # Invalid pixels hold NaN, infinities, signed zeros and negative or
        # huge depths; each reads +0.0, and valid ones read -d * d.
        rng = np.random.default_rng(4)
        depth = rng.uniform(0.05, 10.0, (480, 640))
        valid = rng.random(depth.shape) > 0.1
        junk = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -3.0, 1e200])
        depth[~valid] = rng.choice(junk, np.count_nonzero(~valid))
        frame = DepthFrame(depth, valid, intrinsics_vga,
                           camera_pose((0.0, 0.0, 5.0)))
        cmap = depth_confidence_map(frame)
        with np.errstate(over="ignore"):
            want = np.where(valid, -depth * depth, 0.0)
        assert cmap.values.tobytes() == want.tobytes()
        assert np.array_equal(cmap.valid, valid)
        assert cmap.valid is not frame.valid

    def test_traced_peak_is_the_result_and_its_mask(self, intrinsics_vga):
        # The (480, 640) float64 values are 2.5 MB and the mask 0.3 MB; a
        # full-frame float temporary would add 2.5 MB.
        rng = np.random.default_rng(5)
        depth = rng.uniform(1.0, 10.0, (480, 640))
        frame = DepthFrame(depth, rng.random(depth.shape) > 0.05,
                           intrinsics_vga, camera_pose((0.0, 0.0, 5.0)))
        depth_confidence_map(frame)
        tracemalloc.start()
        try:
            cmap = depth_confidence_map(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = cmap.values.nbytes + cmap.valid.nbytes
        assert peak < result + 64 * 1024, (peak, result)


class TestFlatness:
    def test_uniform_plane_center_value(self, intrinsics_vga):
        depth = np.full((480, 640), 5.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intrinsics_vga,
                           Pose(np.eye(3), np.zeros(3)))
        flat = distance_transform(canny_edges(frame, 0.05, 0.2), frame.valid)
        # no interior edges: nearest site is the virtual border ring
        assert flat.values.max() == 240.0
        assert flat.values[239, 319] == 240.0
        # spot-check a few pixels against a direct scan over the ring
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = int(rng.integers(0, 480))
            x = int(rng.integers(0, 640))
            expect = min(x + 1, y + 1, 640 - x, 480 - y)
            assert flat.values[y, x] == float(expect)

    def test_pixel_next_to_step_edge(self, make_frame):
        depth = np.full((48, 64), 2.0)
        depth[:, 32:] = 5.0
        frame = make_frame(depth)
        edges = canny_edges(frame, 0.05, 0.2)
        col = int(np.nonzero(edges.bits[24])[0][0])
        flat = distance_transform(edges, frame.valid)
        assert flat.values[24, col] == 0.0
        assert flat.values[24, col + 1] == 1.0
        assert flat.values[24, col - 1] == 1.0

    def test_composition_matches_stages(self, make_frame):
        rng = np.random.default_rng(3)
        depth = 3.0 + 0.5 * (rng.random((48, 64)) < 0.02)
        frame = make_frame(depth)
        composed = evaluate_costmaps(get_profile("sim"), frame).flatness_raw
        staged = distance_transform(canny_edges(frame, 0.05, 0.2),
                                    frame.valid)
        assert np.array_equal(composed.values, staged.values)
        assert np.array_equal(composed.valid, frame.valid)
        assert np.array_equal(staged.valid, frame.valid)


class TestSurfaceNormals:
    def test_flat_floor_world_up(self, intrinsics_small):
        depth = np.full((48, 64), 5.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intrinsics_small,
                           camera_pose((0, 0, 5.0)))
        nm = surface_normals(frame, 3)
        # stencil margin: 1 px central difference + 1 px box radius
        expect_valid = np.zeros((48, 64), bool)
        expect_valid[2:-2, 2:-2] = True
        assert np.array_equal(nm.valid, expect_valid)
        assert np.allclose(nm.normals[nm.valid], [0.0, 0.0, 1.0], atol=1e-9)

    def test_normals_unit_length(self, make_frame):
        rng = np.random.default_rng(4)
        yy, xx = np.mgrid[0:48, 0:64]
        depth = 4.0 + 0.01 * xx + 0.02 * yy + rng.normal(0, 0.005, (48, 64))
        nm = surface_normals(make_frame(depth), 3)
        norms = np.linalg.norm(nm.normals[nm.valid], axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_window_must_be_odd(self, make_frame):
        frame = make_frame(np.full((48, 64), 2.0))
        with pytest.raises(ConfigError):
            surface_normals(frame, 2)
        with pytest.raises(ConfigError):
            surface_normals(frame, 0)

    def test_stencil_touching_hole_is_invalid(self, make_frame):
        depth = np.full((48, 64), 3.0)
        depth[20, 30] = np.nan
        nm = surface_normals(make_frame(depth), 3)
        # horizontal tangents use x +/- 1, box-averaged over 3x3
        assert not nm.valid[20, 30]
        assert not nm.valid[20, 32]
        assert not nm.valid[21, 31]
        assert not nm.valid[19, 30]
        assert nm.valid[20, 33]
        assert nm.valid[24, 30]

    def test_zero_cross_product_is_degenerate(self):
        cross = np.zeros((3, 2, 2))
        cross[:, 0, 0] = [0.0, 0.0, 1.0]
        points = np.ones((3, 2, 2))
        normals, nonzero = _unit_normals(cross, points)
        assert nonzero[0, 0]
        assert not nonzero[0, 1]
        assert not nonzero[1, 1]

    def test_unit_normals_match_where_oracle_bitwise(self):
        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, 1e-170, -1e-170, 1e200, -1e200, 1.0,
                            -2.5, 5e-324])
        for k in range(40):
            h, w = (int(n) for n in rng.integers(1, 9, size=2))
            cross = rng.normal(0, 1, (3, h, w)) * 10.0 ** rng.integers(-200, 200)
            pick = rng.random((3, h, w)) < 0.5
            cross[pick] = rng.choice(special, size=int(pick.sum()))
            cross[:, rng.random((h, w)) < 0.2] = 0.0  # whole vectors zero
            points = rng.normal(0, 1, (3, h, w)) * 10.0 ** rng.integers(-5, 300)
            points[rng.random((3, h, w)) < 0.2] = -0.0
            with np.errstate(all="ignore"):
                want, want_nonzero = where_unit_normals(cross, points)
                got, nonzero = _unit_normals(cross.copy(), points)
            assert got.tobytes() == want.tobytes(), k
            assert np.array_equal(nonzero, want_nonzero), k

    def test_box_validity_matches_minimum_filter_oracle(self):
        rng = np.random.default_rng(8)
        shapes = [(1, 1), (1, 2), (2, 1), (1, 13), (13, 1), (3, 3), (4, 9),
                  (9, 4)] + [tuple(int(n) for n in rng.integers(1, 16, size=2))
                             for _ in range(12)]
        for h, w in shapes:
            for density in (0.5, 0.9, 1.0):
                ok = rng.random((h, w)) < density
                for window in range(1, 2 * max(h, w) + 2, 2):
                    assert np.array_equal(_box_valid(ok, window),
                                          box_validity(ok, window)), \
                        (h, w, density, window)

    def test_border_pixels_invalid(self, make_frame):
        nm = surface_normals(make_frame(np.full((48, 64), 2.0)), 3)
        assert not nm.valid[0].any()
        assert not nm.valid[:, 0].any()

    def test_oversized_window_yields_no_normals(self, make_frame):
        nm = surface_normals(make_frame(np.full((48, 64), 2.0)), 49)
        assert not nm.valid.any()
        # Windows two or more pixels wider than a side of the frame.
        for h, w, window in ((3, 3, 5), (3, 1, 5), (3, 3, 10**7 + 1)):
            intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=(w - 1) / 2,
                                    cy=(h - 1) / 2, width=w, height=h)
            nm = surface_normals(make_frame(np.full((h, w), 2.0),
                                            intrinsics=intr), window)
            assert nm.normals.shape == (h, w, 3)
            assert not nm.valid.any()

    def test_matches_loop_reference_bitwise(self):
        rng = np.random.default_rng(11)
        for k in range(60):
            h, w = (int(n) for n in rng.integers(1, 13, size=2))
            intr = CameraIntrinsics(fx=float(rng.uniform(20, 600)),
                                    fy=float(rng.uniform(20, 600)),
                                    cx=float(rng.uniform(0, w - 1e-9)),
                                    cy=float(rng.uniform(0, h - 1e-9)),
                                    width=w, height=h)
            yy, xx = np.mgrid[0:h, 0:w]
            depth = (rng.uniform(1, 10) + rng.normal(0, 0.1) * xx
                     + rng.normal(0, 0.1) * yy + rng.normal(0, 1e-3, (h, w)))
            depth[: h // 2, : w // 2] = rng.uniform(1, 10)  # exact plateau
            valid = (rng.random((h, w)) > 0.15) & (depth > 0)
            pose = camera_pose(rng.normal(0, 5, 3), *rng.uniform(-3, 3, 3))
            frame = DepthFrame(depth, valid, intr, pose)
            for window in (1, 3, 5, 2 * max(h, w) + 1):
                nm = surface_normals(frame, window)
                want, want_valid = loop_surface_normals(
                    frame.depth, frame.valid, intr, pose.rotation, window)
                case = f"frame {k} ({h}x{w}), window {window}"
                assert nm.normals.tobytes() == want.tobytes(), case
                assert np.array_equal(nm.valid, want_valid), case


    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_row_blocks_match_loop_reference_bitwise(self, block,
                                                     monkeypatch):
        # Blocks shorter than the window, and frames shorter or narrower
        # than it (no valid pixel), through every block boundary.
        monkeypatch.setattr(costmaps, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(23)
        cases = [((17, 12), 0.0, (0.0, 0.0, 0.0)),
                 ((14, 10), 0.1, (0.0, 0.0, 0.0)),
                 ((15, 11), 0.1, (0.4, -0.7, 2.1)),
                 ((4, 13), 0.1, (0.2, 0.1, -1.0)),
                 ((9, 3), 0.0, (0.0, 0.3, 0.0))]
        for (h, w), holes, angles in cases:
            intr = CameraIntrinsics(fx=float(rng.uniform(20, 600)),
                                    fy=float(rng.uniform(20, 600)),
                                    cx=float(rng.uniform(0, w - 1e-9)),
                                    cy=float(rng.uniform(0, h - 1e-9)),
                                    width=w, height=h)
            yy, xx = np.mgrid[0:h, 0:w]
            depth = (rng.uniform(1, 10) + rng.normal(0, 0.1) * xx
                     + rng.normal(0, 0.1) * yy + rng.normal(0, 1e-3, (h, w)))
            valid = rng.random((h, w)) >= holes
            pose = camera_pose(rng.normal(0, 5, 3), *angles)
            frame = DepthFrame(depth, valid, intr, pose)
            for window in (1, 3, 5, 9):
                nm = surface_normals(frame, window)
                want, want_valid = loop_surface_normals(
                    frame.depth, frame.valid, intr, pose.rotation, window)
                case = f"{h}x{w}, holes {holes}, window {window}"
                assert nm.normals.tobytes() == want.tobytes(), case
                assert np.array_equal(nm.valid, want_valid), case
                if window > min(h, w):
                    assert not nm.valid.any(), case

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_flat_reads_at_buffer_ends_match_loop_reference(self, block,
                                                            monkeypatch):
        # Widths 1-5 and window +/- 1 put the flat corner reads and the
        # wrapped difference reads on the first and last elements of a
        # row and of a buffer; a height one past a multiple of the block
        # makes the last block one row. Holes sit on the first and last
        # rows and columns, alone or among others.
        monkeypatch.setattr(costmaps, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(40 + block)
        for window in (1, 3, 5, 7, 9):
            h = block * (window // block + 1) + 1
            for w in sorted({1, 2, 3, 4, 5, window - 1, window,
                             window + 1} - {0}):
                intr = CameraIntrinsics(fx=float(rng.uniform(20, 600)),
                                        fy=float(rng.uniform(20, 600)),
                                        cx=float(rng.uniform(0, w - 1e-9)),
                                        cy=float(rng.uniform(0, h - 1e-9)),
                                        width=w, height=h)
                yy, xx = np.mgrid[0:h, 0:w]
                depth = (rng.uniform(1, 10) + rng.normal(0, 0.1) * xx
                         + rng.normal(0, 0.1) * yy
                         + rng.normal(0, 1e-3, (h, w)))
                pose = camera_pose(rng.normal(0, 5, 3), *rng.uniform(-3, 3, 3))
                for others in (0.0, 0.1):
                    valid = rng.random((h, w)) >= others
                    valid[0, rng.integers(w)] = False
                    valid[-1, rng.integers(w)] = False
                    valid[rng.integers(h), 0] = False
                    valid[rng.integers(h), -1] = False
                    frame = DepthFrame(depth, valid & (depth > 0), intr, pose)
                    nm = surface_normals(frame, window)
                    want, want_valid = loop_surface_normals(
                        frame.depth, frame.valid, intr, pose.rotation, window)
                    case = f"{h}x{w}, window {window}, holes {others}"
                    assert nm.normals.tobytes() == want.tobytes(), case
                    assert np.array_equal(nm.valid, want_valid), case

    def test_traced_peak_under_16_mb(self, intrinsics_vga):
        # The returned (3, 480, 640) float64 planes alone are 7.4 MB; a
        # full-frame float temporary would add 2.5 MB per plane.
        rng = np.random.default_rng(2)
        yy, xx = np.mgrid[0:480, 0:640]
        depth = 5.0 + 0.002 * xx + 0.001 * yy + rng.normal(0, 0.002, xx.shape)
        frame = DepthFrame(depth, rng.random(xx.shape) > 0.01,
                           intrinsics_vga, camera_pose((0.0, 0.0, 5.0)))
        surface_normals(frame, 3)
        tracemalloc.start()
        try:
            nm = surface_normals(frame, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nm.valid.any()
        assert peak < 16e6, peak


class TestSteepness:
    def _normal_map(self, theta):
        n = np.array([0.0, math.sin(theta), math.cos(theta)])
        normals = np.broadcast_to(n, (4, 4, 3)).copy()
        return NormalMap(normals, np.ones((4, 4), bool))

    def test_up_normal_scores_one(self):
        out = steepness_map(self._normal_map(0.0), math.radians(15))
        assert np.all(out.values == 1.0)

    def test_value_at_tolerance(self):
        out = steepness_map(self._normal_map(math.radians(15)),
                            math.radians(15))
        assert abs(out.values[0, 0] - math.exp(-0.5)) < 1e-9

    def test_value_at_twice_tolerance(self):
        out = steepness_map(self._normal_map(math.radians(30)),
                            math.radians(15))
        assert abs(out.values[0, 0] - math.exp(-2.0)) < 1e-9

    def test_orientation_free(self):
        down = self._normal_map(math.radians(10))
        flipped = NormalMap(-down.normals, down.valid)
        a = steepness_map(down, math.radians(15))
        b = steepness_map(flipped, math.radians(15))
        assert np.array_equal(a.values, b.values)

    def test_strictly_decreasing(self):
        thetas = np.linspace(0.0, math.pi / 2, 50)
        vals = [steepness_map(self._normal_map(t), math.radians(15)).values[0, 0]
                for t in thetas]
        assert np.all(np.diff(vals) < 0)


class TestEnergy:
    def test_point_below_camera(self):
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64, height=48)
        depth = np.full((48, 64), 5.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           camera_pose((0, 0, 5.0)))
        assert energy_map(frame).values[24, 32] == pytest.approx(5.0)

    def test_three_four_five(self):
        # camera at the origin; the pixel 60 px right of the principal
        # point at depth 4 sees the world point (3, 0, 4), 5 m away
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=128,
                                height=48)
        depth = np.full((48, 128), 4.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           Pose(np.eye(3), np.zeros(3)))
        assert energy_map(frame).values[24, 92] == pytest.approx(5.0)

    def test_three_four_five_world_point(self):
        # camera at the origin, principal ray aimed at (3, 4, 0)/5: the
        # principal-point pixel at depth 5 sees exactly (3, 4, 0)
        from landsite.geometry import Pose

        z_axis = np.array([0.6, 0.8, 0.0])
        x_axis = np.array([0.8, -0.6, 0.0])
        y_axis = np.cross(z_axis, x_axis)
        r = np.column_stack([x_axis, y_axis, z_axis])
        pose = Pose(r, np.zeros(3))
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64,
                                height=48)
        depth = np.full((48, 64), 5.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr, pose)
        assert np.allclose(pose.apply([0, 0, 5.0]), [3.0, 4.0, 0.0])
        assert energy_map(frame).values[24, 32] == pytest.approx(5.0)

    def test_equals_world_distance_to_camera(self, intrinsics_small):
        pose = Pose.from_quaternion(0.8, 0.1, -0.4, 0.2, (2.0, -1.0, 8.0))
        rng = np.random.default_rng(12)
        depth = rng.uniform(1.0, 9.0, (48, 64))
        frame = DepthFrame(depth, np.ones_like(depth, bool), intrinsics_small,
                           pose)
        cost = energy_map(frame).values
        pts, valid = backproject(frame)
        world = pose.apply(pts)
        expect = np.linalg.norm(world - pose.translation, axis=-1)
        assert np.max(np.abs(cost - expect)) < 1e-9

    def test_nadir_cost_grows_with_radial_distance(self, intrinsics_small):
        depth = np.full((48, 64), 7.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intrinsics_small,
                           camera_pose((0, 0, 7.0)))
        cost = energy_map(frame).values
        # independent oracle: range = depth * sqrt(1 + u^2 + v^2)
        intr = intrinsics_small
        u = (np.arange(64) - intr.cx) / intr.fx
        v = (np.arange(48) - intr.cy) / intr.fy
        expect = 7.0 * np.sqrt(1.0 + u[None, :] ** 2 + v[:, None] ** 2)
        assert np.allclose(cost, expect, atol=1e-12)
        row = cost[24]
        right = row[32:]
        assert np.all(np.diff(right) > 0)


@st.composite
def _values_and_masks(draw):
    """Up to 6 x 6 values mixing signed zeros, a few repeated levels (so
    degenerate ranges) and any float but NaN, with any validity mask."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    number = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -3.5, 7.25]),
                       st.floats(allow_nan=False))
    values = draw(st.lists(number, min_size=h * w, max_size=h * w))
    valid = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(values).reshape(h, w), np.array(valid).reshape(h, w)


class TestMinmaxNormalize:
    def _map(self, values):
        v = np.array(values, dtype=float).reshape(1, -1)
        return Costmap(v, np.ones_like(v, bool))

    def test_higher_is_better(self):
        out = minmax_normalize(self._map([2, 4, 6]), HIGHER_IS_BETTER)
        assert np.allclose(out.values, [[0.0, 0.5, 1.0]])

    def test_lower_is_better(self):
        out = minmax_normalize(self._map([2, 4, 6]), LOWER_IS_BETTER)
        assert np.allclose(out.values, [[1.0, 0.5, 0.0]])

    def test_degenerate_range_is_half(self):
        out = minmax_normalize(self._map([3, 3, 3]), HIGHER_IS_BETTER)
        assert np.all(out.values == 0.5)

    def test_invalid_pixels_excluded_from_range(self):
        v = np.array([[1.0, 100.0, 3.0]])
        valid = np.array([[True, False, True]])
        out = minmax_normalize(Costmap(v, valid), HIGHER_IS_BETTER)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 2] == 1.0
        assert not out.valid[0, 1]

    @given(_values_and_masks(),
           st.sampled_from([HIGHER_IS_BETTER, LOWER_IS_BETTER]))
    @example((np.array([[-0.0]]), np.array([[True]])), LOWER_IS_BETTER)
    @example((np.array([[2.0, 9.0]]), np.array([[False, True]])),
             HIGHER_IS_BETTER)
    @example((np.array([[2.0, 9.0]]), np.array([[False, False]])),
             HIGHER_IS_BETTER)
    @example((np.array([[-0.0, 0.0, 5.0, -0.0]]), np.ones((1, 4), bool)),
             HIGHER_IS_BETTER)
    @example((np.array([[np.inf, np.inf, 1.0]]),  # hi - lo is NaN
              np.array([[True, True, False]])), LOWER_IS_BETTER)
    @settings(max_examples=300, deadline=None)
    def test_matches_gather_scatter_oracle(self, values_and_mask, orientation):
        """Bit for bit equal to rescaling the gathered valid values.

        numpy's min and max may return either zero when +0.0 and -0.0 tie
        for the extreme (the gathered reduction picks one by SIMD lane
        order), so in that case only the sign of the zeros that the
        zero-valued pixels map to may differ.
        """
        values, valid = values_and_mask
        with np.errstate(all="ignore"):
            got = minmax_normalize(Costmap(values, valid), orientation)
            want = gather_minmax_normalize(values, valid, orientation)
        assert np.array_equal(got.valid, valid)
        same = got.values.view(np.uint64) == want.view(np.uint64)
        vals = values[valid]
        zeros = np.signbit(vals[vals == 0])
        if zeros.any() and not zeros.all() and 0 in (vals.min(), vals.max()):
            same |= (values == 0) & (got.values == want)
        assert same.all()

    @pytest.mark.parametrize("orientation", [HIGHER_IS_BETTER,
                                             LOWER_IS_BETTER])
    def test_all_and_partly_valid_match_gather_bytewise(self, orientation):
        # An all-True mask takes numpy's unmasked passes; any other mask
        # the masked ones. Both give the gathered rescale's bytes.
        rng = np.random.default_rng(17)
        for shape in ((1, 1), (1, 9), (9, 1), (48, 64)):
            for values in (rng.uniform(-5.0, 5.0, shape), np.full(shape, 2.5)):
                for valid in (np.ones(shape, bool), rng.random(shape) < 0.6):
                    got = minmax_normalize(Costmap(values, valid), orientation)
                    want = gather_minmax_normalize(values, valid, orientation)
                    assert got.values.tobytes() == want.tobytes(), shape
                    assert np.array_equal(got.valid, valid)

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ConfigError):
            minmax_normalize(self._map([1, 2]), "sideways")


class TestDecisionMap:
    def test_all_ones_fuse_to_one(self):
        one = uniform_costmap(1.0)
        out = decision_map(one, one, one, one, SIM)
        assert np.all(out.values == 1.0)

    def test_weighted_example(self):
        out = decision_map(uniform_costmap(1.0), uniform_costmap(1.0),
                           uniform_costmap(1.0), uniform_costmap(0.0),
                           SIM)
        assert np.allclose(out.values, 0.85)

    def test_affine_combination_of_halves(self):
        half = uniform_costmap(0.5)
        for config in (SIM, get_profile("real")):
            out = decision_map(half, half, half, half, config)
            assert np.allclose(out.values, 0.5)

    def test_invalid_if_any_input_invalid(self):
        one = uniform_costmap(1.0)
        holey = uniform_costmap(1.0)
        holey.valid[1, 2] = False
        out = decision_map(one, holey, one, one, SIM)
        assert not out.valid[1, 2]
        assert out.valid.sum() == 15

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError):
            decision_map(uniform_costmap(1.0, shape=(3, 3)),
                         uniform_costmap(1.0), uniform_costmap(1.0),
                         uniform_costmap(1.0), SIM)

    @given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_positive_affine_rescale(self, scale, offset):
        rng = np.random.default_rng(11)
        raw = rng.uniform(-3.0, 9.0, (6, 8))
        valid = np.ones((6, 8), bool)
        other = uniform_costmap(0.7, shape=(6, 8))

        def fuse(values):
            m = minmax_normalize(Costmap(values, valid), LOWER_IS_BETTER)
            return decision_map(other, other, other, m, SIM).values

        base = fuse(raw)
        rescaled = fuse(scale * raw + offset)
        assert np.max(np.abs(base - rescaled)) < 1e-9


class TestAttitudeInvariance:
    @pytest.mark.parametrize("slope_deg", [10.0, 25.0, 45.0])
    def test_world_slope_independent_of_camera_attitude(self, slope_deg,
                                                        intrinsics_small):
        from landsite import scene_synth as ss

        rad = math.radians(slope_deg)
        plane = ss.TiltedPlane(point=(0, 0, 0),
                               normal=(0, -math.sin(rad), math.cos(rad)))
        scene = ss.SceneSpec(primitives=(plane,))

        def median_theta(roll, pitch):
            pose = camera_pose((0, 0, 6.0), roll=math.radians(roll),
                               pitch=math.radians(pitch))
            frame, _ = ss.render_depth(scene, intrinsics_small, pose)
            nm = surface_normals(frame, 3)
            theta = np.arccos(np.clip(np.abs(nm.normals[..., 2][nm.valid]),
                                      0, 1))
            return math.degrees(float(np.median(theta)))

        nadir = median_theta(0, 0)
        assert nadir == pytest.approx(slope_deg, abs=0.01)
        for roll, pitch in [(15, 0), (0, 20), (30, 0), (20, 25)]:
            assert abs(median_theta(roll, pitch) - nadir) < 1.0


class TestValidityPropagation:
    def test_garbage_at_invalid_pixels_cannot_leak(self, intrinsics_small):
        depth_a = np.full((48, 64), 4.0)
        depth_b = depth_a.copy()
        valid = np.ones((48, 64), bool)
        valid[13, 17] = False
        depth_a[13, 17] = 9999.0
        depth_b[13, 17] = -123.0
        pose = camera_pose((0, 0, 4.0))
        frame_a = DepthFrame(depth_a, valid, intrinsics_small, pose)
        frame_b = DepthFrame(depth_b, valid, intrinsics_small, pose)
        for frame in (frame_a, frame_b):
            assert frame.depth[13, 17] == 0.0
        flat_a = distance_transform(canny_edges(frame_a, 0.05, 0.2), valid)
        flat_b = distance_transform(canny_edges(frame_b, 0.05, 0.2), valid)
        assert np.array_equal(flat_a.values, flat_b.values)

    def test_decision_never_valid_where_depth_invalid(self, intrinsics_small):
        depth = np.full((48, 64), 4.0)
        valid = np.ones((48, 64), bool)
        valid[10:13, 20:24] = False
        frame = DepthFrame(depth, valid, intrinsics_small,
                           camera_pose((0, 0, 4.0)))
        jde = minmax_normalize(depth_confidence_map(frame), HIGHER_IS_BETTER)
        jfl = minmax_normalize(evaluate_costmaps(get_profile("sim"), frame)
                               .flatness_raw, HIGHER_IS_BETTER)
        jn = steepness_map(surface_normals(frame, 3), math.radians(15))
        jec = minmax_normalize(energy_map(frame), LOWER_IS_BETTER)
        decision = decision_map(jde, jfl, jn, jec, SIM)
        assert not decision.valid[~frame.valid].any()


class TestNoAliasing:
    """The stages compute in place, but only in buffers they allocate."""

    @staticmethod
    def _check(outputs, inputs):
        for out in outputs:
            for arr in inputs:
                assert not np.shares_memory(out, arr)

    def test_stages_leave_inputs_unchanged_and_share_no_memory(
            self, intrinsics_small):
        rng = np.random.default_rng(2)
        depth = 4.0 + rng.normal(0, 0.05, (48, 64))
        valid = rng.random((48, 64)) > 0.1
        frame = DepthFrame(depth, valid, intrinsics_small,
                           camera_pose((1.0, 2.0, 4.0), 0.1, -0.2, 0.3))
        depth0, valid0 = frame.depth.copy(), frame.valid.copy()
        inputs = [frame.depth, frame.valid]

        for window in (1, 3, 5):
            nm = surface_normals(frame, window)
            self._check([nm.normals, nm.valid], inputs)
        energy = energy_map(frame)
        self._check([energy.values, energy.valid], inputs)
        assert frame.depth.tobytes() == depth0.tobytes()
        assert np.array_equal(frame.valid, valid0)

        maps = [depth_confidence_map(frame), energy,
                steepness_map(surface_normals(frame, 3), math.radians(15)),
                distance_transform(canny_edges(frame, 0.05, 0.2), frame.valid)]
        before = [(m.values.tobytes(), m.valid.copy()) for m in maps]
        arrays = [a for m in maps for a in (m.values, m.valid)]
        normalized = [minmax_normalize(m, orientation) for m in maps
                      for orientation in (HIGHER_IS_BETTER, LOWER_IS_BETTER)]
        for m in normalized:
            self._check([m.values, m.valid], arrays)
        fused = decision_map(*maps, SIM)
        self._check([fused.values, fused.valid], arrays)
        for m, (values, mask) in zip(maps, before):
            assert m.values.tobytes() == values
            assert np.array_equal(m.valid, mask)
