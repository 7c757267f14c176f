import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landsite.detection import world_positions
from landsite.geometry import (
    CameraIntrinsics,
    DepthFrame,
    Pose,
    camera_planes,
    camera_pose,
    project_points,
    project_uav_radius,
)

from oracles import homogeneous_pixel_to_world


def unit_quaternions():
    component = st.floats(-1.0, 1.0, allow_nan=False)
    return st.tuples(component, component, component, component).filter(
        lambda q: sum(c * c for c in q) > 1e-4)


class TestIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=80.0, cx=1, cy=1, width=4, height=4)

    @pytest.mark.parametrize("fx,fy", [(0.999, 80.0), (80.0, 1e-310)])
    def test_rejects_focal_below_one_px(self, fx, fy):
        with pytest.raises(ValueError, match="at least 1 px"):
            CameraIntrinsics(fx=fx, fy=fy, cx=1, cy=1, width=4, height=4)
        CameraIntrinsics(fx=1.0, fy=1.0, cx=1, cy=1, width=4, height=4)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=80, fy=80, cx=4.0, cy=1.0, width=4, height=4)


def assert_quaternion_contract(pose):
    """``to_quaternion`` gives a unit quaternion with w >= 0 that
    ``from_quaternion`` reads back as the same rotation."""
    q = pose.to_quaternion()
    assert q[0] >= 0
    assert abs(math.sqrt(sum(c * c for c in q)) - 1.0) <= 1e-15
    again = Pose.from_quaternion(*q, pose.translation)
    np.testing.assert_allclose(again.rotation, pose.rotation, rtol=0,
                               atol=4e-15)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))

    @pytest.mark.parametrize("translation", [(1.0, 2.0, 3.0), np.ones((3, 1))])
    def test_arrays_cannot_be_made_writeable(self, translation):
        pose = Pose(np.eye(3), translation)
        for array in (pose.rotation, pose.translation):
            with pytest.raises(ValueError):
                array[0] = 5.0
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_rejects_zero_quaternion(self):
        with pytest.raises(ValueError):
            Pose.from_quaternion(0.0, 0.0, 0.0, 0.0, (0, 0, 0))

    def test_quaternion_is_normalized_on_load(self):
        p = Pose.from_quaternion(2.0, 0.0, 0.0, 0.0, (1, 2, 3))
        assert np.allclose(p.rotation, np.eye(3), atol=1e-12)

    @given(unit_quaternions())
    @settings(max_examples=60, deadline=None)
    def test_quaternion_round_trip(self, q):
        pose = Pose.from_quaternion(*q, (0.5, -1.0, 2.0))
        qw, qx, qy, qz = pose.to_quaternion()
        again = Pose.from_quaternion(qw, qx, qy, qz, pose.translation)
        assert np.allclose(again.rotation, pose.rotation, atol=1e-9)

    @pytest.mark.parametrize("position", [(0.0, 0.0, 5.0), (3.5, -2.0, 10.5),
                                          (-1e5, 1e5, 0.1), (0.0, 0.0, 2e3)])
    def test_nadir_camera_writes_canonical_quaternion(self, position):
        # the pose every synth and benchmark stream writes: a half turn
        # about world x, stored with positive zeros
        q = camera_pose(position).to_quaternion()
        assert q == (0.0, 1.0, 0.0, 0.0)
        assert [math.copysign(1.0, c) for c in q] == [1.0] * 4

    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                      (0.6, -0.8, 0.0)])
    def test_half_turn_quaternion(self, axis):
        # w = 0: either sign of (x, y, z) is the same rotation
        u = np.array(axis, dtype=float)
        assert_quaternion_contract(Pose(2 * np.outer(u, u) - np.eye(3),
                                        np.zeros(3)))

    @given(unit_quaternions())
    @settings(max_examples=200, deadline=None)
    def test_quaternion_contract(self, q):
        assert_quaternion_contract(Pose.from_quaternion(*q, (0.0, 0.0, 0.0)))

    @given(unit_quaternions(),
           st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, q, t):
        pose = Pose.from_quaternion(*q, t)
        pts = np.array([[0.3, -0.7, 2.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        rt = pose.rotation.T
        inverse = Pose(rt, -(rt @ pose.translation))
        back = inverse.apply(pose.apply(pts))
        assert np.max(np.abs(back - pts)) < 1e-9


def points_grid(frame):
    return np.moveaxis(camera_planes(frame), 0, -1)


class TestBackprojection:
    def test_principal_point_ray(self, make_frame, intrinsics_small):
        frame = make_frame(np.full((48, 64), 2.0))
        pts = points_grid(frame)
        cy, cx = 23, 31  # nearest integer pixel is offset from (cx, cy)
        x, y = 40, 30
        intr = intrinsics_small
        expect = np.array([2.0 * (x - intr.cx) / intr.fx,
                           2.0 * (y - intr.cy) / intr.fy, 2.0])
        assert np.allclose(pts[y, x], expect)

    def test_exact_principal_point(self):
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64, height=48)
        depth = np.full((48, 64), 2.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           Pose(np.eye(3), np.zeros(3)))
        pts = points_grid(frame)
        assert np.allclose(pts[24, 32], [0.0, 0.0, 2.0])

    def test_45_degree_ray(self):
        intr = CameraIntrinsics(fx=10, fy=10, cx=8, cy=8, width=32, height=32)
        depth = np.ones((32, 32))
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           Pose(np.eye(3), np.zeros(3)))
        pts = points_grid(frame)
        # pixel at cx + fx with depth 1 backprojects to x = z = 1
        assert np.allclose(pts[8, 18], [1.0, 0.0, 1.0])

    def test_invalid_pixels_masked(self, make_frame):
        depth = np.full((48, 64), 3.0)
        depth[10, 10] = np.nan
        frame = make_frame(depth)
        pts = points_grid(frame)
        assert not frame.valid[10, 10]
        assert np.all(pts[10, 10] == 0.0)

    def test_project_backproject_round_trip(self, make_frame, intrinsics_small):
        rng = np.random.default_rng(5)
        frame = make_frame(rng.uniform(0.5, 9.0, (48, 64)))
        pts = points_grid(frame)
        px = project_points(pts, intrinsics_small)
        xs = np.arange(64)[None, :].repeat(48, axis=0)
        ys = np.arange(48)[:, None].repeat(64, axis=1)
        assert np.max(np.abs(px[..., 0] - xs)) < 1e-6
        assert np.max(np.abs(px[..., 1] - ys)) < 1e-6


class TestTransformPoints:
    def test_identity(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(Pose(np.eye(3), np.zeros(3)).apply(pts), pts)

    def test_pure_translation(self):
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 5.0]))
        assert np.allclose(pose.apply([0.0, 0.0, 2.0]), [0.0, 0.0, 7.0])

    def test_90_degree_yaw(self):
        c, s = 0.0, 1.0
        r = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        pose = Pose(r, np.zeros(3))
        assert np.allclose(pose.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                           atol=1e-12)


class TestProjectUavRadius:
    def test_direct_formula(self):
        intr = CameraIntrinsics(fx=300, fy=300, cx=160, cy=120,
                                width=320, height=240)
        assert project_uav_radius(0.13, 5.0, intr) == pytest.approx(7.8)

    def test_inverse_proportional_to_depth(self):
        intr = CameraIntrinsics(fx=300, fy=300, cx=160, cy=120,
                                width=320, height=240)
        r1 = project_uav_radius(0.13, 4.0, intr)
        r2 = project_uav_radius(0.13, 8.0, intr)
        assert r1 == pytest.approx(2 * r2)

    def test_at_max_range(self):
        intr = CameraIntrinsics(fx=300, fy=300, cx=160, cy=120,
                                width=320, height=240)
        assert project_uav_radius(0.13, 20.0, intr) == pytest.approx(1.95)

    def test_rejects_nonpositive_depth(self, intrinsics_small):
        with pytest.raises(ValueError):
            project_uav_radius(0.13, 0.0, intrinsics_small)
        with pytest.raises(ValueError):
            project_uav_radius(0.13, -1.0, intrinsics_small)

    def test_strictly_decreasing_in_depth(self, intrinsics_small):
        depths = np.linspace(0.1, 20.0, 200)
        radii = project_uav_radius(0.13, depths, intrinsics_small)
        assert np.all(np.diff(radii) < 0)


class TestPixelToWorld:
    """Pixel -> world lifting, as ``world_positions`` does it for candidates."""

    def test_identity_pose_principal_point(self, candidates_at):
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64, height=48)
        depth = np.full((48, 64), 3.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           Pose(np.eye(3), np.zeros(3)))
        world = world_positions(candidates_at(frame, [(32, 24)]), frame)
        assert np.allclose(world[0], [0, 0, 3.0])

    def test_nadir_camera_hits_origin(self, candidates_at):
        intr = CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64, height=48)
        depth = np.full((48, 64), 10.0)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                           camera_pose((0, 0, 10.0)))
        world = world_positions(candidates_at(frame, [(32, 24)]), frame)
        assert np.allclose(world[0], [0, 0, 0], atol=1e-12)

    def test_invalid_pixel_raises(self, make_frame, candidates_at):
        depth = np.full((48, 64), 3.0)
        depth[5, 7] = np.nan
        frame = make_frame(depth)
        with pytest.raises(ValueError):
            world_positions(candidates_at(frame, [(7, 5)]), frame)

    def test_composed_rotation_matches_homogeneous_oracle(self, intrinsics_small,
                                                          candidates_at):
        pose = Pose.from_quaternion(0.9, 0.2, -0.3, 0.1, (1.5, -2.0, 7.0))
        depth = np.full((48, 64), 4.2)
        frame = DepthFrame(depth, np.ones_like(depth, bool), intrinsics_small,
                           pose)
        pixels = [(0, 0), (63, 47), (20, 33), (31, 23)]
        world = world_positions(candidates_at(frame, pixels), frame)
        for pixel, got in zip(pixels, world):
            expect = homogeneous_pixel_to_world(pixel, 4.2, intrinsics_small,
                                                pose.rotation, pose.translation)
            assert np.allclose(got, expect, atol=1e-12)


class TestDepthFrame:
    def test_canonicalizes_invalid_depth_to_zero(self, intrinsics_small):
        depth = np.full((48, 64), 2.0)
        valid = np.ones((48, 64), bool)
        valid[3, 4] = False
        depth[3, 4] = 123.0  # garbage that must not survive
        frame = DepthFrame(depth, valid, intrinsics_small,
                           Pose(np.eye(3), np.zeros(3)))
        assert frame.depth[3, 4] == 0.0

    def test_rejects_nonpositive_valid_depth(self, intrinsics_small):
        depth = np.zeros((48, 64))
        valid = np.ones((48, 64), bool)
        with pytest.raises(ValueError):
            DepthFrame(depth, valid, intrinsics_small,
                       Pose(np.eye(3), np.zeros(3)))

