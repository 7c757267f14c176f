import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landsite import scene_synth as ss
from landsite.formats import write_json
from landsite.geometry import CameraIntrinsics, Pose, camera_pose, \
    rotation_x, rotation_y, rotation_z

from oracles import backproject, edge_mask_from_prim_ids, \
    reference_render_depth, scene_to_json_obj

# Matrices a scene file may offer as a box rotation that are not one.
NON_ROTATIONS = {
    "scaled_axis": np.diag([0.5, 1.0, 1.0]),
    "reflection": np.diag([1.0, 1.0, -1.0]),
    "all_zero": np.zeros((3, 3)),
    "nan_entry": np.where(np.eye(3) == 1.0, np.nan, 0.0),
    "nearly_orthonormal": np.eye(3) * (1.0 + 1e-6),
}


@pytest.fixture(scope="module")
def intr_centered():
    return CameraIntrinsics(fx=80, fy=80, cx=32, cy=24, width=64, height=48)


class TestRenderBasics:
    def test_ground_plane_depth_at_principal_point(self, intr_centered):
        scene = ss.SceneSpec(primitives=(ss.GroundPlane(z=0.0),))
        frame, _ = ss.render_depth(scene, intr_centered,
                                   camera_pose((0, 0, 10.0)))
        assert frame.depth[24, 32] == pytest.approx(10.0)
        assert frame.valid.all()

    def test_sphere_on_optical_axis(self, intr_centered):
        scene = ss.SceneSpec(primitives=(
            ss.Sphere(center=(0.0, 0.0, 5.0), radius=1.0),))
        frame, truth = ss.render_depth(scene, intr_centered,
                                       Pose(np.eye(3), np.zeros(3)))
        assert frame.depth[24, 32] == pytest.approx(4.0)
        assert np.allclose(truth.normals[24, 32], [0, 0, -1.0])

    def test_out_of_range_hit_is_invalid(self, intr_centered):
        scene = ss.SceneSpec(primitives=(ss.GroundPlane(z=0.0),))
        frame, truth = ss.render_depth(scene, intr_centered,
                                       camera_pose((0, 0, 25.0)))
        assert not frame.valid[24, 32]
        assert frame.depth[24, 32] == 0.0
        assert truth.prim_id[24, 32] == -1

    def test_no_hit_is_invalid(self, intr_centered):
        # camera looking up at nothing but a plane below
        scene = ss.SceneSpec(primitives=(ss.GroundPlane(z=0.0),))
        up = Pose(np.eye(3), np.array([0.0, 0.0, 5.0]))  # optical axis +z
        frame, _ = ss.render_depth(scene, intr_centered, up)
        assert not frame.valid.any()

    def test_camera_inside_solid_rejected(self, intr_centered):
        scene = ss.SceneSpec(primitives=(
            ss.Sphere(center=(0.0, 0.0, 1.0), radius=2.0),))
        with pytest.raises(ValueError):
            ss.render_depth(scene, intr_centered, camera_pose((0, 0, 1.0)))

    def test_box_top_face(self, intr_centered):
        scene = ss.SceneSpec(primitives=(
            ss.GroundPlane(z=0.0),
            ss.Box(center=(0, 0, 0.5), half_extents=(0.5, 0.5, 0.5)),))
        frame, truth = ss.render_depth(scene, intr_centered,
                                       camera_pose((0, 0, 4.0)))
        assert frame.depth[24, 32] == pytest.approx(3.0)
        assert np.allclose(truth.normals[24, 32], [0, 0, 1.0])
        assert truth.prim_id[24, 32] == 1

    def test_rotated_box_tilts_normal(self, intr_centered):
        tilt = math.radians(25.0)
        scene = ss.SceneSpec(primitives=(
            ss.Box(center=(0, 0, 0.0), half_extents=(2.0, 2.0, 0.1),
                   rotation=np.array([[1, 0, 0],
                                      [0, math.cos(tilt), -math.sin(tilt)],
                                      [0, math.sin(tilt), math.cos(tilt)]])),))
        frame, truth = ss.render_depth(scene, intr_centered,
                                       camera_pose((0, 0, 5.0)))
        n = truth.normals[24, 32]
        slope = math.degrees(math.acos(abs(n[2])))
        assert slope == pytest.approx(25.0, abs=1e-6)


class TestGroundTruth:
    def test_plane_equation_after_backprojection(self, intr_centered):
        angle = math.radians(20.0)
        normal = np.array([0.0, -math.sin(angle), math.cos(angle)])
        scene = ss.SceneSpec(primitives=(
            ss.TiltedPlane(point=(0, 0, 0), normal=normal),))
        pose = camera_pose((0.3, -0.2, 6.0))
        frame, _ = ss.render_depth(scene, intr_centered, pose)
        pts, valid = backproject(frame)
        world = pose.apply(pts[valid])
        residual = world @ normal
        assert np.max(np.abs(residual)) < 1e-9

    def test_normals_unit_and_toward_camera(self, intr_centered):
        scene = ss.canonical_scenes()["RUBBLE"]
        pose = camera_pose((0, 0, 5.5))
        frame, truth = ss.render_depth(scene, intr_centered, pose)
        n = truth.normals[frame.valid]
        assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) < 1e-9
        pts, valid = backproject(frame)
        rays = pose.apply(pts[valid]) - pose.translation
        assert np.all(np.sum(truth.normals[valid] * rays, axis=1) <= 1e-12)

    def test_normals_continuous_within_a_primitive(self, intr_centered):
        scene = ss.SceneSpec(primitives=(
            ss.GroundPlane(z=0.0),
            ss.Sphere(center=(0.0, 0.0, 1.0), radius=0.8),))
        frame, truth = ss.render_depth(scene, intr_centered,
                                       camera_pose((0, 0, 4.0)))
        same = (truth.prim_id[:, :-1] == truth.prim_id[:, 1:]) \
            & frame.valid[:, :-1] & frame.valid[:, 1:]
        dots = np.sum(truth.normals[:, :-1] * truth.normals[:, 1:], axis=-1)
        on_ground = same & (truth.prim_id[:, :-1] == 0)
        on_sphere = same & (truth.prim_id[:, :-1] == 1)
        # plane normals are constant; sphere normals turn smoothly with
        # no orientation seams (a flip would read as ~180 degrees)
        assert np.degrees(np.arccos(np.clip(dots[on_ground], -1, 1))).max() \
            < 1e-6
        sphere_angles = np.degrees(np.arccos(np.clip(dots[on_sphere], -1, 1)))
        assert sphere_angles.max() < 90.0

    def test_edge_mask_marks_primitive_transitions(self, intr_centered):
        scene = ss.SceneSpec(primitives=(
            ss.GroundPlane(z=0.0),
            ss.Box(center=(0, 0, 0.25), half_extents=(0.5, 0.5, 0.25)),))
        frame, truth = ss.render_depth(scene, intr_centered,
                                       camera_pose((0, 0, 4.0)))
        mask = edge_mask_from_prim_ids(truth)
        assert mask.any()
        assert not mask[24, 32]  # box center is interior
        ys, xs = np.nonzero(mask)
        ids = truth.prim_id[ys, xs]
        assert set(ids.tolist()) == {0, 1}


class TestDeterminism:
    def test_same_seed_bit_identical(self, intr_centered):
        scene = ss.SceneSpec(primitives=(ss.GroundPlane(z=0.0),),
                             noise_sigma=0.02, seed=9)
        pose = camera_pose((0, 0, 5.0))
        a, _ = ss.render_depth(scene, intr_centered, pose)
        b, _ = ss.render_depth(scene, intr_centered, pose)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.valid, b.valid)

    def test_different_seed_differs(self, intr_centered):
        pose = camera_pose((0, 0, 5.0))
        a, _ = ss.render_depth(ss.SceneSpec((ss.GroundPlane(z=0.0),),
                                            noise_sigma=0.02, seed=1),
                               intr_centered, pose)
        b, _ = ss.render_depth(ss.SceneSpec((ss.GroundPlane(z=0.0),),
                                            noise_sigma=0.02, seed=2),
                               intr_centered, pose)
        assert not np.array_equal(a.depth, b.depth)

    def test_rubble_same_seed_identical(self):
        intr = ss.default_intrinsics()
        pose = ss.canonical_camera("RUBBLE")
        a, _ = ss.render_depth(ss.canonical_scenes(seed=7)["RUBBLE"], intr, pose)
        b, _ = ss.render_depth(ss.canonical_scenes(seed=7)["RUBBLE"], intr, pose)
        assert np.array_equal(a.depth, b.depth)


class TestCanonicalScenes:
    def test_provides_required_set(self):
        scenes = ss.canonical_scenes()
        assert set(scenes) >= {"FLAT_PAD", "STEEP_WALL", "TREE", "ROOF_EDGE",
                               "RUBBLE"}

    def test_flat_pad_safe_mask_nonempty(self):
        intr = ss.default_intrinsics()
        frame, truth = ss.render_depth(ss.canonical_scenes()["FLAT_PAD"], intr,
                                       ss.canonical_camera("FLAT_PAD"))
        assert truth.safe_mask.sum() > 1000

    def test_steep_wall_safe_mask_empty(self):
        intr = ss.default_intrinsics()
        frame, truth = ss.render_depth(ss.canonical_scenes()["STEEP_WALL"],
                                       intr, ss.canonical_camera("STEEP_WALL"))
        assert truth.safe_mask.sum() == 0
        # the wall really is steeper than tolerable everywhere
        slopes = np.degrees(np.arccos(np.abs(truth.normals[frame.valid][:, 2])))
        assert np.all(slopes > 15.0)


class TestSceneJson:
    def test_round_trip(self, tmp_path):
        scene = ss.canonical_scenes(seed=3)["RUBBLE"]
        path = tmp_path / "scene.json"
        write_json(path, scene_to_json_obj(scene))
        loaded = ss.load_scene(path)
        assert len(loaded.primitives) == len(scene.primitives)
        for a, b in zip(loaded.primitives, scene.primitives):
            assert type(a) is type(b)
            assert a.safe == b.safe
            if isinstance(a, ss.Box):
                assert np.allclose(a.center, b.center)
                assert np.allclose(a.half_extents, b.half_extents)
                assert np.allclose(a.rotation, b.rotation)
        # rendering the reloaded scene reproduces the frame
        intr = ss.default_intrinsics()
        pose = ss.canonical_camera("RUBBLE")
        orig, _ = ss.render_depth(scene, intr, pose)
        again, _ = ss.render_depth(loaded, intr, pose)
        assert np.allclose(orig.depth, again.depth, atol=1e-12)

    def test_rejects_unknown_primitive(self):
        with pytest.raises(ValueError):
            ss.scene_from_json_obj({"primitives": [{"type": "torus"}]})


class TestSpecValidation:
    def test_needs_primitives(self):
        with pytest.raises(ValueError):
            ss.SceneSpec(primitives=())

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ss.SceneSpec(primitives=(ss.GroundPlane(z=0.0),), noise_sigma=-0.1)

    def test_rejects_degenerate_primitives(self):
        with pytest.raises(ValueError):
            ss.Sphere(center=(0, 0, 0), radius=0.0)
        with pytest.raises(ValueError):
            ss.Box(center=(0, 0, 0), half_extents=(1, 0, 1))
        with pytest.raises(ValueError):
            ss.TiltedPlane(point=(0, 0, 0), normal=(0, 0, 0))

    def test_ground_plane_and_unrotated_box_are_general_shapes(self):
        plane = ss.GroundPlane(z=1.5, safe=True)
        assert isinstance(plane, ss.TiltedPlane) and plane.safe
        assert plane.z == 1.5
        assert plane.point.tolist() == [0.0, 0.0, 1.5]
        assert plane.normal.tolist() == [0.0, 0.0, 1.0]
        box = ss.Box(center=(0, 0, 0), half_extents=(1, 1, 1))
        assert box.rotation.tolist() == np.eye(3).tolist()

    def test_plane_normal_too_long_to_square(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = ss.TiltedPlane(point=(0, 0, 0), normal=(0.1, 0, 1e200))
        assert np.allclose(plane.normal, [0.0, 0.0, 1.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(NON_ROTATIONS))
    def test_box_refuses_what_pose_refuses(self, name):
        rotation = NON_ROTATIONS[name]
        with pytest.raises(ValueError, match="rotation"):
            ss.Box(center=(0, 0, 0), half_extents=(1, 1, 1), rotation=rotation)
        with pytest.raises(ValueError, match="rotation"):
            Pose(rotation, np.zeros(3))

    @pytest.mark.parametrize("kind,field", [
        (ss.Box, "center"), (ss.Box, "half_extents"), (ss.Sphere, "center"),
        (ss.Sphere, "radius"), (ss.TiltedPlane, "point"),
        (ss.TiltedPlane, "normal"), (ss.GroundPlane, "z")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_primitives_refuse_non_finite_fields(self, kind, field, value):
        valid = {ss.Box: {"center": [0.0, 0.0, 0.0],
                          "half_extents": [1.0, 1.0, 1.0]},
                 ss.Sphere: {"center": [0.0, 0.0, 0.0], "radius": 1.0},
                 ss.TiltedPlane: {"point": [0.0, 0.0, 0.0],
                                  "normal": [0.0, 0.0, 1.0]},
                 ss.GroundPlane: {"z": 0.0}}[kind]
        if isinstance(valid[field], list):
            valid[field][1] = value
        else:
            valid[field] = value
        with pytest.raises(ValueError):
            kind(**valid)


# A small frame keeps each unculled reference render cheap; its half field
# of view is about 0.67 rad across and 0.49 rad down.
CULL_INTRINSICS = CameraIntrinsics(fx=60.0, fy=60.0, cx=39.5, cy=29.5,
                                   width=80, height=60)
ANGLE = st.floats(-math.pi, math.pi)
SIZE = st.floats(0.02, 1.5)


@st.composite
def culling_cases(draw):
    """(scene, pose): a camera at any attitude, with boxes and spheres
    placed in its own frame so they fall in view, across the image
    border, wholly off screen, or partly or wholly behind it. One box in
    four has one 1e300 half extent."""
    pose = camera_pose((draw(st.floats(-2, 2)), draw(st.floats(-2, 2)),
                        draw(st.floats(1, 8))),
                       roll=draw(ANGLE), pitch=draw(ANGLE), yaw=draw(ANGLE))
    prims = [ss.GroundPlane(z=0.0)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 5))):
        local = (draw(st.floats(-6, 6)), draw(st.floats(-6, 6)),
                 draw(st.floats(0.5, 12) | st.floats(-3, 12)))
        center = pose.apply(np.array(local))
        safe = draw(st.booleans())
        if draw(st.integers(0, 2)) == 0:
            prims.append(ss.Sphere(center=center, radius=draw(SIZE), safe=safe))
            continue
        half = [draw(SIZE) for _ in range(3)]
        huge_axis = draw(st.integers(0, 11))
        if huge_axis < 3:
            half[huge_axis] = 1e300
        rotation = None if draw(st.booleans()) else \
            rotation_z(draw(ANGLE)) @ rotation_y(draw(ANGLE)) @ rotation_x(draw(ANGLE))
        prims.append(ss.Box(center=center, half_extents=half,
                            rotation=rotation, safe=safe))
    scene = ss.SceneSpec(prims, noise_sigma=0.002,
                         seed=draw(st.integers(0, 2**32 - 1)))
    return scene, pose


# A box 2e307 m wide under a sphere, seen from above: its corners are in
# front of the camera but project to infinite pixel coordinates.
NON_FINITE_CASE = (
    ss.SceneSpec((ss.GroundPlane(z=-2.0),
                  ss.Box(center=(0, 0, -1.0), half_extents=(1e307, 1e307, 0.5),
                         rotation=rotation_z(0.4)),
                  ss.Sphere(center=(0.5, 0.3, 0.2), radius=0.4)),
                 noise_sigma=0.002, seed=5),
    camera_pose((0.0, 0.0, 5.0)))
# A wall 2e300 m tall and long beside the camera: it fills part of the
# frame, and half its corners lie behind the camera.
BEHIND_CASE = (
    ss.SceneSpec((ss.GroundPlane(z=0.0),
                  ss.Box(center=(3.0, 0, 0), half_extents=(1.0, 1e300, 1e300),
                         rotation=rotation_z(0.2), safe=True),
                  ss.Sphere(center=(-1.0, 0.5, 1.0), radius=0.4)),
                 noise_sigma=0.002, seed=6),
    camera_pose((0.0, 0.0, 5.0), roll=0.3, yaw=0.2))
# A box and a sphere outside the field of view, both skipped.
OFF_SCREEN_CASE = (
    ss.SceneSpec((ss.GroundPlane(z=0.0),
                  ss.Box(center=(9.0, 0.0, 0.5), half_extents=(0.5,) * 3,
                         rotation=rotation_x(0.3)),
                  ss.Sphere(center=(0.0, -9.0, 0.5), radius=0.5)),
                 noise_sigma=0.002, seed=7),
    camera_pose((0.0, 0.0, 5.0)))


def assert_renders_match(scene, pose, intrinsics=CULL_INTRINSICS):
    """The culled render equals the unculled reference byte for byte:
    depth, valid mask, normals, primitive ids and safe mask. A camera
    inside a solid must be refused by both."""
    try:
        # The reference warns where huge boxes overflow; the renderer does not.
        with np.errstate(over="ignore", invalid="ignore"):
            ref_frame, ref_truth = reference_render_depth(scene, intrinsics,
                                                          pose)
    except ValueError:
        with pytest.raises(ValueError):
            ss.render_depth(scene, intrinsics, pose)
        return
    frame, truth = ss.render_depth(scene, intrinsics, pose)
    for got, want in [(frame.depth, ref_frame.depth),
                      (frame.valid, ref_frame.valid),
                      (truth.normals, ref_truth.normals),
                      (truth.prim_id, ref_truth.prim_id),
                      (truth.safe_mask, ref_truth.safe_mask)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestScreenSpaceCulling:
    """``render_depth`` casts each box and sphere only over its screen
    window; ``reference_render_depth`` casts everything everywhere."""

    @given(culling_cases())
    @example(NON_FINITE_CASE)
    @example(BEHIND_CASE)
    @example(OFF_SCREEN_CASE)
    @settings(max_examples=150, deadline=None)
    def test_matches_unculled_reference(self, case):
        assert_renders_match(*case)

    @pytest.mark.parametrize("name", sorted(ss.canonical_scenes()))
    def test_canonical_scenes_match_at_full_size(self, name):
        scene = ss.canonical_scenes(seed=11)[name]
        scene = ss.SceneSpec(scene.primitives, noise_sigma=0.002, seed=11)
        assert_renders_match(scene, ss.canonical_camera(name, (0.7, -0.4)),
                             ss.default_intrinsics())

    @pytest.mark.parametrize("case,window", [
        (NON_FINITE_CASE, "whole"), (BEHIND_CASE, "whole"),
        (OFF_SCREEN_CASE, None)])
    def test_window_falls_back_or_skips(self, case, window):
        scene, pose = case
        box = scene.primitives[1]
        got = ss._screen_window(ss._box_corners(box, pose.translation),
                                CULL_INTRINSICS, pose.rotation)
        assert got == ((slice(None), slice(None)) if window else None)
