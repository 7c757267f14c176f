import numpy as np
import pytest

from landsite.canny import detect_edges
from landsite.costmaps import canny_edges
from landsite.errors import ConfigError

from oracles import naive_canny


def test_constant_plane_has_no_edges(make_frame):
    frame = make_frame(np.full((48, 64), 3.0))
    edges = canny_edges(frame, 0.05, 0.2)
    assert edges.bits.sum() == 0


def test_step_edge_is_single_pixel_chain(make_frame):
    depth = np.full((48, 64), 2.0)
    depth[:, 32:] = 5.0
    frame = make_frame(depth)
    bits = canny_edges(frame, 0.05, 0.2).bits
    # exactly one edge pixel per row, all in the same column pair
    assert np.all(bits.sum(axis=1) == 1)
    cols = np.nonzero(bits)[1]
    assert len(set(cols.tolist())) == 1
    assert cols[0] in (31, 32)


def test_horizontal_step_edge(make_frame):
    depth = np.full((48, 64), 2.0)
    depth[24:, :] = 4.0
    bits = canny_edges(make_frame(depth), 0.05, 0.2).bits
    assert np.all(bits.sum(axis=0) == 1)


def test_threshold_order_enforced(make_frame):
    frame = make_frame(np.full((48, 64), 3.0))
    with pytest.raises(ConfigError):
        canny_edges(frame, 0.3, 0.2)
    with pytest.raises(ConfigError):
        canny_edges(frame, 0.0, 0.2)


def test_invalid_pixels_and_neighbors_forced(make_frame):
    depth = np.full((48, 64), 3.0)
    depth[20, 30] = np.nan
    frame = make_frame(depth)
    bits = canny_edges(frame, 0.05, 0.2).bits
    assert np.all(bits[19:22, 29:32] == 1)
    assert bits[17, 30] == 0  # two pixels away is untouched


def _random_scene(rng, h, w, holes=None, integer_steps=False):
    """A sloped, noisy depth frame with random steps and spikes, or, with
    ``integer_steps``, noise-free blocks of whole-meter depths whose edges
    tie in gradient magnitude. ``holes`` is None, "inside" (10 random
    pixels) or "border" (10 random pixels on the image border)."""
    if integer_steps:
        levels = rng.integers(2, 6, (h // 5 + 1, w // 5 + 1)).astype(float)
        depth = np.kron(levels, np.ones((5, 5)))[:h, :w]
    else:
        yy, xx = np.mgrid[0:h, 0:w]
        depth = 3.0 + 0.004 * xx + 0.002 * yy
        depth += 0.8 * (rng.random((h, w)) < 0.01)
        if rng.random() < 0.5:
            depth[:, w // 2:] += rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            depth[h // 3:, :] += rng.uniform(0.3, 1.0)
        depth += rng.normal(0.0, 0.02, (h, w))
    valid = np.ones((h, w), bool)
    if holes == "inside":
        valid[rng.integers(0, h, 10), rng.integers(0, w, 10)] = False
    elif holes == "border":
        border = np.argwhere(~np.pad(np.ones((h - 2, w - 2), bool), 1))
        valid[tuple(border[rng.integers(0, len(border), 10)].T)] = False
    return np.where(valid, depth, 0.0), valid


# The first four ids name the seed and whether the frame has holes.
@pytest.mark.parametrize("seed,shape,holes,integer_steps", [
    pytest.param(0, (40, 56), None, False, id="0-False"),
    pytest.param(1, (40, 56), None, False, id="1-False"),
    pytest.param(2, (40, 56), "inside", False, id="2-True"),
    pytest.param(3, (40, 56), "inside", False, id="3-True"),
    # frames narrower than the 7-tap Gaussian
    pytest.param(4, (1, 1), None, False, id="1x1"),
    pytest.param(5, (1, 9), "inside", False, id="1x9-holes"),
    pytest.param(6, (9, 1), None, False, id="9x1"),
    pytest.param(7, (2, 3), "border", False, id="2x3-border-holes"),
    # whole-meter steps: NMS ties decide which side of an edge survives
    pytest.param(8, (40, 56), None, True, id="integer-steps"),
    pytest.param(9, (40, 56), "inside", True, id="integer-steps-holes"),
    pytest.param(10, (40, 56), "border", False, id="border-holes"),
    pytest.param(11, (40, 56), "border", True,
                 id="integer-steps-border-holes"),
])
def test_matches_independent_reimplementation(seed, shape, holes,
                                              integer_steps):
    rng = np.random.default_rng(seed)
    depth, valid = _random_scene(rng, *shape, holes, integer_steps)
    assert np.array_equal(detect_edges(depth, valid, 0.05, 0.2),
                          naive_canny(depth, valid, 0.05, 0.2))


def test_matches_reimplementation_at_tight_thresholds():
    rng = np.random.default_rng(9)
    depth, valid = _random_scene(rng, 32, 40, "inside")
    assert np.array_equal(detect_edges(depth, valid, 0.02, 0.02),
                          naive_canny(depth, valid, 0.02, 0.02))
