import numpy as np
import pytest

from landsite.canny import detect_edges
from landsite.costmaps import canny_edges
from landsite.errors import ConfigError

from oracles import dilated_holes, naive_canny, naive_gradients


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


# Suppression runs only where the magnitude reaches ``low``; these pin it
# against the whole-frame reference where that set is empty, is every
# pixel, sits exactly on a threshold, or touches the frame's border.

def _magnitude(depth, valid):
    return np.array(naive_gradients(depth, valid)[2])


def _assert_matches_reference(depth, valid, low, high):
    edges = detect_edges(depth, valid, low, high)
    assert np.array_equal(edges, naive_canny(depth, valid, low, high))
    return edges


def test_no_candidate_pixel():
    rng = np.random.default_rng(20)
    depth = 3.0 + rng.normal(0.0, 1e-4, (24, 31))
    valid = np.ones(depth.shape, bool)
    assert _magnitude(depth, valid).max() < 0.05
    edges = _assert_matches_reference(depth, valid, 0.05, 0.2)
    assert not edges.any()


@pytest.mark.parametrize("shape", [(24, 31), (1, 17), (17, 1)])
def test_every_pixel_a_candidate(shape):
    # A 1 m/px ramp along both axes with 0.2 m noise: every magnitude,
    # the clamped border's included, is far above ``low``, and the noise
    # spreads the gradients over all four direction classes.
    rng = np.random.default_rng(21)
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    depth = 3.0 + 1.0 * xx + 0.7 * yy + rng.normal(0.0, 0.2, shape)
    valid = np.ones(shape, bool)
    assert _magnitude(depth, valid).min() >= 0.05
    edges = _assert_matches_reference(depth, valid, 0.05, 0.2)
    assert 0 < edges.sum() < edges.size


@pytest.mark.parametrize("seed", range(4))
def test_magnitude_exactly_at_a_threshold(seed):
    rng = np.random.default_rng(30 + seed)
    depth, valid = _random_scene(rng, 32, 40)
    mag = _magnitude(depth, valid)
    top = float(mag.max())
    # low == high == the largest magnitude: only that pixel passes, and
    # only with ``>=`` at both thresholds.
    edges = _assert_matches_reference(depth, valid, top, top)
    assert edges.sum() == np.count_nonzero(mag == top) == 1
    # thresholds that are magnitudes of pixels inside the frame
    for q_low, q_high in ((0.5, 0.9), (0.8, 0.8), (0.9, 0.99)):
        low = float(np.quantile(mag, q_low, method="lower"))
        high = float(np.quantile(mag, q_high, method="lower"))
        _assert_matches_reference(depth, valid, low, high)


@pytest.mark.parametrize("seed", range(6))
def test_candidates_on_every_border_row_and_column(seed):
    # Steps one pixel inside each border make the strongest magnitudes lie
    # on the first and last rows and columns, where one neighbour of most
    # classes is outside the frame and counts as 0.
    rng = np.random.default_rng(40 + seed)
    h, w = rng.integers(5, 20, size=2)
    depth = 3.0 + rng.normal(0.0, 0.02, (h, w))
    depth[:, 0] += rng.uniform(0.5, 2.0)
    depth[:, -1] -= rng.uniform(0.5, 2.0)
    depth[0, :] += rng.uniform(0.5, 2.0)
    depth[-1, :] -= rng.uniform(0.5, 2.0)
    valid = np.ones((h, w), bool)
    mag = _magnitude(depth, valid)
    for border in (mag[0], mag[-1], mag[:, 0], mag[:, -1]):
        assert (border >= 0.05).any()
    edges = _assert_matches_reference(depth, valid, 0.05, 0.2)
    for border in (edges[0], edges[-1], edges[:, 0], edges[:, -1]):
        assert border.any()
    # Millimetre noise and ``low`` at the smallest magnitude: every pixel
    # is a candidate, and a border pixel's magnitude is small enough that
    # an outside neighbour read as anything much above 0 would suppress it.
    depth = 3.0 + rng.normal(0.0, 1e-3, (h, w))
    mag = _magnitude(depth, valid)
    low = float(mag.min())
    assert low > 0.0
    _assert_matches_reference(depth, valid, low,
                              float(np.quantile(mag, 0.8, method="lower")))


@pytest.mark.parametrize("shape", [(1, 23), (23, 1), (1, 2), (2, 1)])
def test_one_pixel_wide_frames(shape):
    rng = np.random.default_rng(50)
    steps = rng.choice([0.0, 0.0, 0.6, -0.4], max(shape))
    depth = (3.0 + np.cumsum(steps)).reshape(shape)
    valid = np.ones(shape, bool)
    assert (_magnitude(depth, valid) >= 0.05).any()
    _assert_matches_reference(depth, valid, 0.05, 0.2)


@pytest.mark.parametrize("shape", [(24, 31), (1, 13), (13, 1), (1, 1),
                                   (2, 2), (3, 1)])
def test_invalid_forcing_equals_binary_dilation(shape):
    # Thresholds no magnitude reaches leave only the forced pixels.
    rng = np.random.default_rng(60)
    depth = rng.uniform(2.0, 6.0, shape)
    for frac in (0.0, 0.02, 0.3, 1.0):
        for _ in range(10):
            valid = rng.random(shape) >= frac
            edges = detect_edges(depth, valid, 1e300, 1e300)
            assert np.array_equal(edges, dilated_holes(valid))
    border = np.ones(shape, bool)
    border[1:-1, 1:-1] = False
    for y, x in np.argwhere(border):  # one hole on each border pixel
        valid = np.ones(shape, bool)
        valid[y, x] = False
        edges = detect_edges(depth, valid, 1e300, 1e300)
        assert np.array_equal(edges, dilated_holes(valid))
