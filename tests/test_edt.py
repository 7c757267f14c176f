"""The flatness EDT equals an O(N^2) brute force exactly.

``distance_transform`` returns float64 distances, and each is checked
with ``np.array_equal`` against the square root of the brute-force
integer squared distance, with no tolerance. That is still an exact
check of the squared distances: for integers a < b <= H^2 + W^2,
sqrt(b) - sqrt(a) = (b - a) / (sqrt(b) + sqrt(a)) >= 1 / (2 sqrt(b)),
far above one ulp of sqrt(b) at these sizes, so distinct squared
distances never round to the same float64 distance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from landsite.costmaps import BinaryMap, distance_transform

from oracles import brute_force_squared_edt, scipy_flatness


def edt(bits) -> np.ndarray:
    """Flatness distances of ``bits`` with every pixel valid."""
    edges = BinaryMap(bits)
    flat = distance_transform(edges, np.ones(edges.bits.shape, bool))
    assert flat.values.dtype == np.float64 and flat.valid.all()
    return flat.values


def brute_force_edt(bits) -> np.ndarray:
    return np.sqrt(brute_force_squared_edt(bits).astype(np.float64))


def test_edge_pixel_is_zero():
    bits = np.zeros((32, 32), np.uint8)
    bits[10, 20] = 1
    assert edt(bits)[10, 20] == 0.0


def test_three_four_five_offset():
    # Sole interior edge pixel, probe at offset (3, 4), far from the
    # border ring so the ring cannot be the nearest site.
    bits = np.zeros((256, 256), np.uint8)
    bits[100, 100] = 1
    d = edt(bits)
    assert d[104, 103] == 5.0


def test_border_ring_bounds_empty_map():
    # With no edges at all, the virtual ring just outside the image is
    # the nearest site everywhere: distance at (x, y) is
    # min(x, y, W-1-x, H-1-y) + 1.
    bits = np.zeros((20, 30), np.uint8)
    d = edt(bits)
    ys, xs = np.mgrid[0:20, 0:30]
    expect = np.minimum.reduce([xs + 1, ys + 1, 30 - xs, 20 - ys])
    assert np.array_equal(d, expect.astype(float))


def test_pad_surrounded_by_edges():
    # 21x21 clear pad inside an edge ring: its center is 11 px from the ring.
    bits = np.ones((23, 23), np.uint8)
    bits[1:-1, 1:-1] = 0
    d = edt(bits)
    assert d[11, 11] == 11.0
    assert brute_force_squared_edt(bits)[11, 11] == 121


def test_matches_brute_force_on_mixed_densities():
    rng = np.random.default_rng(123)
    for density in (0.0, 0.005, 0.05, 0.3, 1.0):
        bits = (rng.random((48, 64)) < density).astype(np.uint8)
        assert np.array_equal(edt(bits), brute_force_edt(bits))


def test_valid_mask_is_a_copy():
    bits = np.zeros((4, 5), np.uint8)
    valid = np.ones((4, 5), bool)
    valid[1, 2] = False
    flat = distance_transform(BinaryMap(bits), valid)
    assert np.array_equal(flat.valid, valid)
    valid[0, 0] = False
    assert flat.valid[0, 0]
    assert np.array_equal(flat.values, brute_force_edt(bits))


@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2,
                                             min_side=1, max_side=24),
                  elements=st.integers(0, 1)))
@settings(max_examples=40, deadline=None)
def test_matches_brute_force_property(bits):
    assert np.array_equal(edt(bits), brute_force_edt(bits))


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        edt(np.zeros(5, np.uint8))


@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (2, 31),
                                   (31, 2), (48, 64)])
@pytest.mark.parametrize("fill", ["random", "none", "all"])
def test_bytes_equal_scipy_distances(shape, fill):
    # The squared offsets are formed in integers from the feature
    # transform; scipy forms them in float64. Both are exact, so the
    # square roots are the same bits, now in a C-contiguous map.
    rng = np.random.default_rng(sum(shape))
    bits = {"random": rng.random(shape) < 0.1,
            "none": np.zeros(shape, bool),
            "all": np.ones(shape, bool)}[fill].astype(np.uint8)
    got = edt(bits)
    want = scipy_flatness(bits)
    assert got.flags.c_contiguous and got.shape == shape
    assert got.tobytes() == want.tobytes()
