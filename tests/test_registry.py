import contextlib
import dataclasses
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landsite.formats import PARSE_FAILURES, write_json
from landsite.pipeline import write_clusters_json
from landsite.registry import Clusters, LandingSite, SiteRegistry, \
    cluster_sites

from oracles import (
    brute_force_partition,
    linear_scan_nearest,
    loop_cluster_summaries,
    record_snapshot_loader,
    sequential_dedup,
    sequential_dedup_vectorized,
)


def insert_all(reg, points, scores=None, frame_id=0, timestamp=0.0):
    pos = np.array(points, dtype=float).reshape(-1, 3)
    if scores is None:
        scores = np.full(len(pos), 0.8)
    return reg.insert_positions(pos, scores, frame_id=frame_id,
                                timestamp=timestamp)


def insert_batches(reg, points, n_batches):
    """Insert ``points`` as ``n_batches`` consecutive batches; all flags."""
    return [f for chunk in np.array_split(np.asarray(points, float), n_batches)
            for f in insert_all(reg, chunk)]


@contextlib.contextmanager
def strict_floats(mode):
    """Warnings as errors, and numpy's float errors set to ``mode`` ("warn"
    or "raise"): what a quiet overflow must pass under."""
    with warnings.catch_warnings(), np.errstate(all=mode):
        warnings.simplefilter("error")
        yield


def registry_with(positions, scores=None, dedup_radius=1e-9):
    reg = SiteRegistry(dedup_radius)
    assert all(insert_all(reg, positions, scores))
    return reg


def assert_brute_force_partition(positions, scores, dist_th, z_th, metric):
    """cluster_sites gives the oracle's partition, with exact summaries."""
    clusters = cluster_sites(registry_with(positions, scores), dist_th, z_th,
                             metric=metric)
    labels = brute_force_partition(positions, dist_th, z_th, metric=metric)
    assert clusters.members.sum() == len(positions)
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    expect = sorted(
        (tuple(positions[idx].mean(axis=0)), float(scores[idx].mean()),
         len(idx))
        for idx in (np.array(g) for g in groups.values()))
    got = sorted(zip(map(tuple, clusters.centroids.tolist()),
                     clusters.mean_score.tolist(), clusters.members.tolist()))
    assert got == expect


class TestInsert:
    def test_empty_registry_accepts_anything(self):
        reg = SiteRegistry(0.5)
        assert insert_all(reg, [(3.0, -1.0, 0.2)]) == [True]
        assert len(reg) == 1

    def test_rejects_within_radius(self):
        reg = SiteRegistry(0.5)
        insert_all(reg, [(0, 0, 0)])
        assert insert_all(reg, [(0.4, 0, 0)]) == [False]
        assert len(reg) == 1

    def test_accepts_exactly_at_radius(self):
        reg = SiteRegistry(0.5)
        insert_all(reg, [(0, 0, 0)])
        assert insert_all(reg, [(0.5, 0, 0)]) == [True]

    def test_rejects_nonfinite(self):
        reg = SiteRegistry(0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                insert_all(reg, [(0.0, 0.0, 0.0), (bad, 0.0, 0.0)])
        assert len(reg) == 0

    def test_matches_linear_scan_reference(self):
        rng = np.random.default_rng(21)
        positions = rng.uniform(-3, 3, (2000, 3))
        reg = SiteRegistry(0.5)
        flags = insert_batches(reg, positions, 4)
        assert flags == sequential_dedup(positions, 0.5)

    def test_min_pairwise_distance_invariant(self):
        rng = np.random.default_rng(22)
        reg = SiteRegistry(0.4)
        insert_batches(reg, rng.uniform(-2, 2, (1500, 3)), 3)
        pos = reg.positions()
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.4


class TestInsertBatch:
    @given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                              st.floats(-2, 2)), max_size=60),
           st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_equivalent_to_sequential(self, points, n_batches):
        pts = np.reshape(points, (-1, 3))
        reg = SiteRegistry(0.5)
        got = insert_batches(reg, pts, n_batches)
        assert got == sequential_dedup(pts, 0.5)
        assert np.array_equal(reg.positions(), pts[np.array(got, bool)])

    def test_equivalent_across_multiple_batches(self):
        rng = np.random.default_rng(23)
        points = rng.uniform(-2, 2, (2000, 3))
        reg = SiteRegistry(0.35)
        got = insert_batches(reg, points, 5)
        assert got == sequential_dedup_vectorized(points, 0.35)
        assert np.array_equal(reg.positions(), points[np.array(got)])

    def test_records_match_sequential_insert(self):
        rng = np.random.default_rng(24)
        pos = rng.uniform(-2, 2, (300, 3))
        scores = rng.uniform(0, 1, 300)
        reg = SiteRegistry(0.5)
        flags = insert_all(reg, pos, scores, frame_id=3, timestamp=0.5)
        assert flags == sequential_dedup(pos, 0.5)
        assert [dict(dataclasses.asdict(s), position=s.position.tolist())
                for s in reg.sites] == [
            {"position": p.tolist(), "score": float(sc), "frame_id": 3,
             "timestamp": 0.5}
            for p, sc, ok in zip(pos, scores, flags) if ok]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_radius_boundary_stored_and_in_batch(self, axis):
        # exactly at the radius is accepted, one ulp inside it is not,
        # whether the earlier site is stored or earlier in the same batch
        base = np.array([1.0, 2.0, 3.0])
        at = base.copy()
        at[axis] += 0.5
        inside = at.copy()
        inside[axis] = np.nextafter(at[axis], base[axis])
        for cand, ok in ((at, True), (inside, False)):
            stored = SiteRegistry(0.5)
            insert_all(stored, [base])
            assert insert_all(stored, [cand]) == [ok]
            assert insert_all(SiteRegistry(0.5), [base, cand]) == [True, ok]

    def test_positions_must_be_n_by_3(self):
        # (3, 2) positions once reshaped into the sites (0, 0, 5), (5, 9, 9)
        reg = SiteRegistry(0.5)
        for bad in ([(0.0, 0.0), (5.0, 5.0), (9.0, 9.0)], np.zeros(6),
                    np.zeros((2, 3, 1)), np.zeros((2, 4)), np.zeros(0)):
            with pytest.raises(ValueError, match=r"\(N, 3\)"):
                reg.insert_positions(np.array(bad), np.full(2, 0.8), 0, 0.0)
        assert len(reg) == 0 and reg.positions().shape == (0, 3)

    @pytest.mark.parametrize("scores,timestamp", [
        ([0.8], 0.0), ([0.8, 0.8, 0.8], 0.0), ([0.8, np.nan], 0.0),
        ([-np.inf, 0.8], 0.0), ([0.8, 0.8], np.nan), ([0.8, 0.8], np.inf)])
    def test_bad_scores_or_timestamp_store_nothing(self, scores, timestamp):
        reg = SiteRegistry(0.5)
        insert_all(reg, [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0)])
        before = reg.to_json_obj()
        with pytest.raises(ValueError):
            reg.insert_positions(np.array([(10.0, 0, 0), (20.0, 0, 0)]),
                                 np.array(scores), 1, timestamp)
        assert reg.to_json_obj() == before
        assert len(reg) == 2 and len(reg.positions()) == 2


class TestQuietOverflow:
    """A squared distance or slab bound past float range is inf, without a
    warning or a float error: it kills nothing and is never nearest."""

    @pytest.mark.parametrize("mode", ["warn", "raise"])
    def test_overflowing_distances_kill_nothing(self, mode):
        with strict_floats(mode):
            # two rows of one x slab, in the batch and then stored
            rows = [(0.0, 1.7e308, 0.0), (0.0, -1.7e308, 0.0)]
            assert insert_all(SiteRegistry(0.5), rows) == [True, True]
            reg = registry_with(rows[:1], dedup_radius=0.5)
            assert insert_all(reg, [rows[1], (0.0, 1.7e308, 1.0)]) == \
                [True, True]
            # x - r and x + r themselves overflow
            reg = registry_with([(1.7e308, 0.0, 0.0)], dedup_radius=1e308)
            assert insert_all(reg, [(-1.7e308, 0.0, 0.0)]) == [True]
        assert len(reg) == 2

    @pytest.mark.parametrize("mode", ["warn", "raise"])
    def test_nearest_when_distances_overflow(self, mode):
        reg = registry_with([(1.7e308, 0.0, 0.0), (0.0, 1.7e308, 0.0)])
        with strict_floats(mode):
            assert reg.nearest((-1.7e308, -1.7e308, 0.0)) is None
            found, dist = reg.nearest((1.7e308, -1.0, 0.0))
        assert found.position.tolist() == [1.7e308, 0.0, 0.0]
        assert dist == 1.0


class TestColumns:
    """The stored columns hold one row per site and are never written."""

    def test_earlier_positions_unchanged_after_insert(self):
        reg = SiteRegistry(0.5)
        insert_all(reg, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        before = reg.positions()
        kept = before.copy()
        insert_all(reg, [(2.0, 0.0, 0.0), (3.0, 0.0, 0.0)])
        assert np.array_equal(before, kept) and before.shape == (2, 3)
        assert not before.flags.writeable
        with pytest.raises(ValueError):
            before[0, 0] = 9.0
        with pytest.raises(ValueError):
            before.flags.writeable = True
        assert reg.positions().shape == (4, 3)
        assert np.array_equal(reg.positions()[:2], kept)

    def test_columns_are_read_only_and_exact_size(self):
        reg = SiteRegistry(0.5)
        for column in (reg._pos, reg._score, reg._timestamp):
            assert len(column) == 0 and not column.flags.writeable
        insert_all(reg, [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0)], timestamp=2.5)
        assert reg.positions().shape == (2, 3)
        assert reg._timestamp.tolist() == [2.5, 2.5]
        for column in (reg._pos, reg._score, reg._timestamp):
            assert len(column) == 2 and column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 1.0
            with pytest.raises(ValueError):
                column.flags.writeable = True

    def test_flags_are_a_list_of_python_bools(self):
        reg = SiteRegistry(0.5)
        flags = insert_all(reg, [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0),
                                 (5.0, 0.0, 0.0)])
        assert type(flags) is list
        assert [type(f) for f in flags] == [bool] * 3
        assert flags == [True, False, True]
        assert insert_all(reg, np.empty((0, 3))) == []

    def test_accept_appends_one_record(self):
        reg = SiteRegistry(0.5)
        insert_all(reg, [(0.0, 0.0, 0.0)], frame_id=1, timestamp=0.5)
        # stored as it is: a site inside the radius is not refused
        reg._accept(LandingSite((0.1, 0.0, 0.0), 0.25, 2**70, 1.5))
        assert len(reg) == 2 and reg.positions().shape == (2, 3)
        site = reg.sites[1]
        assert site.position.tolist() == [0.1, 0.0, 0.0]
        assert (site.score, site.frame_id, site.timestamp) == \
            (0.25, 2**70, 1.5)
        assert reg.sites[0].frame_id == 1


def assert_dedup_matches_sequential(points, r):
    """Flags equal the oracle's whether earlier points are stored (inserted
    as an earlier batch) or earlier in the same batch."""
    points = np.array(points, dtype=float)
    expect = sequential_dedup(points, r)
    for split in range(len(points) + 1):
        reg = SiteRegistry(r)
        got = insert_all(reg, points[:split]) + insert_all(reg, points[split:])
        assert got == expect, (split, points.tolist())
        assert reg.positions().tobytes() == \
            points[np.array(expect, dtype=bool)].tobytes()


class TestDedupExactness:
    """Dedup at and one ulp either side of the radius, against the
    insertion-order oracle.

    Offsets along x sit on the edge of the slab the batch is scanned in;
    offsets along y and z do not move x at all. Bases far from the origin
    make the rounding of ``x ± reach`` coarser than the 1e-9 widening.
    """

    RADII = (0.5, 0.3, 1e-3)
    BASES = ((0.0, 0.0, 0.0), (-7.25, 3.1, 0.4), (1e8 + 0.5, -2.0, 1.0),
             (-0.0, -0.0, -0.0))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("r", RADII)
    def test_offsets_at_radius_boundary(self, axis, r):
        for base in map(np.array, self.BASES):
            for off in (r, np.nextafter(r, np.inf), np.nextafter(r, -np.inf)):
                step = np.zeros(3)
                step[axis] = off
                plus, minus = base + step, base - step
                # ties: the same candidate twice, before and after its base
                assert_dedup_matches_sequential(
                    [base, plus, minus, plus, base, minus], r)
                assert_dedup_matches_sequential(
                    [plus, base, base + 2 * step, minus, plus], r)

    def test_radius_whose_square_underflows(self):
        # r*r rounds to 0, so nothing is within the radius, not even a
        # repeat of the same point: every row is accepted
        r = 1e-170
        assert r * r == 0.0
        points = [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0 + 1e-9)]
        assert sequential_dedup(points, r) == [True, True, True]
        assert_dedup_matches_sequential(points, r)

    @pytest.mark.parametrize("r", RADII)
    def test_batch_with_all_x_equal(self, r):
        for spacing in (r, np.nextafter(r, np.inf), np.nextafter(r, -np.inf),
                        r / 2):
            ys = np.arange(12) * spacing
            points = np.column_stack([np.full(12, 2.0), ys, -ys / 3])
            assert_dedup_matches_sequential(points[[0, 5, 1, 2, 2, 11, 3]], r)
            assert_dedup_matches_sequential(points, r)

    def test_stored_sites_on_both_slab_edges(self):
        r = 0.5
        stored = [(0.0, 0.0, 0.0), (3.0, 0.0, 0.0)]
        # x at and one ulp either side of each stored site's radius
        xs = [x for edge in (-0.5, 0.5, 2.5, 3.5)
              for x in (edge, np.nextafter(edge, -np.inf),
                        np.nextafter(edge, np.inf))] + [1.5]
        batch = [(x, 0.0, 0.0) for x in xs]
        assert_dedup_matches_sequential(stored + batch, r)


# Coordinates that make rows tie in x, sit exactly r apart on a lattice,
# differ only in the sign of a zero, or repeat.
TIE_R = 0.5
TIE_COORD = (st.sampled_from([0.0, -0.0, np.nextafter(TIE_R, 0.0),
                              np.nextafter(-TIE_R, 0.0)])
             | st.integers(-4, 4).map(lambda i: i * TIE_R)
             | st.floats(-2, 2))
TIE_ROWS = st.lists(st.tuples(TIE_COORD, TIE_COORD, TIE_COORD), max_size=40)


class TestTieOrder:
    """The batch is sorted by x, and the order of rows tied in x must not
    matter: flags and stored bits equal the insertion-order oracle's."""

    @given(TIE_ROWS, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_ties_match_sequential(self, rows, one_x):
        points = np.array(rows, dtype=float).reshape(-1, 3)
        if one_x:
            points[:, 0] = -0.0
            points[::2, 0] = 0.0
        # with repeats of earlier rows
        assert_dedup_matches_sequential(
            np.concatenate((points, points[::3])), TIE_R)

    @pytest.mark.parametrize("x", [0.0, -0.0, 3.25])
    def test_every_row_shares_one_x(self, x):
        rng = np.random.default_rng(25)
        lattice = np.array([(x, j * TIE_R, k * TIE_R)
                            for j in range(-3, 4) for k in range(-2, 3)])
        points = np.concatenate((lattice, lattice[::4], lattice + 0.2))
        points[:, 0] = x
        assert_dedup_matches_sequential(points[rng.permutation(len(points))],
                                        TIE_R)

    @pytest.mark.parametrize("r", [0.5, 0.3])
    def test_lattice_columns_exactly_r_apart(self, r):
        rng = np.random.default_rng(26)
        i, j, k = np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij")
        lattice = np.column_stack([i.ravel(), j.ravel(), k.ravel()]) * r
        points = np.concatenate((lattice, lattice[::3], lattice + r / 2))
        points = points[rng.permutation(len(points))][:40]
        assert_dedup_matches_sequential(points, r)

    def test_signed_zero_x_and_duplicates(self):
        points = [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (-0.0, 0.5, -0.0),
                  (0.0, 0.5, 0.0), (-0.0, 0.25, 0.0), (-0.0, 1.0, 0.0),
                  (0.0, 1.0, -0.0), (-0.0, -0.5, 0.0)]
        assert_dedup_matches_sequential(points, 0.5)
        assert_dedup_matches_sequential(points[::-1], 0.5)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", ["min", "max"])
    def test_stored_site_exactly_r_outside_the_box(self, axis, side):
        # The batch's extreme row in one axis has a stored site exactly r
        # beyond it, which keeps it, or one ulp nearer, just inside the
        # widened box, which refuses it. The other coordinates are equal.
        r = 0.5
        batch = np.array([(1.0, 2.0, 3.0), (1.5, 2.75, 3.5), (2.0, 3.5, 4.0)])
        edge = 0 if side == "min" else -1
        for base in (np.zeros(3), np.array([1e8, -7.0, 0.0])):
            rows = batch + base
            at = rows[edge].copy()
            at[axis] += -r if side == "min" else r
            near = at.copy()
            near[axis] = np.nextafter(at[axis], rows[edge, axis])
            for stored, ok in ((at, True), (near, False)):
                expect = [True] * len(rows)
                expect[edge] = ok
                points = np.vstack([stored, rows])
                assert sequential_dedup(points, r) == [True] + expect
                assert_dedup_matches_sequential(points, r)


class TestNearest:
    def test_empty_returns_none(self):
        assert SiteRegistry(0.5).nearest((0, 0, 0)) is None

    def test_nonfinite_query_returns_none(self):
        reg = registry_with([(1.0, 2.0, 3.0)])
        assert reg.nearest((np.nan, 0.0, 0.0)) is None

    def test_pathological_insertion_order(self):
        # raster-sorted insertions degenerate the tree into a list; the
        # search must stay exact regardless
        xs = np.linspace(-3, 3, 12)
        positions = np.array([(x, y, 0.1 * x) for x in xs for y in xs])
        reg = registry_with(positions)
        rng = np.random.default_rng(8)
        for q in rng.uniform(-3.5, 3.5, (100, 3)):
            found, dist = reg.nearest(q)
            idx, d2 = linear_scan_nearest(positions, q)
            assert np.array_equal(found.position, positions[idx])

    def test_single_site(self):
        reg = registry_with([(1.0, 1.0, 1.0)])
        found, dist = reg.nearest((0, 0, 0))
        assert np.allclose(found.position, [1, 1, 1])
        assert dist == pytest.approx(np.sqrt(3))

    def test_tie_breaks_to_insertion_order(self):
        reg = registry_with([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
        found, dist = reg.nearest((0, 0, 0))
        assert np.allclose(found.position, [1, 0, 0])
        reg2 = registry_with([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        found2, _ = reg2.nearest((0, 0, 0))
        assert np.allclose(found2.position, [-1, 0, 0])

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(31)
        positions = rng.uniform(-5, 5, (500, 3))
        reg = registry_with(positions)
        for q in rng.uniform(-6, 6, (300, 3)):
            found, dist = reg.nearest(q)
            idx, d2 = linear_scan_nearest(positions, q)
            assert np.allclose(found.position, positions[idx])
            assert dist == pytest.approx(np.sqrt(d2), abs=0)


class TestClustering:
    def test_two_sites_within_both_thresholds_merge(self):
        reg = registry_with([(0, 0, 0), (0.3, 0, 0.005)])
        clusters = cluster_sites(reg, 0.5, 0.01)
        assert len(clusters) == 1
        assert np.allclose(clusters.centroids, [(0.15, 0, 0.0025)])
        assert clusters.members.tolist() == [2]

    def test_centroids_are_read_only(self, tmp_path):
        # every column, and every record built from them, so no caller can
        # make a record disagree with clusters.json
        clusters = cluster_sites(registry_with([(0, 0, 0), (5, 0, 0)]),
                                 0.5, 0.01)
        before = [c.to_json_obj() for c in clusters]
        for name in ("centroids", "mean_score", "members"):
            column = getattr(clusters, name)
            with pytest.raises(ValueError):
                column[0] = 99
            with pytest.raises(ValueError):
                column.flags.writeable = True
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(clusters, name, column.copy())
        for c in clusters:
            with pytest.raises(ValueError):
                c.centroid[0] = 99.0
            with pytest.raises(ValueError):
                c.centroid.flags.writeable = True
            for name in ("centroid", "mean_score", "member_count"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(c, name, 99)
        assert [c.to_json_obj() for c in clusters] == before
        write_clusters_json(tmp_path / "c.json", clusters)
        assert json.loads((tmp_path / "c.json").read_text()) == \
            {"clusters": before}

    def test_columns_are_copied_in(self):
        centroids = np.array([(1.0, 2.0, 3.0)])
        scores, members = np.array([0.5]), np.array([4])
        clusters = Clusters(centroids, scores, members)
        centroids[0, 0] = scores[0] = members[0] = 9
        assert clusters.centroids.tolist() == [[1.0, 2.0, 3.0]]
        assert clusters.mean_score.tolist() == [0.5]
        assert clusters.members.tolist() == [4]

    def test_z_criterion_splits(self):
        reg = registry_with([(0, 0, 0), (0.3, 0, 0.02)])
        clusters = cluster_sites(reg, 0.5, 0.01)
        assert len(clusters) == 2

    def test_xy_metric_ignores_z_in_distance(self):
        reg = registry_with([(0, 0, 0), (0.4, 0, 0.4)])
        assert len(cluster_sites(reg, 0.5, 0.5, metric="xy")) == 1
        # 3-D separation is 0.566 > 0.5, so the xyz metric splits them
        assert len(cluster_sites(reg, 0.5, 0.5, metric="xyz")) == 2

    def test_matches_brute_force_partition(self):
        rng = np.random.default_rng(41)
        positions = rng.uniform(-2, 2, (200, 3))
        scores = rng.uniform(0, 1, 200)
        for metric in ("xy", "xyz"):
            assert_brute_force_partition(positions, scores, 0.45, 0.3, metric)

    def test_links_exactly_at_thresholds(self):
        far = np.nextafter(0.5, 1.0)
        above = np.nextafter(0.25, 1.0)
        for metric in ("xy", "xyz"):
            # horizontal separation exactly dist_th, then one ulp beyond
            assert len(cluster_sites(registry_with(
                [(1.0, 2.0, 0.0), (1.5, 2.0, 0.0)]), 0.5, 0.25, metric)) == 1
            assert len(cluster_sites(registry_with(
                [(0.0, 2.0, 0.0), (far, 2.0, 0.0)]), 0.5, 0.25, metric)) == 2
            # height difference exactly z_th, then one ulp beyond
            assert len(cluster_sites(registry_with(
                [(1.0, 2.0, 0.0), (1.0, 2.0, 0.25)]), 0.5, 0.25, metric)) == 1
            assert len(cluster_sites(registry_with(
                [(1.0, 2.0, 0.0), (1.0, 2.0, above)]), 0.5, 0.25, metric)) == 2
        # both at once: 3-D separation is exactly sqrt(dist^2 + z^2)
        corner = registry_with([(1.0, 2.0, 0.0), (1.5, 2.0, 0.25)])
        assert len(cluster_sites(corner, 0.5, 0.25, "xy")) == 1
        assert len(cluster_sites(corner, 0.5, 0.25, "xyz")) == 2

    def test_jittered_grid_matches_brute_force_partition(self):
        # 0.5 m grid with dyadic jitter, so many pairs sit exactly at or
        # one jitter step around the 0.5 m / 0.01 m sim thresholds
        rng = np.random.default_rng(42)
        gx, gy = np.meshgrid(np.arange(16) * 0.5, np.arange(16) * 0.5)
        positions = np.column_stack([gx.ravel(), gy.ravel(),
                                     np.zeros(gx.size)])
        positions[:, :2] += rng.integers(-2, 3, (gx.size, 2)) * 2.0 ** -8
        positions[:, 2] += rng.integers(-2, 3, gx.size) * 0.005
        scores = rng.uniform(0, 1, len(positions))
        for metric in ("xy", "xyz"):
            assert_brute_force_partition(positions, scores, 0.5, 0.01, metric)

    @given(st.permutations(list(range(40))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, order):
        rng = np.random.default_rng(55)
        positions = rng.uniform(-1.5, 1.5, (40, 3))
        scores = rng.uniform(0, 1, 40)
        base = cluster_sites(registry_with(positions, scores), 0.6, 0.4)
        permuted = cluster_sites(
            registry_with(positions[order], scores[np.array(order)]), 0.6, 0.4)
        def keys(clusters):
            return sorted(zip(np.round(clusters.mean_score, 12).tolist(),
                              clusters.members.tolist(),
                              map(tuple, np.round(clusters.centroids,
                                                  12).tolist())))
        assert keys(base) == keys(permuted)

    def test_singleton_centroid_is_exact(self):
        reg = registry_with([(1.25, -3.5, 0.75)])
        clusters = cluster_sites(reg, 0.5, 0.01)
        assert np.array_equal(clusters.centroids, [(1.25, -3.5, 0.75)])
        assert clusters.members.tolist() == [1]

    def test_total_membership_equals_registry_size(self):
        rng = np.random.default_rng(60)
        reg = registry_with(rng.uniform(-2, 2, (120, 3)))
        clusters = cluster_sites(reg, 0.5, 0.2)
        assert clusters.members.sum() == len(reg)

    def test_sorted_by_score_then_size_then_centroid(self):
        # cluster A: two sites, mean score 0.9; B: one site, 0.9; C: 0.5
        reg = registry_with([(0.0, 0.0, 0.0), (0.1, 0.0, 0.0),
                             (5.0, 5.0, 0.0), (-5.0, -5.0, 0.0)],
                            [0.8, 1.0, 0.9, 0.5])
        clusters = cluster_sites(reg, 0.5, 0.1)
        assert clusters.mean_score.tolist() == [0.9, 0.9, 0.5]
        assert clusters.members.tolist() == [2, 1, 1]  # size breaks the tie

    @pytest.mark.parametrize("th", [1e-170, 1e-160, 1.7793417853750285e-162,
                                    1e-157, 1e-155])
    def test_thresholds_whose_squares_underflow(self, th):
        # th**2 rounds to zero or to a subnormal, so a difference above th
        # can square to no more than it and link: at th = 1.779e-162 the
        # last three sites link to the one before them, one from 1.877e-162
        # away in x
        positions = np.array([
            (0.0, 0.0, 0.0), (1e-165, 0.0, 0.0), (0.0, 3e-162, 0.0),
            (2e-158, 2e-158, 0.0), (1.0, 0.0, 0.0),
            (4.27341714149893e-163, 8.418575568703179e-163,
             -8.169478055525212e-163),
            (-6.694485367934597e-163, -9.897546698458618e-164,
             -1.9629593071757074e-162),
            (2.304427981751029e-162, 1.0958967344453445e-162,
             -2.4109587652340886e-162),
            (-3.779572715745979e-163, 6.685210892930018e-164,
             5.581334993874598e-163)])
        for metric in ("xy", "xyz"):
            clusters = cluster_sites(
                registry_with(positions, dedup_radius=1e-300), th, th, metric)
            labels = brute_force_partition(positions, th, th, metric)
            assert sorted(clusters.members.tolist()) == \
                sorted(np.bincount(labels).tolist()), metric

    def test_overflowing_differences_do_not_link(self, tmp_path):
        # differences (and their squares) past float range fail the
        # thresholds quietly; sites near the range's edge still link
        positions = np.array([(3.0, 1.7e308, 2.0), (0.1, 0.0, 0.0),
                              (-1.7e308, 0.0, 0.0), (8e307, 0.0, 0.0),
                              (8e307, 0.25, 0.0), (0.0, 0.0, -1.7e308)])
        scores = np.linspace(0.1, 0.6, len(positions))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for metric in ("xy", "xyz"):
                assert_brute_force_partition(positions, scores, 0.5, 0.01,
                                             metric)
            assert len(cluster_sites(registry_with(positions, scores),
                                     0.5, 0.01)) == 5
            # a linked pair whose x sum overflows gets an inf centroid,
            # also quietly, and the writer refuses it
            clusters = cluster_sites(registry_with(
                [(1.7e308, 0.0, 0.0), (1.7e308, 0.25, 0.0)]), 0.5, 0.01)
        assert clusters.centroids[:, 0].tolist() == [np.inf]
        with pytest.raises(OSError, match="non-finite cx"):
            write_clusters_json(tmp_path / "c.json", clusters)

    def test_rejects_bad_thresholds(self):
        reg = registry_with([(0, 0, 0)])
        with pytest.raises(ValueError):
            cluster_sites(reg, 0.0, 0.1)
        with pytest.raises(ValueError):
            cluster_sites(reg, 0.5, 0.1, metric="polar")

    def test_empty_registry_clusters_to_nothing(self):
        clusters = cluster_sites(SiteRegistry(0.5), 0.5, 0.01)
        assert len(clusters) == 0 and list(clusters) == []
        assert clusters.centroids.shape == (0, 3)
        assert clusters.mean_score.shape == clusters.members.shape == (0,)


def chained_groups(sizes, signed_zero_groups, seed):
    """Sites in separate chains 0.25 m apart along x, with scores.

    Groups listed in ``signed_zero_groups`` put signed zeros in y and z;
    scores mix signed zeros with values up to 1e3 in magnitude.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for g, size in enumerate(sizes):
        x = 0.25 * (np.arange(size) + sum(sizes[:g]) + 4 * g)
        if g in signed_zero_groups:
            y = rng.choice([0.0, -0.0], size)
            z = rng.choice([0.0, -0.0], size)
        else:
            y = 3.0 + rng.uniform(-0.02, 0.02, size)
            z = rng.uniform(-0.05, 0.05, size)
        rows.append(np.column_stack([x, y, z]))
    positions = np.concatenate(rows)[rng.permutation(sum(sizes))]
    scores = np.where(rng.uniform(size=len(positions)) < 0.3,
                      rng.choice([0.0, -0.0], len(positions)),
                      rng.uniform(-1e3, 1e3, len(positions)))
    return positions, scores


# Group sizes straddling numpy's summation block sizes (8 and 128).
GROUP_SIZES = st.lists(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 128, 129, 140]),
                       min_size=1, max_size=5)


def int_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestClusterSummaries:
    @staticmethod
    def assert_matches_loop(positions, scores, metric):
        clusters = cluster_sites(registry_with(positions, scores), 0.3, 0.2,
                                 metric=metric)
        expect = loop_cluster_summaries(
            positions, scores,
            brute_force_partition(positions, 0.3, 0.2, metric=metric))
        centroids, mean_scores, members = zip(*expect)
        assert clusters.members.tolist() == list(members)
        assert np.array_equal(int_bits(clusters.centroids),
                              int_bits(centroids))
        assert np.array_equal(int_bits(clusters.mean_score),
                              int_bits(mean_scores))

    @given(GROUP_SIZES, st.sets(st.integers(0, 4)), st.integers(0, 2**32 - 1),
           st.sampled_from(["xy", "xyz"]))
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_per_cluster_loop(self, sizes, zero_groups,
                                               seed, metric):
        self.assert_matches_loop(*chained_groups(sizes, zero_groups, seed),
                                 metric)

    @pytest.mark.parametrize("metric", ["xy", "xyz"])
    def test_large_groups_bit_identical(self, metric):
        self.assert_matches_loop(*chained_groups(
            [129, 1, 8, 300, 9, 140, 128], {1, 3}, 11), metric)

    def test_signed_zeros_tie(self):
        # -0.0 and 0.0 scores and x coordinates compare equal, so y decides
        positions = np.array([(-0.0, 5.0, 0.0), (0.0, -5.0, 0.0),
                              (3.0, 0.0, -0.0)])
        for scores in ([-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]):
            clusters = cluster_sites(registry_with(positions, scores),
                                     0.5, 0.01)
            expect = loop_cluster_summaries(positions, scores, [0, 1, 2])
            assert clusters.centroids[:, 1].tolist() == [-5.0, 5.0, 0.0]
            assert int_bits(clusters.mean_score).tolist() == \
                int_bits([e[1] for e in expect]).tolist()
            assert int_bits(clusters.centroids).tolist() == \
                [int_bits(e[0]).tolist() for e in expect]


# Lattice coordinates, in steps of 0.25 with signed zeros, give chains and
# links exactly at the thresholds; a few scores give ranking ties.
LATTICE = st.sampled_from([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
CLUSTER_SITE = st.tuples(LATTICE | st.floats(-2, 2),
                         LATTICE | st.floats(-2, 2),
                         st.sampled_from([0.0, -0.0, 0.005, 0.25])
                         | st.floats(-0.5, 0.5),
                         st.sampled_from([0.0, -0.0, 0.5, 0.9])
                         | st.floats(-1e3, 1e3))


class TestClustersJson:
    @given(st.lists(CLUSTER_SITE, max_size=40),
           st.sampled_from([0.25, 0.3, 0.5]), st.sampled_from([0.01, 0.25]),
           st.sampled_from(["xy", "xyz"]))
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_records(self, rows, dist_th, z_th, metric):
        """clusters.json from the columns equals write_json of the records,
        the path the benchmark compares against."""
        rows = np.array(rows, dtype=np.float64).reshape(-1, 4)
        reg = SiteRegistry(1e-9)
        reg.insert_positions(rows[:, :3], rows[:, 3], 0, 0.0)
        clusters = cluster_sites(reg, dist_th, z_th, metric)
        with tempfile.TemporaryDirectory() as tmp:
            columns, records = Path(tmp) / "columns.json", Path(tmp) / "r.json"
            write_clusters_json(columns, clusters)
            write_json(records, {"clusters": [c.to_json_obj()
                                              for c in clusters]})
            assert columns.read_bytes() == records.read_bytes()


# Snapshot field values: finite floats of every magnitude (signed zeros,
# subnormals, near the float limit) and ints past int64.
SNAPSHOT_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 0.1,
                                       1.7e308, -1.7e308])
                    | st.integers(-2**70, 2**70))
SNAPSHOT_RECORD = st.fixed_dictionaries({
    "x": SNAPSHOT_NUMBERS, "y": SNAPSHOT_NUMBERS, "z": SNAPSHOT_NUMBERS,
    "score": SNAPSHOT_NUMBERS, "frame_id": st.integers(-2**70, 2**70),
    "timestamp": SNAPSHOT_NUMBERS})


class TestSnapshot:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        reg = SiteRegistry(0.5)
        for i, p in enumerate(rng.uniform(-2, 2, (50, 3))):
            insert_all(reg, [p], [rng.uniform()], frame_id=i % 3,
                       timestamp=i * 0.05)
        path = tmp_path / "sites.json"
        reg.save(path)
        loaded = SiteRegistry.load(path)
        assert loaded.dedup_radius == reg.dedup_radius
        assert np.array_equal(loaded.positions(), reg.positions())
        assert [s.score for s in loaded.sites] == [s.score for s in reg.sites]
        # reloaded registry keeps answering queries identically
        q = (0.1, 0.2, 0.3)
        assert np.array_equal(loaded.nearest(q)[0].position,
                              reg.nearest(q)[0].position)

    @given(st.lists(st.tuples(
        st.lists(st.tuples(*[SNAPSHOT_NUMBERS] * 4), max_size=6),
        st.integers(-2**70, 2**70), SNAPSHOT_NUMBERS), max_size=3))
    @example([([(0.0, 1.7e308, 0.0, 0.5), (0.0, -1.7e308, 0.0, 0.5)], 0,
               0.0)])
    @settings(max_examples=200, deadline=None)
    def test_every_stored_registry_round_trips(self, batches):
        """save -> load -> save is byte-identical, and load gives back the
        stored columns bit for bit."""
        reg = SiteRegistry(0.5)
        for rows, frame_id, timestamp in batches:
            rows = np.array(rows, dtype=np.float64).reshape(-1, 4)
            reg.insert_positions(rows[:, :3], rows[:, 3], frame_id, timestamp)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            reg.save(first)
            loaded = SiteRegistry.load(first)
            loaded.save(second)
            assert second.read_bytes() == first.read_bytes()
        assert site_columns(loaded.dedup_radius, loaded.sites) == \
            site_columns(reg.dedup_radius, reg.sites)

    @pytest.mark.parametrize("x", [float("nan"), float("-inf"), "a", None])
    def test_rejects_nonfinite_or_nonnumeric_position(self, x):
        obj = {"dedup_radius_m": 0.5, "sites": [
            {"x": 1.0, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
             "timestamp": 0.0},
            {"x": x, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
             "timestamp": 0.0}]}
        with pytest.raises((TypeError, ValueError)):
            SiteRegistry.from_json_obj(obj)


# One damaged value: (kind, replacement)
BAD_VALUES = {"string": "a", "bool": True, "nan": float("nan"),
              "1e400": float("1e400"), "int_1e400": 10**400, "null": None}


def site_columns(radius, sites) -> tuple:
    """A registry's radius and site columns, floats as raw bytes (so signed
    zeros count) and frame ids with their types."""
    return (radius,
            np.array([s.position for s in sites]).reshape(-1, 3).tobytes(),
            np.array([s.score for s in sites]).tobytes(),
            np.array([s.timestamp for s in sites]).tobytes(),
            [(type(s.frame_id), s.frame_id) for s in sites])


class TestSnapshotLoader:
    """The columnar loader against the record-by-record reference."""

    @staticmethod
    def assert_same_decision(obj):
        try:
            expect = site_columns(*record_snapshot_loader(obj))
        except PARSE_FAILURES as exc:
            with pytest.raises(type(exc)):
                SiteRegistry.from_json_obj(obj)
            return
        reg = SiteRegistry.from_json_obj(obj)
        assert site_columns(reg.dedup_radius, reg.sites) == expect

    @given(st.lists(SNAPSHOT_RECORD, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_valid_snapshot_matches_reference(self, records):
        self.assert_same_decision({"dedup_radius_m": 0.5, "sites": records})

    @given(st.lists(SNAPSHOT_RECORD, min_size=1, max_size=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_damaged_value_matches_reference(self, records, data):
        i = data.draw(st.integers(0, len(records) - 1))
        damage = data.draw(st.sampled_from(
            [*BAD_VALUES, "missing_key", "non_dict_record", "non_list_sites"]))
        obj = {"dedup_radius_m": 0.5, "sites": records}
        key = data.draw(st.sampled_from(sorted(records[i])))
        if damage in BAD_VALUES:
            records[i][key] = BAD_VALUES[damage]
        elif damage == "missing_key":
            del records[i][key]
        elif damage == "non_dict_record":
            records[i] = data.draw(st.sampled_from(
                [[1.0, 2.0], "x", None, 5, list(records[i].values())]))
        else:
            obj["sites"] = data.draw(st.sampled_from(
                [{}, "", None, 7, dict(enumerate(records)), tuple(records)]))
        self.assert_same_decision(obj)

    @pytest.mark.parametrize("damage,error,message", [
        ("a", TypeError, "sites[3].x must be a number, not 'a'"),
        (True, TypeError, "sites[3].x must be a number, not True"),
        (float("nan"), ValueError, "sites[3].x must be finite, not nan"),
        (10**400, OverflowError, "sites[3].x is too large for a float"),
    ])
    def test_failure_names_first_bad_record(self, damage, error, message):
        sites = [{"x": float(i), "y": 0.0, "z": 0.0, "score": 0.5,
                  "frame_id": 0, "timestamp": 0.0} for i in range(6)]
        sites[3]["x"] = sites[5]["x"] = damage
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SiteRegistry.from_json_obj({"dedup_radius_m": 0.5,
                                        "sites": sites})

    def test_missing_key_and_non_dict_record_named(self):
        site = {"x": 0.0, "y": 0.0, "z": 0.0, "score": 0.5, "frame_id": 0,
                "timestamp": 0.0}
        missing = [dict(site), {k: v for k, v in site.items() if k != "z"}]
        with pytest.raises(KeyError, match=r"sites\[1\]\.z"):
            SiteRegistry.from_json_obj({"dedup_radius_m": 0.5,
                                        "sites": missing})
        with pytest.raises(TypeError, match=r"^sites\[1\] must be an object"):
            SiteRegistry.from_json_obj({"dedup_radius_m": 0.5,
                                        "sites": [site, [0.0, 0.0, 0.0]]})

    def test_huge_frame_id_round_trips_byte_for_byte(self, tmp_path):
        obj = {"dedup_radius_m": 0.5, "sites": [
            {"x": 0.1, "y": -0.0, "z": 5e-324, "score": 0.75,
             "frame_id": 2**70, "timestamp": 1.5},
            {"x": 3.0, "y": 1e150, "z": 2.0, "score": 0.5,
             "frame_id": -2**70, "timestamp": 0.0}]}
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
        (tmp_path / "in.json").write_text(text)
        reg = SiteRegistry.load(tmp_path / "in.json")
        assert [s.frame_id for s in reg.sites] == [2**70, -2**70]
        assert len(cluster_sites(reg, 0.5, 0.01)) == 2
        reg.save(tmp_path / "out.json")
        assert (tmp_path / "out.json").read_text() == text
        assert reg.to_json_obj() == obj
