"""Global world-frame site registry and its agglomerative clustering.

The registry is columnar: one (N, 3) float64 position array, float64 score
and timestamp columns and a list of int frame ids (a JSON frame id may
exceed int64). Each array holds exactly one row per site and is
read-only; a batch replaces all three with one concatenation each, so a
column a caller holds never changes. Records
(``LandingSite``) are built only on request, by ``sites`` and
``nearest()``. Sites enter only through ``insert_positions``,
one frame's batch at a time, which refuses a site strictly within
``dedup_radius`` of one accepted before it (stored or earlier in the
batch), so the stored set is always sparse and a batch gives the same
result as inserting its rows one by one. Each refusal test scans only the
slab of the batch, sorted once by x, whose x lies within the radius (a
hair wider) of the refusing site. The order of rows tied in x does not
matter: a slab's bounds depend only on the sorted x values, and a refusal
marks a set of original rows. A snapshot (``sites.json``) is read one
field at a time over all its records and written column by column.
Clustering is single linkage realized as connected components of the
pairwise linkability relation: two sites link when their horizontal
separation is within the distance threshold and their height difference
within the z threshold (a config switch makes the distance criterion
fully 3-D instead). Clusters of equal size are summarised together, one
array reduction per size, and ranked by one ``lexsort``. The result is a
``Clusters``, read-only columns in rank order (centroids, mean scores,
member counts) from which ``clusters.json`` is written directly;
``ClusterSite`` records are built only on request, by iterating it, and
``cluster_fields`` names the record fields for both.

The canonical linkability arithmetic is
``dx*dx + dy*dy <= dist_th*dist_th and abs(dz) <= z_th``
(plus ``+ dz*dz`` on the left for the 3-D metric). Dedup and ``nearest()``
share one squared distance, ``dx*dx + dy*dy + dz*dz`` (``_d2``), and dedup
refuses ``d2 < r*r``. Any reimplementation that follows the same forms
reproduces the flags and partitions bit-for-bit.

One pipeline thread owns the registry for writes; reads may interleave
between insertions and the object can be handed across threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .formats import integer_column, number, number_column, read_json, \
    write_records_json


@dataclass(frozen=True, eq=False)
class LandingSite:
    """A scored world-frame landing point."""

    position: np.ndarray
    score: float
    frame_id: int
    timestamp: float

    def __post_init__(self):
        p = np.array(self.position, dtype=np.float64).reshape(3)
        p.flags.writeable = False
        object.__setattr__(self, "position", p)


@dataclass(frozen=True, eq=False)
class ClusterSite:
    """Centroid summary of one cluster of landing sites."""

    centroid: np.ndarray
    mean_score: float
    member_count: int

    def to_json_obj(self) -> dict:
        fields = cluster_fields(np.asarray(self.centroid, dtype=np.float64),
                                np.float64(self.mean_score),
                                np.int64(self.member_count))
        return {k: v.item() for k, v in fields.items()}


def cluster_fields(centroids, mean_score, members) -> dict:
    """The ``clusters.json`` record fields, in key order, from ``Clusters``
    columns or from one cluster's values; the one place they are named."""
    return {"cx": centroids[..., 0], "cy": centroids[..., 1],
            "cz": centroids[..., 2], "mean_score": mean_score,
            "members": members}


@dataclass(frozen=True, eq=False)
class Clusters:
    """Ranked cluster summaries, one read-only column per field.

    Row i of ``centroids`` (k, 3), ``mean_score`` (k,) and ``members`` (k,)
    describes the i-th ranked cluster. The columns are copied on
    construction, so nothing a caller holds can change them. Iterating
    builds one ``ClusterSite`` per row, in rank order.
    """

    centroids: np.ndarray
    mean_score: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        for name, dtype, shape in (("centroids", np.float64, (-1, 3)),
                                   ("mean_score", np.float64, (-1,)),
                                   ("members", np.int64, (-1,))):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            # a view of a read-only array cannot be made writeable again
            object.__setattr__(self, name, column.reshape(shape))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return map(ClusterSite, self.centroids, self.mean_score.tolist(),
                   self.members.tolist())


class SiteRegistry:
    """Deduplicated global list of landing sites."""

    def __init__(self, dedup_radius: float):
        if not dedup_radius > 0:
            raise ValueError("dedup radius must be positive")
        self.dedup_radius = float(dedup_radius)
        # One row per site in each, read-only; only _append replaces them.
        self._pos = _read_only(np.empty((0, 3)))
        self._score = _read_only(np.empty(0))
        self._timestamp = _read_only(np.empty(0))
        self._frame_id: list[int] = []

    def __len__(self) -> int:
        return len(self._frame_id)

    def positions(self) -> np.ndarray:
        """The read-only (N, 3) stored positions, in insertion order."""
        return self._pos

    @property
    def sites(self) -> list[LandingSite]:
        """The stored sites as records, in insertion order (built per call)."""
        return [self._site(i) for i in range(len(self))]

    def _site(self, i: int) -> LandingSite:
        return LandingSite(position=self._pos[i], score=float(self._score[i]),
                           frame_id=self._frame_id[i],
                           timestamp=float(self._timestamp[i]))

    def insert_positions(self, positions: np.ndarray, scores: np.ndarray,
                         frame_id: int, timestamp: float) -> list[bool]:
        """Insert one frame's candidate positions; flag which were accepted.

        This is the registry's only dedup path. A candidate is accepted iff
        no site accepted before it, stored or earlier in the batch, has
        ``_d2 < r*r``, so a batch gives exactly what inserting its rows one
        at a time would. Each stored site inside the batch's bounding box
        (widened by the radius), then each newly accepted candidate, kills
        the live rows within its radius; the next accepted row is the first
        one still alive.

        A kill only looks at the slab of rows whose x lies within
        ``reach = r * (1 + 1e-9)`` of the killer's: a contiguous run of the
        batch sorted once by x, bounded by binary search. The slab is a
        superset of the rows the canonical test kills: ``_d2 < r*r`` needs
        ``|dx| < r``, and rounding is monotone, so ``x ± reach`` rounded
        still brackets every such row. The canonical ``_d2`` then decides
        every kill. Rows tied in x may sort in any order: the binary search
        reads only the sorted values, which ties leave the same, and a kill
        clears a set of original row indices, so no flag depends on it.

        Positions must be (N, 3); they, the N scores and the timestamp must
        be finite, else ValueError before anything is stored. A bound or
        distance that overflows is inf, quietly, and kills nothing.
        """
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), not {pos.shape}")
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(pos),):
            raise ValueError(f"need one score per position: {scores.shape} "
                             f"scores for {len(pos)} positions")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(scores))):
            raise ValueError("site positions and scores must be finite")
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp must be finite, not {timestamp!r}")
        n = len(pos)
        if n == 0:
            return []
        r = self.dedup_radius
        r2 = r * r
        reach = r * (1 + 1e-9)
        order = np.argsort(pos[:, 0])  # any order of ties (see above)
        # Contiguous columns sorted by x; searchsorted reads xs uncopied.
        xs, ys, zs = (pos[order, k] for k in range(3))
        alive = np.ones(n, dtype=bool)
        d2, tmp = np.empty(n), np.empty(n)  # scratch, reused by every kill

        def kill(q, lo, hi):  # re-killing a dead row changes nothing
            slab = _d2(xs[lo:hi], ys[lo:hi], zs[lo:hi], q,
                       d2[: hi - lo], tmp[: hi - lo])
            alive[order[lo:hi][slab < r2]] = False

        with np.errstate(over="ignore"):
            # The batch's bounding box widened by r, one column at a time (a
            # 1-D reduction is far cheaper than an axis-0 one over (n, 3)).
            existing = self.positions()
            in_box = np.ones(len(existing), dtype=bool)
            for c, near in zip(pos.T, existing.T):
                in_box &= (near >= c.min() - r) & (near <= c.max() + r)
            stored = existing[in_box]
            los = np.searchsorted(xs, stored[:, 0] - reach, side="left")
            his = np.searchsorted(xs, stored[:, 0] + reach, side="right")
            for q, lo, hi in zip(stored, los.tolist(), his.tolist()):
                if lo < hi:
                    kill(q, lo, hi)

            accepted = np.zeros(n, dtype=bool)
            i = 0
            while True:
                i += int(alive[i:].argmax())  # first live row at or after i
                if not alive[i]:
                    break
                alive[i] = False
                accepted[i] = True
                q = pos[i]
                kill(q, int(xs.searchsorted(q[0] - reach, side="left")),
                     int(xs.searchsorted(q[0] + reach, side="right")))
        rows = pos[accepted]
        self._append(rows, scores[accepted], [int(frame_id)] * len(rows),
                     timestamp)
        return accepted.tolist()

    def _accept(self, site: LandingSite) -> None:
        """Store one record as it is (no dedup)."""
        self._append(site.position[None], [site.score], [int(site.frame_id)],
                     site.timestamp)

    def _append(self, pos, score, frame_id: list[int], timestamp) -> None:
        """Store rows as they are (no dedup): each column is replaced by a
        new read-only one holding its old rows and then the new ones."""
        timestamps = np.full(len(frame_id), timestamp, dtype=np.float64)
        for name, rows in (("_pos", pos), ("_score", score),
                           ("_timestamp", timestamps)):
            column = np.concatenate((getattr(self, name), rows),
                                    dtype=np.float64)
            setattr(self, name, _read_only(column))
        self._frame_id.extend(frame_id)

    def nearest(self, query) -> tuple[LandingSite, float] | None:
        """Closest stored site and its Euclidean distance, or None if empty.

        Exact; ties resolve to the earliest-inserted site. A query that is
        non-finite or whose every squared distance overflows gives None.
        """
        pos = self.positions()
        if len(pos) == 0:
            return None
        with np.errstate(over="ignore"):
            d2 = _d2(*pos.T, np.asarray(query, dtype=np.float64).reshape(3))
        idx = int(np.argmin(d2))
        if not d2[idx] < np.inf:
            return None
        return self._site(idx), float(np.sqrt(d2[idx]))

    def _columns(self) -> dict:
        """Snapshot record fields, one column each, in record key order."""
        x, y, z = self._pos.T
        return {"x": x, "y": y, "z": z, "score": self._score,
                "frame_id": self._frame_id, "timestamp": self._timestamp}

    def to_json_obj(self) -> dict:
        columns = {k: v if isinstance(v, list) else v.tolist()
                   for k, v in self._columns().items()}
        return {"dedup_radius_m": self.dedup_radius,
                "sites": [dict(zip(columns, row))
                          for row in zip(*columns.values())]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SiteRegistry":
        """Rebuild a registry from a snapshot, as stored (no dedup).

        The radius must be a finite positive number and ``sites`` a list of
        records whose x, y, z, score and timestamp are finite numbers and
        whose frame_id is an integer (bools are neither). Each field is read
        in one pass over the records, and a failure names the first bad
        record (``sites[3].x must be a number, not 'a'``); anything else
        raises one of ``formats.PARSE_FAILURES``. So every snapshot ``save``
        writes loads back as it was stored.
        """
        reg = cls(number(obj, "dedup_radius_m"))
        records = obj["sites"]
        pos = np.column_stack([number_column(records, "sites", k)
                               for k in "xyz"])
        score = number_column(records, "sites", "score")
        frame_id = integer_column(records, "sites", "frame_id")
        timestamp = number_column(records, "sites", "timestamp")
        reg._append(pos, score, frame_id, timestamp)
        return reg

    def save(self, path) -> None:
        """Write the snapshot, byte for byte ``write_json(to_json_obj())``."""
        write_records_json(path, {"dedup_radius_m": self.dedup_radius},
                           "sites", self._columns())

    @classmethod
    def load(cls, path) -> "SiteRegistry":
        """Read a snapshot; OSError naming the path if it is malformed."""
        return read_json(path, cls.from_json_obj, "registry snapshot")


def _read_only(column: np.ndarray) -> np.ndarray:
    """A view of ``column`` that no caller can make writeable again."""
    column.flags.writeable = False
    return column.view()


def _d2(x: np.ndarray, y: np.ndarray, z: np.ndarray, q: np.ndarray,
        out: np.ndarray | None = None,
        tmp: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from each point of the x, y, z columns to ``q``.

    Accumulated as ``(dx*dx + dy*dy) + dz*dz``, the canonical dedup form,
    into ``out`` with ``tmp`` as scratch when given (both of the columns'
    length), else into new arrays.
    """
    out = np.subtract(x, q[0], out=out)
    out *= out
    tmp = np.subtract(y, q[1], out=tmp)
    tmp *= tmp
    out += tmp
    np.subtract(z, q[2], out=tmp)
    tmp *= tmp
    out += tmp
    return out


def cluster_sites(registry: SiteRegistry, dist_th: float, z_th: float,
                  metric: str = "xy") -> Clusters:
    """Single-linkage clusters of the registry under the dual threshold.

    Clusters are the connected components of the linkability graph, so the
    partition is independent of site ordering. Rows are ranked by mean
    score descending, ties by member count descending, then centroid
    lexicographic; an empty registry gives an empty ``Clusters``.

    Linking and averaging run on the stored positions, where a difference
    or a sum may overflow to inf, without a warning: an inf difference
    fails its threshold, so such sites do not link, and an inf summary is
    refused by the JSON writers.
    """
    if not (dist_th > 0 and z_th > 0):
        raise ValueError("clustering thresholds must be positive")
    if metric not in ("xy", "xyz"):
        raise ValueError(f"unknown cluster metric {metric!r}")
    n = len(registry)
    pos = registry.positions()
    scores = registry._score

    # Any linkable pair lies within sqrt(dist_th^2 + z_th^2) in 3-D; the
    # tree only prefilters (radius widened past rounding, and floored where
    # a square would lose its relative precision), the canonical arithmetic
    # below decides. It sees the positions clipped to +-1e153: clipping
    # moves no two sites apart, and no squared span can overflow.
    reach = max(math.hypot(dist_th, z_th), 1e-150) * (1 + 1e-9)
    pairs = cKDTree(np.clip(pos, -1e153, 1e153)).query_pairs(
        reach, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    with np.errstate(over="ignore"):
        dx = pos[i, 0] - pos[j, 0]
        dy = pos[i, 1] - pos[j, 1]
        dz = pos[i, 2] - pos[j, 2]
        xy2 = dx * dx + dy * dy
        if metric == "xy":
            link = (xy2 <= dist_th * dist_th) & (np.abs(dz) <= z_th)
        else:
            link = (xy2 + dz * dz <= dist_th * dist_th) & (np.abs(dz) <= z_th)
    graph = coo_matrix((np.ones(int(link.sum()), dtype=bool),
                        (i[link], j[link])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)

    # A stable sort keeps each group's members in ascending index order,
    # which fixes the summation order of centroids and mean scores. Groups
    # of one size are summarised together from their (groups, size) member
    # matrix; each row reduces exactly as a lone group's members would.
    counts = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    centroids = np.empty((len(counts), 3))
    mean_scores = np.empty(len(counts))
    for size in np.unique(counts).tolist():
        groups = np.flatnonzero(counts == size)
        members = order[starts[groups][:, None] + np.arange(size)]
        with np.errstate(over="ignore"):
            centroids[groups] = pos[members].mean(axis=1)
            mean_scores[groups] = scores[members].mean(axis=1)
    # lexsort is stable: clusters that tie on every key keep label order.
    rank = np.lexsort((centroids[:, 2], centroids[:, 1], centroids[:, 0],
                       -counts, -mean_scores))
    return Clusters(centroids[rank], mean_scores[rank], counts[rank])
