"""Global world-frame site registry and its agglomerative clustering.

The registry keeps every accepted landing site, with all positions in one
contiguous (N, 3) array. Sites enter only through ``insert_positions``,
one frame's batch at a time, which refuses a site strictly within
``dedup_radius`` of one accepted before it (stored or earlier in the
batch), so the stored set is always sparse and a batch gives the same
result as inserting its rows one by one. Each refusal test scans only the
slab of the batch, sorted once by x, whose x lies within the radius (a
hair wider) of the refusing site.
Clustering is single linkage realized as connected components of the
pairwise linkability relation: two sites link when their horizontal
separation is within the distance threshold and their height difference
within the z threshold (a config switch makes the distance criterion
fully 3-D instead). Clusters of equal size are summarised together, one
array reduction per size, and ranked by one ``lexsort``.

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

from .formats import integer, number, read_json, write_json


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

    def to_json_obj(self) -> dict:
        return {"x": float(self.position[0]), "y": float(self.position[1]),
                "z": float(self.position[2]), "score": float(self.score),
                "frame_id": int(self.frame_id),
                "timestamp": float(self.timestamp)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LandingSite":
        """Rebuild a site from a snapshot record.

        x, y, z, score and timestamp must be finite numbers and frame_id
        an integer (bools are neither); anything else raises TypeError,
        ValueError or KeyError.
        """
        return cls(position=np.array([number(obj, k) for k in "xyz"]),
                   score=number(obj, "score"),
                   frame_id=integer(obj, "frame_id"),
                   timestamp=number(obj, "timestamp"))


@dataclass(frozen=True, eq=False)
class ClusterSite:
    """Centroid summary of one cluster of landing sites."""

    centroid: np.ndarray
    mean_score: float
    member_count: int

    def to_json_obj(self) -> dict:
        return {"cx": float(self.centroid[0]), "cy": float(self.centroid[1]),
                "cz": float(self.centroid[2]),
                "mean_score": float(self.mean_score),
                "members": int(self.member_count)}


class SiteRegistry:
    """Deduplicated global list of landing sites."""

    def __init__(self, dedup_radius: float):
        if not dedup_radius > 0:
            raise ValueError("dedup radius must be positive")
        self.dedup_radius = float(dedup_radius)
        self.sites: list[LandingSite] = []
        # Rows [0, len(sites)) hold the positions; capacity doubles on demand.
        self._pos = np.empty((16, 3))

    def __len__(self) -> int:
        return len(self.sites)

    def positions(self) -> np.ndarray:
        """Read-only (N, 3) view of the stored positions, in insertion order."""
        view = self._pos[: len(self.sites)]
        view.flags.writeable = False
        return view

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
        every kill.

        Positions, scores and the timestamp must be finite and there must be
        one score per position; otherwise ValueError, before anything is
        stored. LandingSite records are made only for accepted rows.
        """
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
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
        order = np.argsort(pos[:, 0], kind="stable")
        by_x = pos[order]
        xs = pos[order, 0]  # contiguous, so searchsorted does not copy it
        alive = np.ones(n, dtype=bool)

        def kill(q, lo, hi):  # re-killing a dead row changes nothing
            alive[order[lo:hi][_d2(by_x[lo:hi], q) < r2]] = False

        existing = self.positions()
        in_box = np.all((existing >= pos.min(axis=0) - r)
                        & (existing <= pos.max(axis=0) + r), axis=1)
        stored = existing[in_box]
        los = np.searchsorted(xs, stored[:, 0] - reach, side="left")
        his = np.searchsorted(xs, stored[:, 0] + reach, side="right")
        for q, lo, hi in zip(stored, los.tolist(), his.tolist()):
            if lo < hi:
                kill(q, lo, hi)

        flags = [False] * n
        i = 0
        while True:
            i += int(alive[i:].argmax())  # first live row at or after i
            if not alive[i]:
                break
            alive[i] = False
            flags[i] = True
            q = pos[i]
            kill(q, int(xs.searchsorted(q[0] - reach, side="left")),
                 int(xs.searchsorted(q[0] + reach, side="right")))
        for i in np.flatnonzero(flags).tolist():
            self._accept(LandingSite(position=pos[i], score=float(scores[i]),
                                     frame_id=frame_id, timestamp=timestamp))
        return flags

    def _accept(self, site: LandingSite) -> None:
        n = len(self.sites)
        if n == len(self._pos):
            self._pos = np.concatenate([self._pos, np.empty_like(self._pos)])
        self._pos[n] = site.position
        self.sites.append(site)

    def nearest(self, query) -> tuple[LandingSite, float] | None:
        """Closest stored site and its Euclidean distance, or None if empty.

        Exact; ties resolve to the earliest-inserted site. A non-finite
        query also gives None.
        """
        pos = self.positions()
        if len(pos) == 0:
            return None
        d2 = _d2(pos, np.asarray(query, dtype=np.float64).reshape(3))
        idx = int(np.argmin(d2))
        if not d2[idx] < np.inf:
            return None
        return self.sites[idx], float(np.sqrt(d2[idx]))

    def to_json_obj(self) -> dict:
        return {"dedup_radius_m": self.dedup_radius,
                "sites": [s.to_json_obj() for s in self.sites]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SiteRegistry":
        """Rebuild a registry from a snapshot, as stored (no dedup).

        The radius must be a finite positive number, each record valid for
        ``LandingSite.from_json_obj`` and each coordinate and score column
        small enough for clustering to average (``math.fsum`` of its
        magnitudes raises OverflowError, where numpy's mean would only warn);
        anything else raises one of ``formats.PARSE_FAILURES``.
        """
        reg = cls(number(obj, "dedup_radius_m"))
        for rec in obj["sites"]:
            reg._accept(LandingSite.from_json_obj(rec))
        for column in (*reg.positions().T, [s.score for s in reg.sites]):
            math.fsum(np.abs(column).tolist())
        return reg

    def save(self, path) -> None:
        write_json(path, self.to_json_obj())

    @classmethod
    def load(cls, path) -> "SiteRegistry":
        """Read a snapshot; OSError naming the path if it is malformed."""
        return read_json(path, cls.from_json_obj, "registry snapshot")


def _d2(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from each row of (N, 3) ``points`` to ``q``.

    Accumulated as ``dx*dx + dy*dy + dz*dz``, the canonical dedup form.
    """
    dx = points[:, 0] - q[0]
    dy = points[:, 1] - q[1]
    dz = points[:, 2] - q[2]
    return dx * dx + dy * dy + dz * dz


def cluster_sites(registry: SiteRegistry, dist_th: float, z_th: float,
                  metric: str = "xy") -> list[ClusterSite]:
    """Single-linkage clusters of the registry under the dual threshold.

    Clusters are the connected components of the linkability graph, so the
    partition is independent of site ordering. Output is sorted by mean
    score descending, ties by member count descending, then centroid
    lexicographic.
    """
    if not (dist_th > 0 and z_th > 0):
        raise ValueError("clustering thresholds must be positive")
    if metric not in ("xy", "xyz"):
        raise ValueError(f"unknown cluster metric {metric!r}")
    n = len(registry)
    if n == 0:
        return []
    pos = registry.positions()
    scores = np.array([s.score for s in registry.sites])

    # Any linkable pair lies within sqrt(dist_th^2 + z_th^2) in 3-D; the
    # tree only prefilters (radius widened past rounding), the canonical
    # arithmetic below decides.
    reach = np.sqrt(dist_th * dist_th + z_th * z_th) * (1 + 1e-9)
    pairs = cKDTree(pos).query_pairs(reach, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
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
        centroids[groups] = pos[members].mean(axis=1)
        mean_scores[groups] = scores[members].mean(axis=1)
    # lexsort is stable: clusters that tie on every key keep label order.
    rank = np.lexsort((centroids[:, 2], centroids[:, 1], centroids[:, 0],
                       -counts, -mean_scores))
    return [ClusterSite(centroid=c, mean_score=s, member_count=m)
            for c, s, m in zip(centroids[rank], mean_scores[rank].tolist(),
                               counts[rank].tolist())]
