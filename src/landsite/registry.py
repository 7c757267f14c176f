"""Global world-frame site registry and its agglomerative clustering.

The registry keeps every accepted landing site, with all positions in one
contiguous (N, 3) array. Sites enter only through ``insert_positions``,
one frame's batch at a time, which refuses a site strictly within
``dedup_radius`` of one accepted before it (stored or earlier in the
batch), so the stored set is always sparse and a batch gives the same
result as inserting its rows one by one.
Clustering is single linkage realized as connected components of the
pairwise linkability relation: two sites link when their horizontal
separation is within the distance threshold and their height difference
within the z threshold (a config switch makes the distance criterion
fully 3-D instead).

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
        at a time would. Survivors start as every row; each stored site
        inside the batch's bounding box (widened by the radius), then each
        newly accepted candidate, drops the survivors within its radius.
        LandingSite records are made only for accepted rows.
        """
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        if len(pos) == 0:
            return []
        if not np.all(np.isfinite(pos)):
            raise ValueError("site position must be finite")
        flags = [False] * len(pos)
        r2 = self.dedup_radius * self.dedup_radius
        existing = self.positions()
        lo = pos.min(axis=0) - self.dedup_radius
        hi = pos.max(axis=0) + self.dedup_radius
        in_box = np.all((existing >= lo) & (existing <= hi), axis=1)
        stored = iter(existing[in_box])
        alive = np.arange(len(pos))
        while alive.size:
            q = next(stored, None)
            if q is None:  # stored sites done: the first survivor is accepted
                first = int(alive[0])
                flags[first] = True
                self._accept(LandingSite(
                    position=pos[first], score=float(scores[first]),
                    frame_id=frame_id, timestamp=timestamp))
                q = pos[first]
            alive = alive[~(_d2(pos[alive], q) < r2)]
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
    # which fixes the summation order of centroids and mean scores.
    order = np.argsort(labels, kind="stable")
    clusters = []
    for idx in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
        clusters.append(ClusterSite(centroid=pos[idx].mean(axis=0),
                                    mean_score=float(scores[idx].mean()),
                                    member_count=len(idx)))
    clusters.sort(key=lambda c: (-c.mean_score, -c.member_count,
                                 c.centroid[0], c.centroid[1], c.centroid[2]))
    return clusters
