"""Global world-frame site registry and its agglomerative clustering.

The registry keeps every accepted landing site, with all positions in one
contiguous (N, 3) array, and refuses new sites that fall within
``dedup_radius`` of an existing one, so the stored set is always sparse.
Clustering is single linkage realized as connected components of the
pairwise linkability relation: two sites link when their horizontal
separation is within the distance threshold and their height difference
within the z threshold (a config switch makes the distance criterion
fully 3-D instead).

The canonical linkability arithmetic is
``dx*dx + dy*dy <= dist_th*dist_th and abs(dz) <= z_th``
(plus ``+ dz*dz`` on the left for the 3-D metric); dedup comparisons use
squared distances. Any reimplementation that follows the same forms
reproduces the partitions bit-for-bit.

One pipeline thread owns the registry for writes; reads may interleave
between insertions and the object can be handed across threads freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


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
        return cls(position=np.array([float(obj["x"]), float(obj["y"]),
                                      float(obj["z"])]),
                   score=float(obj["score"]), frame_id=int(obj["frame_id"]),
                   timestamp=float(obj["timestamp"]))


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

    def insert(self, site: LandingSite) -> bool:
        """Insert unless an existing site lies strictly closer than the radius."""
        if not np.all(np.isfinite(site.position)):
            raise ValueError("site position must be finite")
        hit = self._nearest_d2(site.position)
        if hit is not None and hit[1] < self.dedup_radius * self.dedup_radius:
            return False
        self._accept(site)
        return True

    def insert_positions(self, positions: np.ndarray, scores: np.ndarray,
                         frame_id: int, timestamp: float) -> list[bool]:
        """Batch-insert raw position/score arrays from one frame.

        Greedy batch dedup, exactly equivalent to sequential insert(): a
        candidate is accepted iff it is not within the dedup radius of any
        previously accepted site (existing or earlier in the batch); taking
        the first surviving candidate and discarding its ball realizes
        exactly that order. LandingSite records are only materialized for
        accepted positions.
        """
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        if len(pos) == 0:
            return []
        if not np.all(np.isfinite(pos)):
            raise ValueError("site position must be finite")
        flags = [False] * len(pos)
        r2 = self.dedup_radius * self.dedup_radius
        alive = np.ones(len(pos), dtype=bool)
        existing = self.positions()
        if len(existing):
            lo = pos.min(axis=0) - self.dedup_radius
            hi = pos.max(axis=0) + self.dedup_radius
            near = existing[np.all((existing >= lo) & (existing <= hi), axis=1)]
            if len(near):
                for chunk in range(0, len(pos), 8192):
                    block = pos[chunk : chunk + 8192]
                    d2 = _pairwise_d2(block, near)
                    alive[chunk : chunk + 8192] &= ~(d2 < r2).any(axis=1)
        order = np.nonzero(alive)[0]
        while order.size:
            first = int(order[0])
            flags[first] = True
            self._accept(LandingSite(position=pos[first],
                                     score=float(scores[first]),
                                     frame_id=frame_id, timestamp=timestamp))
            d2 = _pairwise_d2(pos[order], pos[first][None, :])[:, 0]
            order = order[~(d2 < r2)]
        return flags

    def _accept(self, site: LandingSite) -> None:
        n = len(self.sites)
        if n == len(self._pos):
            self._pos = np.concatenate([self._pos, np.empty_like(self._pos)])
        self._pos[n] = site.position
        self.sites.append(site)

    def _nearest_d2(self, query) -> tuple[int, float] | None:
        """Index and squared distance of the closest stored site.

        Squares accumulate in x, y, z order; ties go to the lowest index.
        None if empty, or if no distance is finite (a non-finite query).
        """
        pos = self.positions()
        if len(pos) == 0:
            return None
        q = np.asarray(query, dtype=np.float64).reshape(3)
        dx = q[0] - pos[:, 0]
        dy = q[1] - pos[:, 1]
        dz = q[2] - pos[:, 2]
        d2 = dx * dx + dy * dy + dz * dz
        idx = int(np.argmin(d2))
        if not d2[idx] < np.inf:
            return None
        return idx, float(d2[idx])

    def nearest(self, query) -> tuple[LandingSite, float] | None:
        """Closest stored site and its Euclidean distance, or None if empty.

        Exact; ties resolve to the earliest-inserted site. A non-finite
        query also gives None.
        """
        hit = self._nearest_d2(query)
        if hit is None:
            return None
        idx, d2 = hit
        return self.sites[idx], float(np.sqrt(d2))

    def to_json_obj(self) -> dict:
        return {"dedup_radius_m": self.dedup_radius,
                "sites": [s.to_json_obj() for s in self.sites]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SiteRegistry":
        """Rebuild a registry from a snapshot.

        A non-numeric or non-finite position raises ValueError (TypeError
        for a null or nested value).
        """
        reg = cls(float(obj["dedup_radius_m"]))
        for rec in obj["sites"]:
            reg._accept(LandingSite.from_json_obj(rec))
        if not np.all(np.isfinite(reg.positions())):
            raise ValueError("site positions must be finite")
        return reg

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_obj(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "SiteRegistry":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_obj(json.load(f))


def _pairwise_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between rows of a (N, 3) and b (M, 3), shape (N, M).

    Accumulated per-component in x, y, z order to match the scalar path.
    """
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    dy = a[:, 1][:, None] - b[:, 1][None, :]
    dz = a[:, 2][:, None] - b[:, 2][None, :]
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
