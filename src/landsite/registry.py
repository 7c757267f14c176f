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
result as inserting its rows one by one. The batch is sorted once by x
and its ``dead`` flags are kept in that sorted order, so each refusal is
one in-place OR over the slab of rows whose x lies within the radius (a
hair wider) of the refusing site: a contiguous run, found by binary
search. The next accepted row, the first live one in original order, is
found by reading the flags through the inverse permutation in chunks of
64 rows, doubled while a chunk is all dead. The order of rows tied in x
does not matter: a slab's bounds depend only on the sorted x values, and
each flag is decided by its own row's coordinates. A snapshot
(``sites.json``) is read one field at a time over all its records and
written column by column.
Clustering is single linkage realized as connected components of the
pairwise linkability relation: two sites link when their horizontal
separation is within the distance threshold and their height difference
within the z threshold (a config switch makes the distance criterion
fully 3-D instead). A cluster's label is its smallest member's index.
The registry keeps the clusters of its last ``cluster_sites`` call, their
thresholds and the rows they cover. Stored rows never change, so every
call links only the rows stored since (against the stored rows inside
their bounding box), re-summarises the clusters they changed and ranks
those with the kept ones. A new site may join old clusters into one,
which takes the smallest of their labels. A first call (after ``load``
too), or one with other thresholds, starts from zero rows seen. Clusters
of equal size are summarised together, one array reduction per size, and
ranked by a stable sort on mean score, or a ``lexsort`` when two tie. The
result is a ``Clusters``, read-only columns in rank order (centroids,
mean scores, member counts) from which ``clusters.json`` is written
directly; ``ClusterSite`` records are built only on request, by iterating
it, and ``cluster_fields`` names the record fields for both.

The canonical linkability arithmetic is
``dx*dx + dy*dy <= dist_th*dist_th and abs(dz) <= z_th``
(plus ``+ dz*dz`` on the left for the 3-D metric). Dedup and ``nearest()``
share one squared distance, ``dx*dx + dy*dy + dz*dz`` (``_d2``), and dedup
refuses ``d2 < r*r``. Any reimplementation that follows the same forms
reproduces the flags and partitions bit-for-bit. The dedup radius and
both cluster thresholds are at most ``config.MAX_DISTANCE_M`` (1e150), so
their squares are finite and no threshold accepts a squared separation
that overflows to inf.

One pipeline thread owns the registry for writes; reads may interleave
between insertions and the object can be handed across threads freely.
``cluster_sites`` also writes the kept clusters, under the registry's lock,
so threads that cluster one registry take turns.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .config import MAX_DISTANCE_M
from .formats import integer_column, number, number_column, read_json, \
    write_records_json

# The rows insert's walk reads first when it looks for the next live one.
_FIRST_CHUNK = 64


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
        if not 0 < dedup_radius <= MAX_DISTANCE_M:
            raise ValueError(f"dedup radius must be positive and at most "
                             f"{MAX_DISTANCE_M:g}, not {dedup_radius!r}")
        self.dedup_radius = float(dedup_radius)
        # One row per site in each, read-only; only _append replaces them.
        self._pos = _read_only(np.empty((0, 3)))
        self._score = _read_only(np.empty(0))
        self._timestamp = _read_only(np.empty(0))
        self._frame_id: list[int] = []
        # cluster_sites' last result, advanced under the lock
        self._cluster_lock = threading.Lock()
        self._cluster_state = None

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
        at a time would.

        The batch is sorted once by x into contiguous (3, n) planes, and
        its ``dead`` flags are kept in that sorted order. Each stored site
        inside the batch's bounding box (widened by the radius), then each
        newly accepted candidate, kills the rows within its radius. A kill
        looks only at the slab of rows whose x lies within
        ``reach = r * (1 + 1e-9)`` of the killer's, a contiguous run of the
        planes bounded by binary search: it writes the slab's canonical
        ``_d2`` into scratch and ORs ``d2 < r*r`` into the slab's run of
        ``dead`` in place, with no gather or scatter. The slab holds every
        row the canonical test kills: ``_d2 < r*r`` needs ``|dx| < r``, and
        rounding is monotone, so ``x ± reach`` rounded still brackets every
        such row.

        The next accepted row is the first live one in original order,
        which ``_live_rows`` finds by reading ``dead`` through the inverse
        permutation a chunk at a time. An accepted row is marked dead
        itself: a radius whose square underflows to 0 kills nothing, not
        even its own row. Rows tied in x may sort in any order: the binary
        search reads only the sorted values, which ties leave the same, a
        kill decides each row by its own coordinates, and the walk reads
        each row's flag wherever it sorted, so no flag depends on it.

        Positions must be (N, 3); they, the N scores and the timestamp must
        be finite and the frame id an integer (not a bool), else ValueError
        before anything is stored. A distance that overflows is inf,
        quietly, and kills nothing.
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
        frame_id = _frame_id(frame_id)
        n = len(pos)
        if n == 0:
            return []
        r = self.dedup_radius
        r2 = r * r
        reach = r * (1 + 1e-9)
        order = np.argsort(pos[:, 0])  # any order of ties (see above)
        rank = np.empty(n, dtype=np.intp)  # row i sits at sorted rank[i]
        rank[order] = np.arange(n)
        # The batch as contiguous (3, n) planes sorted by x; searchsorted
        # reads the x plane uncopied, and a slab is a column run of them.
        sorted_pos = np.take(pos.T, order, axis=1)
        xs = sorted_pos[0]
        dead = np.zeros(n, dtype=bool)  # in sorted order
        d2, tmp = np.empty(n), np.empty(n)  # scratch, reused by every kill
        hit = np.empty(n, dtype=bool)

        def kill(q, lo, hi):  # re-killing a dead row changes nothing
            m = hi - lo
            slab = _d2(sorted_pos[:, lo:hi], q, d2[:m], tmp[:m])
            dead[lo:hi] |= np.less(slab, r2, out=hit[:m])

        with np.errstate(over="ignore"):
            existing = self.positions()
            stored = np.compress(_in_box(existing, pos, r), existing, axis=0)
            los = np.searchsorted(xs, stored[:, 0] - reach, side="left")
            his = np.searchsorted(xs, stored[:, 0] + reach, side="right")
            for q, lo, hi in zip(stored, los.tolist(), his.tolist()):
                if lo < hi:
                    kill(q, lo, hi)

            accepted = np.zeros(n, dtype=bool)
            for i in _live_rows(dead, rank):
                accepted[i] = True
                dead[rank[i]] = True  # also when r*r underflows to 0
                q = pos[i]
                kill(q, int(xs.searchsorted(q[0] - reach, side="left")),
                     int(xs.searchsorted(q[0] + reach, side="right")))
        rows = np.compress(accepted, pos, axis=0)
        self._append(rows, np.compress(accepted, scores),
                     [frame_id] * len(rows), timestamp)
        return accepted.tolist()

    def _accept(self, site: LandingSite) -> None:
        """Store one record as it is (no dedup)."""
        self._append(site.position[None], [site.score],
                     [_frame_id(site.frame_id)], site.timestamp)

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
            d2 = _d2(pos.T, np.asarray(query, dtype=np.float64).reshape(3))
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

        The radius must be a positive number at most ``MAX_DISTANCE_M`` and
        ``sites`` a list of records whose x, y, z, score and timestamp are
        finite numbers and whose frame_id is an integer (bools are neither).
        Each field is read in one pass over the records, and a failure names
        the first bad record (``sites[3].x must be a number, not 'a'``);
        anything else raises one of ``formats.PARSE_FAILURES``. So every
        snapshot ``save`` writes loads back as it was stored.
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


def _frame_id(value) -> int:
    """``value`` as a Python int; ValueError unless it is an integer (any
    size, numpy's too) other than a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"frame id must be an integer, not {value!r}")


def _live_rows(dead: np.ndarray, rank: np.ndarray):
    """The original rows whose flag ``dead[rank[i]]`` is False, ascending,
    found lazily: the caller may kill rows between two of them.

    Each search reads the flags of the next ``_FIRST_CHUNK`` rows in one
    gather; a chunk that is all dead doubles the next one, and every row
    found starts the search again at the first size, just past it.
    """
    i, step = 0, _FIRST_CHUNK
    while i < len(rank):
        chunk = dead.take(rank[i:i + step])
        k = int(chunk.argmin())  # the chunk's first live row, if any
        if chunk[k]:
            i += len(chunk)
            step *= 2
        else:
            yield i + k
            i += k + 1
            step = _FIRST_CHUNK


def _read_only(column: np.ndarray) -> np.ndarray:
    """A view of ``column`` that no caller can make writeable again."""
    column.flags.writeable = False
    return column.view()


def _in_box(points: np.ndarray, box: np.ndarray, pad: float) -> np.ndarray:
    """Which ``points`` lie in the bounding box of the ``box`` rows widened
    by ``pad``, tested one column at a time (a 1-D reduction is far cheaper
    than an axis-0 one over (n, 3)). Callers ignore overflow, so a bound
    past float range is inf."""
    inside = np.ones(len(points), dtype=bool)
    for c, column in zip(box.T, points.T):
        inside &= (column >= c.min() - pad) & (column <= c.max() + pad)
    return inside


def _d2(points: np.ndarray, q: np.ndarray, out: np.ndarray | None = None,
        tmp: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from each column of the (3, m) ``points`` to ``q``.

    Accumulated as ``(dx*dx + dy*dy) + dz*dz``, the canonical dedup form,
    into ``out`` with ``tmp`` as scratch when given (both of length m),
    else into new arrays.
    """
    x, y, z = points
    out = np.subtract(x, q[0], out=out)
    out *= out
    tmp = np.subtract(y, q[1], out=tmp)
    tmp *= tmp
    out += tmp
    np.subtract(z, q[2], out=tmp)
    tmp *= tmp
    out += tmp
    return out


@dataclass(frozen=True, eq=False)
class _ClusterState:
    """The clusters of a registry's first ``seen`` rows under ``key``, the
    ``(dist_th, z_th, metric)`` they were linked with. A cluster's label is
    its smallest member's row index: ``labels`` holds each row's, ``ranked``
    the labels in the rank order of ``clusters``."""

    key: tuple
    seen: int
    labels: np.ndarray
    ranked: np.ndarray
    clusters: Clusters


_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_CLUSTERS = Clusters(np.empty((0, 3)), np.empty(0), _NO_ROWS)


def cluster_sites(registry: SiteRegistry, dist_th: float, z_th: float,
                  metric: str = "xy") -> Clusters:
    """Single-linkage clusters of the registry under the dual threshold.

    Clusters are the connected components of the linkability graph, so the
    partition is independent of site ordering. Rows are ranked by mean
    score descending, ties by member count descending, then centroid
    lexicographic, then by smallest member index; an empty registry gives
    an empty ``Clusters``. Both thresholds must be positive and at most
    ``MAX_DISTANCE_M``, else ValueError.

    The registry keeps the clusters of the last call. Stored rows never
    change, so a call links and summarises only the rows stored since then
    and ranks the clusters they changed with the kept ones; a call with
    other thresholds or metric, or the first, starts from zero rows seen.
    The result depends only on the stored rows, bit for bit, not on which
    calls came before. Calls from several threads take turns.

    Linking and averaging run on the stored positions and scores, where a
    difference or a sum may overflow to inf, or a sum of both signs be NaN,
    without a warning: an inf difference fails its threshold, so such sites
    do not link, and the JSON writers refuse a non-finite summary.
    """
    if not (0 < dist_th <= MAX_DISTANCE_M and 0 < z_th <= MAX_DISTANCE_M):
        raise ValueError(f"clustering thresholds must be positive and at "
                         f"most {MAX_DISTANCE_M:g}")
    if metric not in ("xy", "xyz"):
        raise ValueError(f"unknown cluster metric {metric!r}")
    key = (dist_th, z_th, metric)
    with registry._cluster_lock:
        state = registry._cluster_state
        if state is None or state.key != key:
            state = _ClusterState(key, 0, _NO_ROWS, _NO_ROWS, _NO_CLUSTERS)
        n = len(registry)  # the frame ids grow last, so n rows are whole
        if state.seen < n:
            state = _advance(state, registry.positions()[:n],
                             registry._score[:n])
        registry._cluster_state = state
        return state.clusters


@np.errstate(over="ignore", invalid="ignore")
def _advance(state: _ClusterState, pos: np.ndarray,
             scores: np.ndarray) -> _ClusterState:
    """``state`` carried over every row of ``pos``: link the new rows,
    re-summarise the clusters they changed and rank those with the others.
    A state with no rows seen holds no clusters, so every row is new."""
    seen, n = state.seen, len(pos)
    i, j = _links(pos, seen, *state.key)
    labels = np.concatenate((state.labels, np.arange(seen, n)))
    joined = _NO_ROWS  # the labels the new links join
    if len(i):  # connected_components costs even on an empty graph
        # Merge the clusters the new links join. Each joined cluster takes
        # its smallest label, so a new row may bridge old ones.
        joined, ends = np.unique(np.concatenate((labels[i], labels[j])),
                                 return_inverse=True)
        graph = coo_matrix((np.ones(len(i), dtype=bool),
                            (ends[:len(i)], ends[len(i):])),
                           shape=(len(joined), len(joined)))
        _, component = connected_components(graph, directed=False)
        # joined ascends, so a component's first node is its smallest
        _, first = np.unique(component, return_index=True)
        remap = np.arange(n)
        remap[joined] = joined[first][component]
        labels = remap[labels]
    # Every changed cluster holds a new row: the new rows and the members
    # of the old clusters they joined, in ascending order. (``joined`` may
    # hold new rows' labels too, but no old row or kept cluster has one.)
    rows = np.concatenate((np.flatnonzero(np.isin(state.labels, joined)),
                           np.arange(seen, n)))
    roots, group = np.unique(labels[rows], return_inverse=True)

    # A stable sort keeps each group's members in ascending index order,
    # which fixes the summation order of centroids and mean scores. Groups
    # of one size are summarised together from their (groups, size) member
    # matrix; each row reduces exactly as a lone group's members would.
    counts = np.bincount(group)
    order = rows[np.argsort(group, kind="stable")]
    starts = np.cumsum(counts) - counts
    centroids = np.empty((len(counts), 3))
    mean_scores = np.empty(len(counts))
    for size in np.flatnonzero(np.bincount(counts)).tolist():
        groups = np.flatnonzero(counts == size)
        members = order[starts[groups][:, None] + np.arange(size)]
        centroids[groups] = pos[members].mean(axis=1)
        mean_scores[groups] = scores[members].mean(axis=1)
    # Rank the kept clusters with the changed ones, which ``pick`` indexes
    # in the kept and changed columns put end to end. A stable sort on the
    # first key is the whole ranking when no two tie on it; else lexsort,
    # label last, so clusters that tie on every key rank by smallest
    # member. take copies rows several times faster than fancy indexing.
    old = state.clusters
    ranked, centroids, mean_scores, counts = (
        np.concatenate(pair) for pair in (
            (state.ranked, roots), (old.centroids, centroids),
            (old.mean_score, mean_scores), (old.members, counts)))
    pick = np.flatnonzero(np.concatenate((~np.isin(state.ranked, joined),
                                          np.ones(len(roots), dtype=bool))))
    key = -mean_scores[pick]
    rank = np.argsort(key, kind="stable")
    ordered = key[rank]
    if not np.all(ordered[1:] > ordered[:-1]):  # a tie, or a NaN mean
        rank = np.lexsort((ranked[pick], centroids[pick, 2],
                           centroids[pick, 1], centroids[pick, 0],
                           -counts[pick], key))
    ranked, centroids, mean_scores, counts = (
        np.take(column, pick[rank], axis=0)
        for column in (ranked, centroids, mean_scores, counts))
    return _ClusterState(state.key, n, labels, ranked,
                         Clusters(centroids, mean_scores, counts))


def _links(pos: np.ndarray, seen: int, dist_th: float, z_th: float,
           metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ``i < j`` that link, ``j`` past the first ``seen`` rows."""
    # Any linkable pair lies within sqrt(dist_th^2 + z_th^2) in 3-D; the
    # tree only prefilters (radius widened past rounding, and floored where
    # a square would lose its relative precision), the canonical arithmetic
    # below decides. It sees the positions clipped to +-1e153: clipping
    # moves no two sites apart, and no squared span can overflow. Only
    # rows inside the new rows' bounding box, widened by that radius, can
    # reach a new row.
    reach = max(math.hypot(dist_th, z_th), 1e-150) * (1 + 1e-9)
    near = np.flatnonzero(_in_box(pos, pos[seen:], reach))
    # An unbalanced, uncompacted tree finds the same pairs and builds faster.
    tree = cKDTree(np.clip(pos[near], -1e153, 1e153), balanced_tree=False,
                   compact_nodes=False)
    # near ascends, so each pair keeps i < j
    pairs = near[tree.query_pairs(reach, output_type="ndarray")]
    i, j = pairs[pairs[:, 1] >= seen].T
    dx = pos[i, 0] - pos[j, 0]
    dy = pos[i, 1] - pos[j, 1]
    dz = pos[i, 2] - pos[j, 2]
    xy2 = dx * dx + dy * dy
    if metric == "xy":
        link = (xy2 <= dist_th * dist_th) & (np.abs(dz) <= z_th)
    else:
        link = (xy2 + dz * dz <= dist_th * dist_th) & (np.abs(dz) <= z_th)
    return i[link], j[link]
