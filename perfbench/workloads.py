"""The benchmark's seeded workloads.

Each workload builds its inputs from the seed alone, hands the package
only the generated frames or sites, and then runs rounds in a closed
loop with one caller: the next frame or batch is issued only after the
previous one's registry update and re-clustering have finished, because
registry dedup depends on insertion order.

* ``rubble`` renders a 5-frame depth sweep, writes it as a frame stream
  and reads it back into memory. A round is one in-process ``landsite
  detect`` over the stream (the batch job) plus one online pass over the
  in-memory frames with a fresh registry.
* ``registry-mission`` writes a mission snapshot of sites and replays
  batches of world candidates around the edge of the known field. A
  round is one mission pass that starts from ``SiteRegistry.load``, with
  one in-process ``landsite cluster`` job on the snapshot after each
  batch.

Every pass of a round is identical, so the figures do not depend on how
many rounds fit into the measured time. Batch jobs alternate with the
online work, so both sample the whole run: on a shared host the speed
drifts over tens of seconds, and samples bunched in time would follow
that drift.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from landsite import cli, pipeline, registry, scene_synth
from landsite.config import get_profile
from landsite.geometry import camera_pose

import checks
import hostspeed

PROFILE = "sim"
QUERIES_PER_STEP = 50
FRAME_RATE_HZ = 20.0
SWEEP_SPACING_M = 0.5
# Ground footprint of the 640x480, f=525 px camera seen from 5.5 m.
FOOTPRINT_M = (6.7, 5.0)
SITE_SPACING_M = 0.6
SITE_JITTER_M = 0.04  # keeps neighbours >= 0.52 m apart, above the 0.5 m radius
RUBBLE_LAYOUT_SEED = 7  # the reference stream's clutter layout
RUBBLE_NOISE_M = 0.002

SIZES = {
    "default": {"frames": 5, "grid_side": 50, "batch_points": 20000,
                "batches": 20, "probe_sides": (50, 100), "probe_queries": 200},
    "tiny": {"frames": 2, "grid_side": 17, "batch_points": 2000,
             "batches": 3, "probe_sides": (12, 17), "probe_queries": 20},
}


class Recorder:
    """Samples and operation counts of one run.

    ``frame_ms`` and ``batch_s`` hold times scaled to the nominal host
    speed (see ``hostspeed``); ``wall`` holds the same samples unscaled.
    """

    def __init__(self):
        self.frame_ms: list[float] = []
        self.batch_s: list[float] = []
        self.wall: dict[str, list[float]] = {"frame_ms": [], "batch_s": []}
        self.nearest_us: list[float] = []
        self.attempted = 0
        self.failed = 0

    def sample(self, kind: str, value: float, ref_before: float,
               ref_after: float) -> None:
        self.wall[kind].append(value)
        getattr(self, kind).append(hostspeed.scaled(value, ref_before, ref_after))

    def failure(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc()


def _root(tracer, name: str, trace: str):
    return tracer.root(name, trace) if tracer else contextlib.nullcontext()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def terrace_z(x, y):
    """Terraced ground height: steps of 0.25 m along x and 0.15 m along y."""
    return 0.25 * np.floor(x / 7.5) + 0.15 * np.floor(y / 10.0)


def grid_sites(rng, side: int) -> np.ndarray:
    """``side``^2 sites on a jittered 0.6 m grid over terraced ground."""
    iy, ix = np.divmod(np.arange(side * side), side)
    x = ix * SITE_SPACING_M + rng.uniform(-SITE_JITTER_M, SITE_JITTER_M, side * side)
    y = iy * SITE_SPACING_M + rng.uniform(-SITE_JITTER_M, SITE_JITTER_M, side * side)
    z = terrace_z(x, y) + rng.uniform(-0.003, 0.003, side * side)
    return np.column_stack([x, y, z])


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, sizes: dict, tracer=None):
        self.seed = seed
        self.work = work
        self.sizes = sizes
        self.tracer = tracer
        self.config = get_profile(PROFILE)
        self.check_digests = sizes is SIZES["default"]
        self.first_digests: dict | None = None
        self.final_sites = 0
        self.final_clusters = 0
        self.write_bytes = 0
        self.ref = None  # the latest hostspeed.reference() time, set after set-up

    def record(self, rec: Recorder, kind: str, value: float) -> None:
        """Keep a sample, scaled by the reference loads timed before and
        after it; the one after also serves the next operation."""
        after = hostspeed.reference()
        rec.sample(kind, value, self.ref, after)
        self.ref = after

    def cluster(self, reg):
        c = self.config
        return registry.cluster_sites(reg, c.cluster_dist_m, c.cluster_z_m,
                                      c.cluster_metric)

    def query(self, rec: Recorder, reg, queries, tag: str) -> None:
        """Timed ``nearest()`` calls, checked afterwards by brute force."""
        asked, answers = [], []
        for j, q in enumerate(queries):
            rec.attempted += 1
            try:
                with _root(self.tracer, "query", f"query-{tag}-{j}"):
                    t0 = time.perf_counter()
                    ans = reg.nearest(q)
                    t1 = time.perf_counter()
            except Exception:
                rec.failure(f"nearest() {tag}-{j}")
                continue
            rec.nearest_us.append((t1 - t0) * 1e6)
            asked.append(q)
            answers.append(None if ans is None
                           else (np.asarray(ans[0].position), ans[1]))
        positions = checks.site_positions(reg.to_json_obj())
        checks.nearest_answers(positions, asked, answers, f"{self.name} {tag}")

    def digests(self) -> dict:
        """sha256 of this run's outputs, as recorded in digests.json."""
        return dict(self.first_digests or {})

    def pass_digests(self, digests: dict) -> None:
        if self.first_digests is None:
            self.first_digests = digests
            if self.check_digests:
                checks.matches_recorded(self.name, self.seed, digests)
        else:
            checks.same_across_passes(self.first_digests, digests, self.name)


class Rubble(Workload):
    """The reference RUBBLE scene swept along +x at its canonical 5.5 m
    height: ``detect`` as the batch job, the frames online.

    The seed draws the depth noise, not the clutter: a seed's clutter
    layout sets how many candidates a frame yields (113k-144k a sweep
    over seeds 11-15), so seeded layouts would make ``batch_s`` differ by
    seed more than by code. With 2 mm noise on one layout the count
    varies by under 1% across seeds.
    """

    name = "rubble"

    def setup(self) -> None:
        c = self.config
        rng = np.random.default_rng(self.seed)
        layout = scene_synth.canonical_scenes(seed=RUBBLE_LAYOUT_SEED)[scene_synth.RUBBLE]
        height = scene_synth.CANONICAL_HEIGHTS[scene_synth.RUBBLE]
        intrinsics = scene_synth.default_intrinsics()
        rendered = []
        for i in range(self.sizes["frames"]):
            # Distinct noise per frame, as `landsite synth` renders a sweep;
            # seeds are 1000 apart so no two runs share a frame.
            per_frame = scene_synth.SceneSpec(primitives=layout.primitives,
                                              noise_sigma=RUBBLE_NOISE_M,
                                              seed=1000 * self.seed + i)
            pose = camera_pose((i * SWEEP_SPACING_M, 0.0, height))
            frame, _ = scene_synth.render_depth(per_frame, intrinsics, pose,
                                                frame_id=i,
                                                timestamp=i / FRAME_RATE_HZ)
            rendered.append(frame)
        self.stream = self.work / "stream"
        self.out = self.work / "detect"
        pipeline.write_frame_stream(self.stream, rendered)
        self.frames = list(pipeline.read_frame_stream(self.stream, c.d_min_m,
                                                      c.d_max_m))
        if len(self.frames) != len(rendered):
            raise checks.CheckFailed(f"{self.name}: stream read back "
                                     f"{len(self.frames)} of {len(rendered)} frames")
        half = np.array(FOOTPRINT_M) / 2
        cams = np.repeat([f.pose_world_from_camera.translation for f in self.frames],
                         QUERIES_PER_STEP, axis=0)
        self.queries = np.column_stack([
            cams[:, :2] + rng.uniform(-half, half, (len(cams), 2)),
            rng.uniform(0.0, 1.0, len(cams))])
        self.detect_sites = self.detect_clusters = None
        if self.tracer:
            self.tracer.trace = "warmup"
        reg = registry.SiteRegistry(c.dedup_radius_m)
        self.frame_update(self.frames[0], reg)
        reg.nearest(self.queries[0])

    def round(self, rec: Recorder, r: int) -> None:
        self.batch_jobs(rec, r)
        self.online_pass(rec, r)

    def frame_update(self, frame, reg):
        """One online frame: costmaps, detection with insert, re-clustering."""
        maps = pipeline.evaluate_costmaps(self.config, frame)
        pipeline.detect_frame(self.config, frame, maps, reg)
        return self.cluster(reg)

    def batch_jobs(self, rec: Recorder, r: int) -> None:
        """One in-process `landsite detect` over the stream."""
        n = len(self.frames)
        rec.attempted += n
        argv = ["detect", "--in", str(self.stream), "--profile", PROFILE,
                "--out", str(self.out)]
        try:
            with _root(self.tracer, "detect", f"pass-{r}"):
                t0 = time.perf_counter()
                code, printed = run_cli(argv)
                t1 = time.perf_counter()
        except Exception:
            rec.failure(f"detect pass {r}")
            rec.failed += n - 1
            return
        if code != 0:
            print(f"detect pass {r} exited {code}", file=sys.stderr)
            rec.failed += n
            return
        self.record(rec, "batch_s", t1 - t0)
        m = re.search(r"frames: (\d+) \(failed: (\d+)\)", printed)
        if m:  # frames the pipeline failed plus frames the reader skipped
            rec.failed += int(m.group(2)) + (n - int(m.group(1)))
        paths = {name: self.out / name for name in checks.OUTPUT_FILES}
        self.write_bytes = sum(p.stat().st_size for p in paths.values())
        self.pass_digests({k: checks.sha256_file(p) for k, p in paths.items()})
        if self.detect_sites is None:
            with open(paths["sites.json"], encoding="utf-8") as f:
                self.detect_sites = json.load(f)
            with open(paths["clusters.json"], encoding="utf-8") as f:
                self.detect_clusters = json.load(f)

    def online_pass(self, rec: Recorder, r: int) -> None:
        reg = registry.SiteRegistry(self.config.dedup_radius_m)
        clusters = []
        for i, frame in enumerate(self.frames):
            rec.attempted += 1
            try:
                with _root(self.tracer, "frame", f"frame-{r}-{i}"):
                    t0 = time.perf_counter()
                    clusters = self.frame_update(frame, reg)
                    t1 = time.perf_counter()
            except Exception:
                rec.failure(f"frame {r}-{i}")
                continue
            self.record(rec, "frame_ms", (t1 - t0) * 1e3)
        # The planner queries the registry the sweep built. Querying after
        # every frame instead would mix registries of 10 to 40 sites and
        # make the figure depend on the seed's scene more than on nearest().
        self.query(rec, reg, self.queries, str(r))
        self.finish_pass(reg, clusters, r)

    def finish_pass(self, reg, clusters, r: int) -> None:
        sites_obj = reg.to_json_obj()
        clusters_obj = {"clusters": [c.to_json_obj() for c in clusters]}
        self.final_sites, self.final_clusters = len(reg), len(clusters)
        if self.detect_sites is not None:
            checks.equal_objects(self.detect_sites, sites_obj,
                                 f"{self.name} sites.json")
            checks.equal_objects(self.detect_clusters, clusters_obj,
                                 f"{self.name} clusters.json")
        if r == 0:
            checks.dedup_invariant(checks.site_positions(sites_obj),
                                   self.config.dedup_radius_m, self.name)


class RegistryMission(Workload):
    """A mission snapshot grown by batches of world candidates; no images."""

    name = "registry-mission"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        radius = self.config.dedup_radius_m
        side = self.sizes["grid_side"]
        sites = grid_sites(rng, side)
        checks.dedup_invariant(sites, radius, "mission snapshot")
        scores = rng.uniform(0.72, 0.95, len(sites))
        self.snapshot = self.work / "sites.json"
        self.cli_out = self.work / "clusters.json"
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.snapshot, "w", encoding="utf-8") as f:
            json.dump({"dedup_radius_m": radius, "sites": [
                {"x": float(x), "y": float(y), "z": float(z), "score": float(s),
                 "frame_id": i // 100, "timestamp": (i // 100) / FRAME_RATE_HZ}
                for i, ((x, y, z), s) in enumerate(zip(sites, scores))]}, f)
        self.batches = self.walk(rng, side)
        reg = registry.SiteRegistry.load(self.snapshot)
        self.cli_digest = None
        self.snapshot_clusters = {"clusters": [
            c.to_json_obj() for c in self.cluster(reg)]}
        if self.tracer:
            self.tracer.trace = "warmup"
        positions, scores, _ = self.batches[0]
        reg.insert_positions(positions, scores, 1, 0.0)
        self.cluster(reg)
        reg.nearest(self.batches[0][2][0])

    def walk(self, rng, side: int) -> list:
        """Footprints stepping around the field's edge, part on new ground.

        Each footprint centre sits 1.0-1.5 m outside the edge, so about
        three quarters of it is unmapped and the rest overlaps known sites.
        """
        edge = (side - 1) * SITE_SPACING_M
        perimeter = 4 * edge
        n = self.sizes["batches"]
        start = rng.uniform(0.0, perimeter)
        direction = rng.choice([-1.0, 1.0])
        half = np.array(FOOTPRINT_M) / 2
        points = self.sizes["batch_points"]
        batches = []
        for k in range(n):
            s = (start + direction * k * perimeter / n) % perimeter
            side_no, along = divmod(s, edge)
            out = rng.uniform(1.0, 1.5)
            centre = {0: (along, -out), 1: (edge + out, along),
                      2: (edge - along, edge + out), 3: (-out, edge - along)}[side_no]
            xy = np.array(centre) + rng.uniform(-half, half, (points, 2))
            z = terrace_z(xy[:, 0], xy[:, 1]) + rng.normal(0.0, 0.004, points)
            positions = np.column_stack([xy, z])
            scores = rng.uniform(0.72, 1.0, points)
            q_xy = np.array(centre) + rng.uniform(-half, half, (QUERIES_PER_STEP, 2))
            q_z = terrace_z(q_xy[:, 0], q_xy[:, 1]) + rng.uniform(0.0, 0.3, QUERIES_PER_STEP)
            batches.append((positions, scores, np.column_stack([q_xy, q_z])))
        return batches

    def batch_job(self, rec: Recorder, r: int, j: int) -> None:
        """One `landsite cluster` run on the snapshot, timed as a batch job."""
        rec.attempted += 1
        argv = ["cluster", "--sites", str(self.snapshot), "--profile", PROFILE,
                "--out", str(self.cli_out)]
        try:
            with _root(self.tracer, "cluster-job", f"job-{r}-{j}"):
                t0 = time.perf_counter()
                code, _ = run_cli(argv)
                t1 = time.perf_counter()
        except Exception:
            rec.failure(f"cluster job {r}-{j}")
            return
        if code != 0:
            print(f"cluster job {r}-{j} exited {code}", file=sys.stderr)
            rec.failed += 1
            return
        self.record(rec, "batch_s", t1 - t0)
        self.write_bytes = self.cli_out.stat().st_size
        digest = checks.sha256_file(self.cli_out)
        if self.cli_digest is None:
            with open(self.cli_out, encoding="utf-8") as f:
                checks.equal_objects(self.snapshot_clusters, json.load(f),
                                     "registry-mission cluster job")
            self.cli_digest = digest
            if self.check_digests:
                checks.matches_recorded(self.name, self.seed,
                                        {"cluster_job.json": digest})
        elif digest != self.cli_digest:
            raise checks.CheckFailed("registry-mission: cluster job output "
                                     "differs between runs")

    def digests(self) -> dict:
        return {**super().digests(), "cluster_job.json": self.cli_digest}

    def round(self, rec: Recorder, r: int) -> None:
        self.online_pass(rec, r, jobs=True)

    def online_pass(self, rec: Recorder, r: int, jobs: bool = False) -> None:
        with _root(self.tracer, "mission-load", f"load-{r}"):
            reg = registry.SiteRegistry.load(self.snapshot)
        clusters = []
        for k, (positions, scores, queries) in enumerate(self.batches):
            rec.attempted += 1
            try:
                with _root(self.tracer, "batch", f"batch-{r}-{k}"):
                    t0 = time.perf_counter()
                    reg.insert_positions(positions, scores, 1 + k,
                                         k / FRAME_RATE_HZ)
                    clusters = self.cluster(reg)
                    t1 = time.perf_counter()
            except Exception:
                rec.failure(f"batch {r}-{k}")
                continue
            self.record(rec, "frame_ms", (t1 - t0) * 1e3)
            self.query(rec, reg, queries, f"{r}-{k}")
            if jobs:
                self.batch_job(rec, r, k)
        sites_obj = reg.to_json_obj()
        clusters_obj = {"clusters": [c.to_json_obj() for c in clusters]}
        self.final_sites, self.final_clusters = len(reg), len(clusters)
        if r == 0:
            checks.dedup_invariant(checks.site_positions(sites_obj),
                                   self.config.dedup_radius_m, self.name)
        self.pass_digests({"sites.json": checks.sha256_obj(sites_obj),
                           "clusters.json": checks.sha256_obj(clusters_obj)})


WORKLOADS = {w.name: w for w in (Rubble, RegistryMission)}


def scaling_probe(tracer, sizes: dict, seed: int) -> None:
    """Insert, cluster and nearest() on fresh registries of growing size.

    Spans land in traces ``probe-<i>``, one per size; run only traced.
    """
    config = get_profile(PROFILE)
    rng = np.random.default_rng(seed)
    for i, side in enumerate(sizes["probe_sides"]):
        n = side * side
        sites = grid_sites(rng, side)
        edge = (side - 1) * SITE_SPACING_M
        queries = np.column_stack([rng.uniform(0.0, edge, (sizes["probe_queries"], 2)),
                                   rng.uniform(0.0, 1.0, sizes["probe_queries"])])
        with tracer.root("probe", f"probe-{i}"):
            reg = registry.SiteRegistry(config.dedup_radius_m)
            reg.insert_positions(sites, np.full(n, 0.8), 0, 0.0)
            registry.cluster_sites(reg, config.cluster_dist_m, config.cluster_z_m,
                                   config.cluster_metric)
            for q in queries:
                reg.nearest(q)
