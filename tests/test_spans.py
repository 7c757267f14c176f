"""The benchmark's per-layer spans still attach to the package.

``perfbench/spans.py`` wraps package functions by name and reads work
counts off their arguments and results. A renamed function or a changed
signature silently zeroes a per-layer metric in traced benchmark runs;
these tests run one small frame and clusters its sites, then one
``landsite cluster`` job on a saved snapshot, under the tracer so they
fail instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from landsite import cli, pipeline, registry
from landsite.config import get_profile
from landsite.geometry import CameraIntrinsics, DepthFrame, camera_pose

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets whose functions no longer exist; the benchmark lists them under
# ``missing_targets`` and their metrics read 0 until they are retargeted.
KNOWN_MISSING = {
    "landsite.pipeline.candidate_indices",
    "landsite.pipeline.build_candidates",
    "landsite.kdtree:KDTree.insert",
    "landsite.kdtree:KDTree.nearest",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ancestors(spans, span) -> list[int]:
    out = []
    while span[2] >= 0:
        out.append(span[2])
        span = spans[span[2]]
    return out


def test_spans_attach_and_count():
    config = get_profile("sim")
    intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=11.5,
                            width=32, height=24)
    depth = np.full((24, 32), 4.0)
    frame = DepthFrame(depth, np.ones_like(depth, bool), intr,
                       camera_pose((0, 0, 4.0)))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        maps = pipeline.evaluate_costmaps(config, frame)
        sites = registry.SiteRegistry(config.dedup_radius_m)
        pipeline.detect_frame(config, frame, maps, sites)
        clusters = registry.cluster_sites(sites, config.cluster_dist_m,
                                          config.cluster_z_m,
                                          config.cluster_metric)
    finally:
        tracer.uninstall()

    assert set(tracer.missing) <= KNOWN_MISSING, tracer.missing
    names = {span[0] for span in tracer.spans}
    assert names >= {"costmaps", "costmaps.depth_confidence", "canny", "edt",
                     "costmaps.normals", "costmaps.steepness",
                     "costmaps.energy", "costmaps.fuse", "detection",
                     "detection.lift", "registry.insert",
                     "registry.cluster"}, names
    costmaps = [i for i, span in enumerate(tracer.spans)
                if span[0] == "costmaps"]
    assert len(costmaps) == 1, names
    frame_span = tracer.spans[costmaps[0]]
    # The depth-only maps (Canny, the EDT and the three normalisations
    # among them) run on the calling thread while the normals run on a
    # worker thread, and the tracer keeps one span stack for all threads,
    # so their direct parent may be a span of the other branch; each
    # still lies inside the frame's costmaps span, under it.
    def inside_frame(span):
        assert costmaps[0] in _ancestors(tracer.spans, span), span
        assert frame_span[3] <= span[3] <= span[4] <= frame_span[4], span

    for name in ("canny", "edt"):
        found = [span for span in tracer.spans if span[0] == name]
        assert len(found) == 1, (name, names)
        inside_frame(found[0])
    # Four fuse spans: three normalisations in the calling thread's depth
    # branch, then decision_map, the only stage after the join, directly
    # under the frame's costmaps span once every other stage has ended.
    fuse = sorted((span for span in tracer.spans
                   if span[0] == "costmaps.fuse"), key=lambda span: span[3])
    assert len(fuse) == 4, names
    for span in fuse:
        inside_frame(span)
    decision = fuse[-1]
    assert decision[2] == costmaps[0]
    stages = [span for span in tracer.spans
              if costmaps[0] in _ancestors(tracer.spans, span)]
    assert decision[3] >= max(span[4] for span in stages
                              if span is not decision)
    counts = {span[0]: span[5] for span in tracer.spans if span[5]}
    assert counts["canny"]["valid_px"] == 24 * 32
    assert counts["costmaps"] == {"valid_px": 24 * 32, "pixels": 24 * 32}
    assert counts["registry.insert"]["offered"] > 0
    assert counts["registry.insert"]["accepted"] == len(sites) > 0
    assert len(clusters) > 0


def test_cluster_job_spans_attach(tmp_path, capsys):
    config = get_profile("sim")
    sites = registry.SiteRegistry(config.dedup_radius_m)
    sites.insert_positions(np.array([(0.0, 0.0, 0.0), (3.0, 0.0, 0.0)]),
                           np.array([0.9, 0.8]), 0, 0.0)
    sites.save(tmp_path / "sites.json")
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        code = cli.main(["cluster", "--sites", str(tmp_path / "sites.json"),
                         "--profile", "sim", "--out", str(tmp_path / "c.json")])
    finally:
        tracer.uninstall()

    assert code == 0, capsys.readouterr().err
    assert set(tracer.missing) <= KNOWN_MISSING, tracer.missing
    names = [span[0] for span in tracer.spans]
    assert names.count("registry.load") == 1, names
    assert names.count("registry.cluster") == 1, names
    assert names.count("pipeline.write") == 1, names
    assert (tmp_path / "c.json").exists()
