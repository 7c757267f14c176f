"""In-memory spans and the wrappers that record them in a traced run.

A span is one timed call: name, trace id, parent span, start and end
(``time.perf_counter`` seconds) and optional counts. The benchmark opens
root spans around its own calls (one trace per frame, pass or query);
wrappers installed on the package's module and class attributes open
child spans for the layers underneath. Because the package looks those
attributes up at call time, the wrappers see every call without any
change to the package. Nothing is written until ``dump`` at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

# (owner, attribute, span name, counts extractor). The owner is a module
# path or "module:Class". Several attributes may share a span name when
# the package imports one function under several modules.
TARGETS = (
    ("landsite.costmaps", "depth_confidence_map", "costmaps.depth_confidence", None),
    ("landsite.costmaps", "canny_edges", "canny", "edges"),
    ("landsite.costmaps", "distance_transform", "edt", None),
    ("landsite.costmaps", "surface_normals", "costmaps.normals", None),
    ("landsite.costmaps", "steepness_map", "costmaps.steepness", None),
    ("landsite.costmaps", "energy_map", "costmaps.energy", None),
    ("landsite.costmaps", "minmax_normalize", "costmaps.fuse", None),
    ("landsite.costmaps", "decision_map", "costmaps.fuse", None),
    ("landsite.pipeline", "evaluate_costmaps", "costmaps", "frame_pixels"),
    ("landsite.pipeline", "detect_frame", "detection", None),
    ("landsite.pipeline", "candidate_indices", "detection.select", "selected"),
    ("landsite.pipeline", "build_candidates", "detection.build", None),
    ("landsite.pipeline", "world_positions", "detection.lift", None),
    ("landsite.pipeline", "write_candidates_jsonl", "pipeline.write_candidates", None),
    ("landsite.pipeline", "cluster_sites", "registry.cluster", None),
    ("landsite.registry", "cluster_sites", "registry.cluster", None),
    ("landsite.cli", "cluster_sites", "registry.cluster", None),
    ("landsite.cli", "read_frame_stream", "pipeline.read", "generator"),
    ("landsite.cli", "run_pipeline", "pipeline.run", None),
    ("landsite.cli", "write_outputs", "pipeline.write", None),
    ("landsite.cli", "write_clusters_json", "pipeline.write", None),
    ("landsite.scene_synth", "render_depth", "scene_synth.render", None),
    ("landsite.registry:SiteRegistry", "insert_positions", "registry.insert", "offered"),
    ("landsite.registry:SiteRegistry", "load", "registry.load", None),
    ("landsite.kdtree:KDTree", "insert", "kdtree.insert", None),
    ("landsite.kdtree:KDTree", "nearest", "kdtree.nearest", None),
)


def _counts(kind, args, result) -> dict:
    """Work counts read off a wrapped call's arguments and result."""
    if kind == "edges":  # canny_edges(frame, low, high) -> BinaryMap
        return {"edge_px": int(result.bits.sum()),
                "valid_px": int(args[0].valid.sum())}
    if kind == "frame_pixels":  # evaluate_costmaps(config, frame)
        return {"valid_px": int(args[1].valid.sum()),
                "pixels": int(args[1].valid.size)}
    if kind == "selected":  # candidate_indices(...) -> (ys, xs)
        return {"candidates": int(len(result[0]))}
    if kind == "offered":  # insert_positions(self, positions, ...) -> flags
        return {"offered": int(len(result)), "accepted": int(sum(result))}
    return {}


class Tracer:
    """Records spans; ``install``/``uninstall`` patch the package."""

    def __init__(self):
        # Each span: [name, trace, parent index or -1, start, end, counts].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace = "setup"
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.trace, parent, time.perf_counter(),
                           None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][4] = time.perf_counter()
        if counts:
            self.spans[idx][5] = counts
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, trace: str):
        """A benchmark-level root span that starts a new trace."""
        self.trace = trace
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, kind):
        tracer = self

        if kind == "generator":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.end(idx)
                        return
                    except BaseException:
                        tracer.end(idx)
                        raise
                    tracer.end(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            counts = None
            if kind is not None:
                try:
                    counts = _counts(kind, args, result)
                except (AttributeError, IndexError, TypeError):
                    counts = None  # signature changed: time it, count nothing
            tracer.end(idx, counts)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every target; a target that no longer exists is noted."""
        self.missing = []
        for owner_path, attr, name, kind in TARGETS:
            module_path, _, cls_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_path)
                if cls_name:
                    owner = getattr(owner, cls_name)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(static, classmethod):
                patched = classmethod(self._wrap(static.__func__, name, kind))
            elif isinstance(static, staticmethod):
                patched = staticmethod(self._wrap(static.__func__, name, kind))
            else:
                patched = self._wrap(static, name, kind)
            self._saved.append((owner, attr, static))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, static in reversed(self._saved):
            setattr(owner, attr, static)
        self._saved = []

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"missing_targets": self.missing}) + "\n")
            for i, (name, trace, parent, t0, t1, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "trace": trace, "parent": parent,
                       "start": t0, "end": t1}
                if counts:
                    rec["counts"] = counts
                f.write(json.dumps(rec) + "\n")
