"""Per-stage wall-clock benchmark over a frame set.

Each repetition is one ``run_pipeline`` pass (fresh registry, so dedup
and its cost repeat exactly; failed and empty frames are handled as in
``detect``). Costmap and dense-detection rows are each frame's
``stage_ms``; clustering is the pass's one ``cluster_ms`` split evenly
over its frames. The report gives mean and standard deviation per stage
over all frames of all passes, in milliseconds.

The Depth Accuracy and Flatness rows run on a worker thread while the
Steepness and Energy rows run on the caller's (see
``pipeline.evaluate_costmaps``), so on a multi-core host those rows
overlap and "Total Time", the sum of the rows, is more than a frame's
wall time.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .config import PipelineConfig
from .formats import write_json
from .pipeline import run_pipeline

STAGES = ("depth_accuracy", "flatness", "steepness", "energy", "final",
          "dense_detection", "clustering")

STAGE_LABELS = {
    "depth_accuracy": "Depth Accuracy",
    "flatness": "Flatness",
    "steepness": "Steepness",
    "energy": "Energy",
    "final": "Final",
    "dense_detection": "Dense Detection",
    "clustering": "Clustering",
}

_COSTMAP_STAGES = ("depth_accuracy", "flatness", "steepness", "energy", "final")


@dataclass(frozen=True)
class StageStat:
    mean_ms: float
    std_ms: float


@dataclass(eq=False)
class TimingReport:
    stages: dict[str, StageStat]
    total: StageStat
    n_frames: int
    repetitions: int

    def __post_init__(self):
        if any(s.mean_ms < 0 or s.std_ms < 0 for s in self.stages.values()):
            raise ValueError("stage statistics must be non-negative")

    def to_json_obj(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "repetitions": self.repetitions,
            "stages": {name: {"mean_ms": s.mean_ms, "std_ms": s.std_ms}
                       for name, s in self.stages.items()},
            "total": {"mean_ms": self.total.mean_ms, "std_ms": self.total.std_ms},
        }

    def save(self, path) -> None:
        write_json(path, self.to_json_obj())

    def to_table(self) -> str:
        """Aligned text table, one row per stage plus the total."""
        rows = [("Algorithm", "Time (mean ± std) ms")]
        rows.append(("Costmap Evaluation", ""))
        for name in _COSTMAP_STAGES:
            s = self.stages[name]
            rows.append((f"  {STAGE_LABELS[name]}", _fmt(s)))
        for name in ("dense_detection", "clustering"):
            s = self.stages[name]
            rows.append((STAGE_LABELS[name], _fmt(s)))
        rows.append(("Total Time", _fmt(self.total)))
        width = max(len(r[0]) for r in rows) + 2
        lines = [rows[0][0].ljust(width) + rows[0][1],
                 "-" * (width + len(rows[0][1]))]
        lines += [name.ljust(width) + val for name, val in rows[1:]]
        return "\n".join(lines)


def _fmt(s: StageStat) -> str:
    return f"{s.mean_ms:8.1f} ± {s.std_ms:5.1f}"


def _mean_std(samples: list[float]) -> StageStat:
    std = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return StageStat(mean_ms=statistics.fmean(samples), std_ms=std)


def bench(config: PipelineConfig, frames, repetitions: int = 1) -> TimingReport:
    """Time every stage across ``repetitions`` passes over the frames."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    frames = list(frames)
    if not frames:
        raise ValueError("benchmark needs at least one frame")
    per_stage: dict[str, list[float]] = {name: [] for name in STAGES}
    for _ in range(repetitions):
        result = run_pipeline(config, frames)
        for fr in result.frames:
            for name, ms in fr.stage_ms.items():
                per_stage[name].append(ms)
            per_stage["clustering"].append(result.cluster_ms / len(result.frames))
    if not per_stage["clustering"]:
        raise ValueError("every frame failed; nothing to time")
    totals = [sum(row) for row in zip(*per_stage.values())]
    return TimingReport(
        stages={name: _mean_std(per_stage[name]) for name in STAGES},
        total=_mean_std(totals),
        n_frames=len(frames),
        repetitions=repetitions,
    )
