"""Per-stage wall-clock benchmark over a frame set.

Each repetition is one ``run_pipeline`` pass, the frame loop ``detect``
runs, with no candidates written (fresh registry, so dedup and its cost
repeat exactly; failed and empty frames are handled as in ``detect``).
Costmap and dense-detection rows are each frame's ``stage_ms``;
clustering is the pass's one ``cluster_ms`` split evenly over its
frames. The report gives mean and standard deviation per stage over all
frames of all passes, in milliseconds.

The Depth Accuracy, Flatness and Energy rows, each including its map's
normalisation, run on the calling thread while the Steepness row
(normals and steepness) runs on the costmap worker, so on a multi-core
host those rows overlap and "Total Time", the sum of the rows, is more
than a frame's wall time. "Final" is the fusion (``decision_map``)
alone, after the two branches join. The ``costmaps`` module docstring
describes this schedule.
"""

from __future__ import annotations

import statistics

from .config import PipelineConfig
from .pipeline import run_pipeline

# The first five are the costmap stages, listed under "Costmap Evaluation".
STAGES = ("depth_accuracy", "flatness", "steepness", "energy", "final",
          "dense_detection", "clustering")


def _mean_std(samples: list[float]) -> dict:
    std = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return {"mean_ms": statistics.fmean(samples), "std_ms": std}


def bench(config: PipelineConfig, frames, repetitions: int = 1) -> dict:
    """Time every stage across ``repetitions`` passes over the frames.

    Returns the ``timing.json`` document: ``n_frames``, ``repetitions``,
    ``stages`` (``{name: {"mean_ms", "std_ms"}}`` in ``STAGES`` order)
    and ``total``, the same statistics of each frame's summed stages.
    """
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
    return {
        "n_frames": len(frames),
        "repetitions": repetitions,
        "stages": {name: _mean_std(per_stage[name]) for name in STAGES},
        "total": _mean_std(totals),
    }


def timing_table(report: dict) -> str:
    """Aligned text table of a ``bench`` report, one row per stage plus
    the total; each label is the stage name title-cased."""
    cells = [(("  " if i < 5 else "") + name.replace("_", " ").title(),
              report["stages"][name]) for i, name in enumerate(STAGES)]
    cells.append(("Total Time", report["total"]))
    rows = [("Algorithm", "Time (mean ± std) ms"), ("Costmap Evaluation", "")]
    rows += [(label, f"{s['mean_ms']:8.1f} ± {s['std_ms']:5.1f}")
             for label, s in cells]
    width = max(len(label) for label, _ in rows) + 2
    lines = [rows[0][0].ljust(width) + rows[0][1],
             "-" * (width + len(rows[0][1]))]
    lines += [label.ljust(width) + value for label, value in rows[1:]]
    return "\n".join(lines)
