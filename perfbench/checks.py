"""Output checks, written in the benchmark's own code.

Each check raises ``CheckFailed`` with a one-line reason. The scans here
are brute force on purpose: they are the reference the package's indexed
code must agree with, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

OUTPUT_FILES = ("candidates.jsonl", "sites.json", "clusters.json")
DIGESTS_PATH = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    pass


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_obj(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def same_across_passes(first: dict, this: dict, what: str) -> None:
    """Every pass of one run must produce byte-identical outputs."""
    for key in first:
        if first[key] != this.get(key):
            raise CheckFailed(f"{what}: {key} differs between passes "
                              f"({first[key][:12]} vs {str(this.get(key))[:12]})")


def equal_objects(expected, got, what: str) -> None:
    if expected != got:
        raise CheckFailed(f"{what}: online result differs from the batch job's output")


def site_positions(registry_obj: dict) -> np.ndarray:
    sites = registry_obj["sites"]
    return np.array([[s["x"], s["y"], s["z"]] for s in sites],
                    dtype=np.float64).reshape(-1, 3)


def dedup_invariant(positions: np.ndarray, radius: float, what: str) -> None:
    """Stored sites are pairwise at least ``radius`` apart (squared, x-y-z order)."""
    r2 = radius * radius
    n = len(positions)
    for start in range(0, n, 128):  # small blocks keep peak_rss_mb the package's
        block = positions[start:start + 128]
        dx = block[:, 0][:, None] - positions[:, 0][None, :]
        dy = block[:, 1][:, None] - positions[:, 1][None, :]
        dz = block[:, 2][:, None] - positions[:, 2][None, :]
        d2 = dx * dx + dy * dy + dz * dz
        rows = np.arange(len(block))
        d2[rows, start + rows] = np.inf
        close = np.argwhere(d2 < r2)
        if len(close):
            i, j = close[0]
            raise CheckFailed(
                f"{what}: sites {start + i} and {j} are "
                f"{math.sqrt(d2[i, j]):.4f} m apart, under the "
                f"{radius} m dedup radius")


def nearest_answers(positions: np.ndarray, queries, answers, what: str) -> None:
    """Each ``(site_position, distance)`` answer equals a brute-force scan.

    The scan accumulates squared distances in x, y, z order and breaks
    ties toward the earliest-inserted site.
    """
    for q, ans in zip(queries, answers):
        if len(positions) == 0:
            if ans is not None:
                raise CheckFailed(f"{what}: nearest() answered on an empty registry")
            continue
        dx = q[0] - positions[:, 0]
        dy = q[1] - positions[:, 1]
        dz = q[2] - positions[:, 2]
        d2 = dx * dx + dy * dy + dz * dz
        best = int(np.argmin(d2))  # argmin returns the first of equal minima
        if ans is None:
            raise CheckFailed(f"{what}: nearest() returned None on a non-empty registry")
        pos, dist = ans
        if not (np.array_equal(pos, positions[best])
                and dist == float(np.sqrt(d2[best]))):
            raise CheckFailed(
                f"{what}: nearest({list(q)}) gave {list(pos)} at {dist!r}; "
                f"brute force gives site {best} {list(positions[best])} "
                f"at {float(np.sqrt(d2[best]))!r}")


def recorded_digests(workload: str, seed: int) -> dict | None:
    with open(DIGESTS_PATH, encoding="utf-8") as f:
        rec = json.load(f).get(workload)
    if rec is None or rec["seed"] != seed:
        return None
    return rec["sha256"]


def matches_recorded(workload: str, seed: int, digests: dict) -> None:
    """At the default seed, outputs must equal the recorded reference bytes."""
    expected = recorded_digests(workload, seed)
    if expected is None:
        return
    for key, value in digests.items():
        if expected.get(key) != value:
            raise CheckFailed(f"{workload} seed {seed}: {key} sha256 "
                              f"{value[:12]} differs from the recorded "
                              f"{str(expected.get(key))[:12]}")
