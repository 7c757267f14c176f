"""Golden-output digests: the sample scenes end to end, byte for byte.

Each canonical scene, and the hole scene of ``hole_scene.json``, is
synthesised once (3 frames, 3 mm seeded depth noise), then run through
``detect`` under both profiles and through ``costmap`` for frame 0, all
in-process through ``cli.main``. Every file written, the stream
included, must match the sha256 recorded in ``golden.json``. So must the
float64 ``surface_normals`` arrays of each stream's frame 0, which no
written file holds at full precision. On a mismatch the message names
the first differing file and, for a JSON or JSONL file, its first
differing line (or the smallest run of lines the record can tell apart).

The hole scene has no ground plane: its slab, carrying a safe pad, a
rotated block and a sphere, fills about half of each frame seen from
5.5 m. The rays that miss it give invalid depth, so it pins the
invalid-pixel paths (Canny's forcing, the masked EDT, min-max and
validity gate) that no canonical frame reaches.

The digests pin numpy and scipy arithmetic, so the test skips when the
installed versions differ from the recorded ones. A change that alters a
decision re-records the digests, together with a ``CHANGES.md`` line that
names each affected file and says why::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
import scipy

from landsite.cli import main as cli_main
from landsite.config import get_profile
from landsite.costmaps import surface_normals
from landsite.pipeline import read_frame_stream

GOLDEN = Path(__file__).with_name("golden.json")
HOLES = "holes"
SCENES = ("flat_pad", "steep_wall", "tree", "roof_edge", "rubble", HOLES)
HOLE_SCENE = Path(__file__).with_name("hole_scene.json")
PROFILES = ("sim", "real")
# A JSON or JSONL file's lines are digested in at most this many runs, so
# a file of up to BLOCKS lines is located to the line.
BLOCKS = 64


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def run_scene(scene: str, root: Path) -> list[Path]:
    """Synthesise ``scene`` once and run every digested command on it."""
    stream = root / "stream"
    commands = [synth_argv(scene, stream, frames=3)]
    commands += [["detect", "--in", str(stream), "--profile", profile,
                  "--out", str(root / profile)] for profile in PROFILES]
    commands.append(["costmap", "--in", str(stream), "--frame-id", "0",
                     "--out", str(root / "costmap")])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0, argv
    return [path for sub in ("stream", *PROFILES, "costmap")
            for path in sorted((root / sub).iterdir())]


def synth_argv(scene: str, stream: Path, frames: int) -> list[str]:
    source = ["--scene-file", str(HOLE_SCENE), "--height-m", "5.5"] \
        if scene == HOLES else ["--scene", scene]
    return ["synth", *source, "--out", str(stream),
            "--frames", str(frames), "--noise-sigma-m", "0.003"]


def normals_digest(stream: Path) -> dict:
    """sha256 of frame 0's ``surface_normals(frame, 3)`` arrays."""
    config = get_profile("sim")
    frame = next(read_frame_stream(stream, config.d_min_m, config.d_max_m))
    nm = surface_normals(frame, 3)
    return {"normals": hashlib.sha256(nm.normals.tobytes()).hexdigest(),
            "valid": hashlib.sha256(nm.valid.tobytes()).hexdigest()}


def line_blocks(data: bytes, lines_per_block: int) -> list[str]:
    lines = data.splitlines(keepends=True)
    return [hashlib.sha256(b"".join(lines[i:i + lines_per_block]))
            .hexdigest()[:12] for i in range(0, len(lines), lines_per_block)]


def digest(path: Path) -> dict:
    data = path.read_bytes()
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix in (".json", ".jsonl"):
        size = max(1, -(-len(data.splitlines()) // BLOCKS))
        record["lines_per_block"] = size
        record["blocks"] = line_blocks(data, size)
    return record


def first_difference(name: str, path: Path, want: dict) -> str:
    """Where ``path`` first departs from its recorded digest."""
    if "blocks" not in want:
        return f"{name} differs"
    size = want["lines_per_block"]
    got = line_blocks(path.read_bytes(), size)
    k = next(k for k, (a, b) in enumerate(zip_longest(got, want["blocks"]))
             if a != b)
    first = k * size + 1
    lines = f"line {first}" if size == 1 else f"lines {first}-{first + size - 1}"
    return f"{name} differs first at {lines}"


def record() -> None:
    files, normals = {}, {}
    for scene in SCENES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for path in run_scene(scene, root):
                files[f"{scene}/{path.relative_to(root)}"] = digest(path)
            normals[scene] = normals_digest(root / "stream")
    GOLDEN.write_text(json.dumps({"versions": versions(), "files": files,
                                  "normals": normals},
                                 indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"golden digests were recorded with {recorded['versions']}, "
                    f"installed are {versions()}")
    return recorded


@pytest.mark.parametrize("scene", SCENES)
def test_canonical_scene_outputs_match_golden(scene, golden):
    want = {name: rec for name, rec in golden["files"].items()
            if name.startswith(f"{scene}/")}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        got = {f"{scene}/{p.relative_to(root)}": p for p in run_scene(scene, root)}
        assert sorted(got) == sorted(want), "the set of output files changed"
        for name, rec in want.items():
            if digest(got[name])["sha256"] != rec["sha256"]:
                pytest.fail(first_difference(name, got[name], rec))


@pytest.mark.parametrize("scene", SCENES)
def test_canonical_scene_normals_match_golden(scene, golden):
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "stream"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(synth_argv(scene, stream, frames=1)) == 0
        # Frames are rendered one by one, so this is the golden stream's frame 0.
        frame0 = digest(stream / "000000.pfm")["sha256"]
        assert frame0 == golden["files"][f"{scene}/stream/000000.pfm"]["sha256"]
        assert normals_digest(stream) == golden["normals"][scene]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
