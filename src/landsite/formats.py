"""Readers and writers for the files the pipeline speaks.

PFM (portable float map, single channel) carries depth frames and costmap
dumps; PGM (8-bit binary) carries binary maps and previews. PFM rows are
stored bottom-up; a negative scale marks little-endian data, which is what
we always write.

Invalid-pixel encoding: depth PFMs use 0.0 (out of sensor range), costmap
PFMs use NaN.

JSON documents go through ``read_json``/``malformed`` (any parse failure
becomes one error naming the file) and ``write_json`` (strict JSON only).
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

PARSE_FAILURES = (KeyError, TypeError, ValueError, OverflowError,
                  RecursionError)


@contextlib.contextmanager
def malformed(where, what: str, error=OSError):
    """Re-raise a parse failure in the block as ``error`` naming ``where``."""
    try:
        yield
    except PARSE_FAILURES as exc:
        raise error(f"{where}: malformed {what} "
                    f"({type(exc).__name__}: {exc})") from exc


def read_json(path, parse, what: str, error=OSError):
    """``parse`` applied to the JSON document at ``path``, inside ``malformed``."""
    with open(path, "r", encoding="utf-8") as f, malformed(path, what, error):
        return parse(json.load(f))


def write_json(path, obj) -> None:
    """Write ``obj`` as indented strict JSON plus a newline.

    A non-finite number raises OSError naming ``path`` before the file opens.
    """
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OSError(f"{path}: cannot write as strict JSON ({exc})") from exc
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def read_pfm(path) -> np.ndarray:
    """Read a single-channel PFM file into a float32 (H, W) array."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"Pf":
            raise OSError(f"{path}: not a single-channel PFM file")
        dims = f.readline().split()
        if len(dims) != 2:
            raise OSError(f"{path}: malformed PFM dimensions")
        width, height = int(dims[0]), int(dims[1])
        scale = float(f.readline().strip())
        dtype = "<f4" if scale < 0 else ">f4"
        buf = f.read(width * height * 4)
        if len(buf) != width * height * 4:
            raise OSError(f"{path}: truncated PFM payload")
    img = np.frombuffer(buf, dtype=dtype).reshape(height, width)
    return np.flipud(img).astype(np.float32)


def write_pfm(path, values: np.ndarray) -> None:
    """Write a (H, W) array as a little-endian single-channel PFM."""
    a = np.asarray(values, dtype=np.float32)
    if a.ndim != 2:
        raise ValueError("PFM writer expects a 2-D array")
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.flipud(a).astype("<f4").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a uint8 (H, W) array."""
    with open(path, "rb") as f:
        data = f.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise OSError(f"{path}: not a binary PGM file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise OSError(f"{path}: only 8-bit PGM supported")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).copy()


def write_pgm(path, values: np.ndarray) -> None:
    a = np.asarray(values, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError("PGM writer expects a 2-D array")
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(a.tobytes())


def write_binary_pgm(path, bits: np.ndarray) -> None:
    """Write a {0, 1} map as a 0/255 PGM."""
    write_pgm(path, np.where(np.asarray(bits) != 0, 255, 0).astype(np.uint8))


def write_values_pfm(path, values: np.ndarray, valid: np.ndarray) -> None:
    """Dump a masked scalar field as PFM with NaN at invalid pixels."""
    out = np.asarray(values, dtype=np.float32).copy()
    out[~np.asarray(valid, dtype=bool)] = np.nan
    write_pfm(path, out)


def read_values_pfm(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`write_values_pfm`: returns (values, valid)."""
    raw = read_pfm(path)
    valid = np.isfinite(raw)
    values = np.where(valid, raw, 0.0)
    return values, valid


def preview_u8(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Scale a masked field to 1..255 over its valid range; invalid -> 0."""
    v = np.asarray(values, dtype=np.float64)
    ok = np.asarray(valid, dtype=bool)
    out = np.zeros(v.shape, dtype=np.uint8)
    if not ok.any():
        return out
    lo = float(v[ok].min())
    hi = float(v[ok].max())
    if hi - lo < 1e-12:
        out[ok] = 128
        return out
    scaled = np.rint(1.0 + 254.0 * (v - lo) / (hi - lo))
    out[ok] = scaled[ok].astype(np.uint8)
    return out
