"""Readers and writers for the files the pipeline speaks.

PFM (portable float map, single channel) carries depth frames and costmap
dumps; PGM (8-bit binary) carries binary maps and previews. PFM rows are
stored bottom-up; a negative scale marks little-endian data, which is what
we always write.

Invalid-pixel encoding: depth PFMs use 0.0 (out of sensor range), costmap
PFMs use NaN.

JSON documents go through ``read_json``/``malformed`` (any parse failure
becomes one error naming the file) and ``write_json`` (strict JSON only).
Every reader takes its scalar fields through ``number`` (a finite int or
float) and ``integer`` (an int); a bool is neither. Vector and matrix
fields go through ``numbers``, element by element under the same rule.
"""

from __future__ import annotations

import contextlib
import json
import math
import re

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


def number(obj: dict, key: str, default: float | None = None) -> float:
    """``obj[key]`` as a float; it must be a finite int or float, not a bool.
    With ``default`` given, a missing key reads as ``default``."""
    value = obj[key] if default is None else obj.get(key, default)
    return _finite(value, key)


def _finite(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return float(value)


def numbers(obj: dict, key: str, shape: tuple = (3,)) -> np.ndarray:
    """``obj[key]`` as a float64 array of ``shape``, spelled as nested lists
    of exactly that shape whose every element follows the ``number`` rule."""
    def read(value, shape, name):
        if not isinstance(value, list) or len(value) != shape[0]:
            raise TypeError(f"{name} must be a list of {shape[0]}, "
                            f"not {value!r}")
        if len(shape) == 1:
            return [_finite(v, f"{name}[{i}]") for i, v in enumerate(value)]
        return [read(v, shape[1:], f"{name}[{i}]")
                for i, v in enumerate(value)]
    return np.array(read(obj[key], shape, key))


def integer(obj: dict, key: str, default: int | None = None) -> int:
    """``obj[key]``, which must be an int and not a bool. With ``default``
    given, a missing key reads as ``default``."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


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
        data = f.read()
    with malformed(path, "PFM file"):
        magic, dims, scale, payload = data.split(b"\n", 3)
        if magic.strip() != b"Pf":
            raise OSError(f"{path}: not a single-channel PFM file")
        width, height = map(int, dims.split())
        dtype = "<f4" if float(scale) < 0 else ">f4"
        count = _pixels(width, height, 4, payload)
        img = np.frombuffer(payload, dtype, count=count)
    return np.flipud(img.reshape(height, width)).astype(np.float32)


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
    fields = []
    for m in re.finditer(rb"#[^\n]*|\S+", data):  # '#' starts a comment
        if not m[0].startswith(b"#"):
            fields.append(m)
            if len(fields) == 4:
                break
    if not fields or fields[0][0] != b"P5":
        raise OSError(f"{path}: not a binary PGM file")
    with malformed(path, "PGM file"):
        width, height, maxval = (int(m[0]) for m in fields[1:])
        if maxval != 255:
            raise OSError(f"{path}: only 8-bit PGM supported")
        payload = data[fields[-1].end() + 1:]  # one whitespace after maxval
        pixels = np.frombuffer(payload, np.uint8,
                               count=_pixels(width, height, 1, payload))
    return pixels.reshape(height, width).copy()


def _pixels(width: int, height: int, pixel_bytes: int, payload: bytes) -> int:
    """Pixel count a raster header declares; ValueError unless both sides
    are >= 1 and ``payload`` holds every pixel."""
    if width < 1 or height < 1:
        raise ValueError(f"dimensions {width} x {height} are not positive")
    if width * height * pixel_bytes > len(payload):
        raise ValueError(f"{width} x {height} pixels do not fit in the "
                         f"{len(payload)}-byte payload")
    return width * height


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
