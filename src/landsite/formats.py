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
A list of records is read one field at a time by ``number_column`` and
``integer_column`` (the same rules, checked over the whole column) and
written column by column by ``write_records_json``, byte for byte what
``write_json`` gives for the same document.
"""

from __future__ import annotations

import contextlib
import json
import math

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
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        raise OverflowError(f"{name} is too large for a float") from None
    if not finite:
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
    return _integer(value, key)


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def _field(records: list, where: str, key: str) -> list:
    """``rec[key]`` of every record in the list ``records``; a failure names
    the first bad record as ``where[i]``."""
    if type(records) is not list:
        raise TypeError(f"{where} must be a list, not {type(records).__name__}")
    try:
        return [rec[key] for rec in records]
    except (KeyError, TypeError):
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise TypeError(f"{where}[{i}] must be an object, "
                                f"not {type(rec).__name__}") from None
            if key not in rec:
                raise KeyError(f"{where}[{i}].{key}") from None
        raise


def number_column(records: list, where: str, key: str) -> np.ndarray:
    """``rec[key]`` of every record as a float64 array, each value under the
    ``number`` rule; a failure names the first bad record, ``where[i].key``.

    JSON numbers are exactly the ints and floats, so one type scan, one
    array conversion (OverflowError for an int too large for a float) and
    one ``isfinite`` settle a valid column; only a failing column is
    walked value by value, to name the record.
    """
    values = _field(records, where, key)
    if all(type(v) is float or type(v) is int for v in values):
        with contextlib.suppress(OverflowError):
            column = np.array(values, dtype=np.float64)
            if np.isfinite(column).all():
                return column
    return np.array([_finite(v, f"{where}[{i}].{key}")
                     for i, v in enumerate(values)], dtype=np.float64)


def integer_column(records: list, where: str, key: str) -> list[int]:
    """``rec[key]`` of every record, a list of ints under the ``integer``
    rule; a failure names the first bad record, ``where[i].key``."""
    values = _field(records, where, key)
    if not all(type(v) is int for v in values):
        for i, v in enumerate(values):
            _integer(v, f"{where}[{i}].{key}")
    return values


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


def write_records_json(path, head: dict, key: str, columns: dict) -> None:
    """Write ``{**head, key: records}`` exactly as ``write_json`` would, where
    record ``i`` maps each column name to the column's ``i``-th value.

    ``head`` holds scalar values. Each column is a numpy array or a list of
    ints and floats, all of one length. The records are formatted in one
    pass with ``%r``: ``json.dumps`` writes an int with ``int.__repr__``
    and a finite float with ``float.__repr__``, so the bytes match. A
    non-finite float or any other value raises OSError naming ``path``
    before the file opens.
    """
    try:
        head_text = "".join(
            f"  {json.dumps(k)}: {json.dumps(v, allow_nan=False)},\n"
            for k, v in head.items())
    except ValueError as exc:
        raise OSError(f"{path}: cannot write as strict JSON ({exc})") from exc
    values = [_json_numbers(path, name, column)
              for name, column in columns.items()]
    body = "[]"
    if values and values[0]:
        fields = ",\n".join(f"      {json.dumps(name).replace('%', '%%')}: %r"
                            for name in columns)
        record = "    {\n" + fields + "\n    }"
        rows = zip(*values, strict=True)
        body = "[\n" + ",\n".join(record % row for row in rows) + "\n  ]"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{{\n{head_text}  {json.dumps(key)}: {body}\n}}\n")


def _json_numbers(path, name: str, column) -> list:
    """``column`` as a list of Python ints and finite floats, or OSError."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            raise OSError(f"{path}: cannot write as strict JSON "
                          f"(non-finite {name})")
        return column.tolist()
    values = list(column)
    if not all(type(v) is int or (type(v) is float and math.isfinite(v))
               for v in values):
        raise OSError(f"{path}: cannot write as strict JSON ({name} holds a "
                      f"value that is not a finite number)")
    return values


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
