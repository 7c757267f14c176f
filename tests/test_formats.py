import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landsite.formats import (
    malformed,
    preview_u8,
    read_pfm,
    write_binary_pgm,
    write_pfm,
    write_pgm,
    write_json,
    write_records_json,
    write_values_pfm,
)


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a uint8 (H, W) array; OSError
    naming ``path`` if it is malformed. No command reads PGM, so the
    reader lives with the tests of the writers."""
    data = Path(path).read_bytes()
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
        if not (width >= 1 and height >= 1
                and width * height <= len(payload)):
            raise ValueError(f"{width} x {height} pixels do not fit in the "
                             f"{len(payload)}-byte payload")
        pixels = np.frombuffer(payload, np.uint8, count=width * height)
    return pixels.reshape(height, width).copy()


class TestPfm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0.01, 20.0, (17, 23)).astype(np.float32)
        path = tmp_path / "depth.pfm"
        write_pfm(path, img)
        assert np.array_equal(read_pfm(path), img)

    def test_nan_survives(self, tmp_path):
        img = np.full((4, 5), 1.5, np.float32)
        img[2, 3] = np.nan
        path = tmp_path / "m.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        assert np.isnan(back[2, 3])
        assert back[0, 0] == 1.5

    def test_big_endian_read(self, tmp_path):
        img = np.arange(12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "be.pfm"
        with open(path, "wb") as f:
            f.write(b"Pf\n4 3\n1.0\n")
            f.write(np.flipud(img).astype(">f4").tobytes())
        assert np.array_equal(read_pfm(path), img)

    def test_rejects_color_pfm(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(OSError):
            read_pfm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n\x00\x00")
        with pytest.raises(OSError):
            read_pfm(path)

    def test_masked_values_round_trip(self, tmp_path):
        values = np.array([[1.0, -2.0], [0.5, 9.0]])
        valid = np.array([[True, False], [True, True]])
        path = tmp_path / "v.pfm"
        write_values_pfm(path, values, valid)
        back = read_pfm(path)
        assert np.array_equal(np.isfinite(back), valid)
        assert np.allclose(back[valid], values[valid])
        assert np.isnan(back[0, 1])


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_reads_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        assert np.array_equal(read_pgm(path), [[1, 2], [3, 4]])

    def test_binary_map_is_0_255(self, tmp_path):
        bits = np.array([[0, 1], [1, 0]], np.uint8)
        path = tmp_path / "b.pgm"
        write_binary_pgm(path, bits)
        back = read_pgm(path)
        assert set(np.unique(back).tolist()) == {0, 255}
        assert np.array_equal(back != 0, bits != 0)

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(OSError):
            read_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P5\n2 2\n255\n\x01\x02\x03",  # truncated payload
        b"P5\n2 2\n255",  # no payload
        b"P5\nx 2\n255\n\x01\x02\x03\x04",
        b"P5\n2 2\nmax\n\x01\x02\x03\x04",
        b"P5\n-2 -2\n255\n\x01\x02\x03\x04",
        b"P5\n0 2\n255\n\x01\x02\x03\x04",
        b"P5\n2",
    ], ids=["truncated", "no_payload", "width_text", "maxval_text",
            "negative", "zero_width", "short_header"])
    def test_malformed_header_is_oserror_naming_file(self, tmp_path, data):
        path = tmp_path / "m.pgm"
        path.write_bytes(data)
        with pytest.raises(OSError, match=re.escape(str(path))):
            read_pgm(path)


class TestPreview:
    def test_scales_valid_range(self):
        values = np.array([[0.0, 5.0, 10.0]])
        valid = np.ones((1, 3), bool)
        out = preview_u8(values, valid)
        assert out[0, 0] == 1
        assert out[0, 2] == 255
        assert 120 < out[0, 1] < 136

    def test_invalid_is_zero(self):
        values = np.array([[1.0, 2.0]])
        valid = np.array([[False, True]])
        out = preview_u8(values, valid)
        assert out[0, 0] == 0
        assert out[0, 1] == 128  # single value -> degenerate range

    def test_all_invalid(self):
        out = preview_u8(np.ones((2, 2)), np.zeros((2, 2), bool))
        assert np.all(out == 0)


# Finite JSON numbers: floats of every magnitude (signed zeros, subnormals,
# near the float limit) and ints past int64.
JSON_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.1,
                                   1.7e308, -1.7e308, 2**70, -2**70])
                | st.integers(-2**70, 2**70))


class TestJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_write_refuses_non_finite_and_leaves_no_file(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(OSError, match=re.escape(str(path))):
            write_json(path, {"clusters": [{"cx": value}]})
        assert not path.exists()

    @pytest.mark.parametrize("column", ["x", "y", "z", "score", "frame_id",
                                        "timestamp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_records_refuse_non_finite_and_leave_no_file(self, tmp_path,
                                                         column, value):
        columns = {"x": np.array([0.0, 1.0]), "y": np.array([0.0, 1.0]),
                   "z": np.array([0.5, 1.5]), "score": [0.25, 0.75],
                   "frame_id": [0, 2**70], "timestamp": np.array([0.0, 1.0])}
        columns[column][1] = value
        path = tmp_path / "doc.json"
        with pytest.raises(OSError, match=re.escape(str(path))):
            write_records_json(path, {"dedup_radius_m": 0.5}, "sites", columns)
        assert not path.exists()

    @pytest.mark.parametrize("head,column", [
        ({"r": float("nan")}, [1.0]), ({}, [True]), ({}, [None]),
        ({}, ["1.0"]), ({}, np.array([True]))])
    def test_records_refuse_non_numbers_and_leave_no_file(self, tmp_path,
                                                          head, column):
        path = tmp_path / "doc.json"
        with pytest.raises(OSError, match=re.escape(str(path))):
            write_records_json(path, head, "rows", {"v": column})
        assert not path.exists()

    @pytest.mark.parametrize("head,columns", [
        ({"dedup_radius_m": 0.5}, {"x": np.empty(0), "frame_id": []}),
        ({}, {}),
        ({"r": -0.0, "n": 2**70}, {"v": [5e-324, -1.7e308, 0.1, 2**70]})])
    def test_records_match_json_dumps_fixed(self, tmp_path, head, columns):
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        path = tmp_path / "doc.json"
        write_records_json(path, head, "rows", columns)
        assert path.read_text(encoding="utf-8") == json.dumps(
            {**head, "rows": rows}, indent=2, allow_nan=False) + "\n"

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_records_match_json_dumps(self, data):
        names = data.draw(st.lists(st.text(max_size=4), max_size=4,
                                   unique=True))
        n = data.draw(st.integers(0, 5)) if names else 0
        head = data.draw(st.dictionaries(
            st.text(max_size=3).filter(lambda k: k != "rows"),
            JSON_NUMBERS, max_size=2))
        values = {name: data.draw(st.lists(JSON_NUMBERS, min_size=n,
                                           max_size=n)) for name in names}
        # float columns go in as arrays or lists, the rest as lists
        columns = {name: np.array(v) if all(type(x) is float for x in v)
                   and data.draw(st.booleans()) else v
                   for name, v in values.items()}
        doc = {**head, "rows": [{name: values[name][i] for name in names}
                                for i in range(n)]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            write_records_json(path, head, "rows", columns)
            assert path.read_text(encoding="utf-8") == \
                json.dumps(doc, indent=2, allow_nan=False) + "\n"

    def test_malformed_names_the_line_and_passes_other_errors(self):
        with pytest.raises(OSError, match=r"^f\.jsonl:3: malformed pose record \(KeyError"):
            with malformed("f.jsonl:3", "pose record"):
                {}["qw"]
        with pytest.raises(ZeroDivisionError):
            with malformed("f.jsonl:3", "pose record"):
                1 / 0
