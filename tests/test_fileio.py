"""File formats: round trips are byte-exact, malformed input names the offset."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bana.core import BBox, BoxSet
from bana.fileio import (
    FileFormatError,
    read_boxes,
    read_image,
    read_json,
    read_label_map,
    read_tensor,
    write_boxes,
    write_image,
    write_label_map,
    write_tensor,
)


class TestTensor:
    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.btf"
        write_tensor(path, arr)
        back = read_tensor(path, expected_rank=3)
        assert np.array_equal(back, arr)
        # rewriting what was read reproduces the exact same bytes
        first = path.read_bytes()
        write_tensor(path, back)
        assert path.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.btf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="offset 0"):
            read_tensor(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "t.btf"
        write_tensor(path, np.ones((2, 3), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FileFormatError, match="expected 24 payload bytes.*found 20"):
            read_tensor(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "t.btf"
        header = b"BTF1" + np.asarray([2, 0, 3], dtype="<u4").tobytes()
        path.write_bytes(header)
        with pytest.raises(FileFormatError, match="dimension 0"):
            read_tensor(path)

    def test_dims_whose_product_wraps_are_counted_exactly(self, tmp_path):
        # 2**22 * 2**21 * 2**21 = 2**64 elements: an int64 product wraps to 0,
        # which the empty payload of this 20-byte file would match.
        path = tmp_path / "t.btf"
        path.write_bytes(b"BTF1" + np.asarray([3, 2**22, 2**21, 2**21], dtype="<u4").tobytes())
        with pytest.raises(FileFormatError, match=f"expected {2**66} payload bytes at offset 20, found 0"):
            read_tensor(path)

    def test_rank_mismatch(self, tmp_path):
        path = tmp_path / "t.btf"
        write_tensor(path, np.ones((4,), dtype=np.float32))
        with pytest.raises(FileFormatError, match="rank 1, expected 3"):
            read_tensor(path, expected_rank=3)

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_tensor(tmp_path / "t.btf", np.array([1.0, np.nan], dtype=np.float32))


class TestLabelMap:
    def test_round_trip(self, tmp_path):
        y = np.array([[0, 1, 255], [3, 2, 0]], dtype=np.uint8)
        path = tmp_path / "y.pgm"
        write_label_map(path, y)
        assert np.array_equal(read_label_map(path, num_classes=3), y)
        first = path.read_bytes()
        write_label_map(path, read_label_map(path))
        assert path.read_bytes() == first

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "y.pgm"
        write_label_map(path, np.array([[0, 200]], dtype=np.uint8))
        with pytest.raises(FileFormatError, match="label out of range: value 200"):
            read_label_map(path, num_classes=20)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "y.pgm"
        write_label_map(path, np.zeros((4, 4), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FileFormatError, match="expected 16 pixel bytes.*found 13"):
            read_label_map(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "y.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="maxval"):
            read_label_map(path)

    def test_overlong_header_field(self, tmp_path):
        # int() refuses a string of more than 4300 digits with a bare ValueError.
        path = tmp_path / "y.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 4\n255\n")
        with pytest.raises(FileFormatError, match="at most 9 digits at offset 3"):
            read_label_map(path)

    def test_rejects_float_labels(self, tmp_path):
        with pytest.raises(ValueError, match="integer"):
            write_label_map(tmp_path / "y.pgm", np.zeros((2, 2), dtype=np.float32))


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "y.pgm"
    target.mkdir()  # the final rename onto a directory fails
    with pytest.raises(OSError):
        write_label_map(target, np.zeros((2, 2), dtype=np.uint8))
    assert list(tmp_path.glob("*.tmp")) == []


class TestImage:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        path = tmp_path / "i.ppm"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="bad magic"):
            read_image(path)


class TestBoxes:
    def test_round_trip_bytes(self, tmp_path):
        bs = BoxSet(64, 48, [BBox(2, 1, 2, 10, 12), BBox(1, 20, 20, 33, 40)])
        path = tmp_path / "b.json"
        write_boxes(path, bs)
        back = read_boxes(path)
        assert back == bs
        first = path.read_bytes()
        write_boxes(path, back)
        assert path.read_bytes() == first

    def test_missing_key(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"width": 4, "boxes": []}')
        with pytest.raises(FileFormatError, match="missing required key 'height'"):
            read_boxes(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"width": 4, "height": 4, "boxes": [{"class": 1, "xmin": 0.5, "ymin": 0, "xmax": 2, "ymax": 2}]}',
             "boxes\\[0\\] fields must be integers"),
            ('{"width": 4, "height": 4, "boxes": [{"class": true, "xmin": false, "ymin": 0, "xmax": 2, "ymax": 2}]}',
             "boxes\\[0\\] fields must be integers"),
            ('{"width": 4, "height": 4, "boxes": [{"class": 1, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": true}]}',
             "boxes\\[0\\] fields must be integers"),
            ('{"width": true, "height": 4, "boxes": []}', "'width' has the wrong type"),
        ],
        ids=["float", "bool-class-xmin", "bool-ymax", "bool-width"],
    )
    def test_non_integer_field(self, tmp_path, text, message):
        path = tmp_path / "b.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=message):
            read_boxes(path)

    def test_class_past_254_names_file_and_box(self, tmp_path):
        # Labels are bytes and 255 is IGNORE, so class 255 has no label value.
        path = tmp_path / "b.json"
        path.write_text('{"width": 4, "height": 4, "boxes": [{"class": 1, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}, '
                        '{"class": 255, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}]}')
        with pytest.raises(FileFormatError, match=f"^{path}: boxes\\[1\\]: class_id must be in \\[1, 254\\]"):
            read_boxes(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{nope")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            read_boxes(path)


class TestJson:
    REQUIRED = {"k": (int,), "s": (str, type(None))}

    def test_returns_the_object_with_every_key(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"k": 3, "s": null, "extra": [1]}')
        assert read_json(path, self.REQUIRED) == {"k": 3, "s": None, "extra": [1]}
        assert read_json(path) == {"k": 3, "s": None, "extra": [1]}

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"{nope", "invalid JSON"),
            (b"[" * 100_000, "invalid JSON: maximum recursion depth"),
            ('{"k": "\u00e9"}'.encode("utf-8"), "invalid JSON: .*ascii"),
            (b"1" * 5000, "invalid JSON"),
            (b"[]", "top level must be a JSON object"),
            (b"null", "top level must be a JSON object"),
            (b'{"s": ""}', "missing required key 'k'"),
            (b'{"k": true, "s": ""}', "'k' has the wrong type: True"),
            (b'{"k": 1.0, "s": ""}', "'k' has the wrong type: 1.0"),
            (b'{"k": 1, "s": 2}', "'s' has the wrong type: 2"),
        ],
        ids=["syntax", "deep", "non-ascii", "too-many-digits", "list", "null", "missing", "bool", "float", "int-for-str"],
    )
    def test_malformed_input_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "x.json"
        path.write_bytes(data)
        with pytest.raises(FileFormatError, match=f"^{path}: {message}"):
            read_json(path, self.REQUIRED)


# ---------------------------------------------------------------------------
# property tests: every reader returns or raises FileFormatError, nothing else
# ---------------------------------------------------------------------------

_READERS = {
    "tensor": read_tensor,
    "label_map": lambda path: read_label_map(path, 3),
    "image": read_image,
    "boxes": read_boxes,
    "json": lambda path: read_json(path, {"width": (int,), "boxes": (list,)}),
}
# Starts of valid files, so that arbitrary bytes after them reach past the magic.
_PREFIXES = {
    "tensor": [b"", b"BTF1", b"BTF1\x02\x00\x00\x00", b"BTF1\x01\x00\x00\x00\x02\x00\x00\x00"],
    "label_map": [b"", b"P5\n", b"P5\n2 2\n", b"P5\n2 2\n255\n"],
    "image": [b"", b"P6\n", b"P6 1 1", b"P6\n1 1\n255\n"],
    "boxes": [b"", b"{", b'{"width": 4, "height": 4, "boxes": [', b'{"width": 4, "height": 4, "boxes": [{"class": 1, '],
    "json": [b"", b"{", b"[" * 2000, b'{"width": '],
}
_KEYS = ["width", "height", "boxes", "class", "xmin", "ymin", "xmax", "ymax"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=6),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _reads(name: str, data: bytes, directory) -> bool:
    """True when the reader accepts ``data``, False when it raises FileFormatError."""
    path = directory / f"{name}.bin"
    path.write_bytes(data)
    try:
        _READERS[name](path)
    except FileFormatError:
        return False
    return True


def _valid_file(name: str, seed: int, directory) -> bytes:
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(1, 5, size=2))
    path = directory / "valid"
    if name == "tensor":
        write_tensor(path, rng.normal(size=(2, h, w)).astype(np.float32))
    elif name == "label_map":
        write_label_map(path, rng.choice([0, 1, 2, 3, 255], size=(h, w)).astype(np.uint8))
    elif name == "image":
        write_image(path, rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))
    else:  # boxes and json read the same file
        write_boxes(path, BoxSet(8, 8, [BBox(int(rng.integers(1, 4)), 0, 0, w, h)] * int(rng.integers(0, 3))))
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=150, deadline=None)
@given(prefix=st.integers(0, 3), tail=st.binary(max_size=48))
def test_arbitrary_bytes_read_or_raise_file_format_error(scratch, name, prefix, tail):
    _reads(name, _PREFIXES[name][prefix] + tail, scratch)


@pytest.mark.parametrize("name", ["boxes", "json"])
@settings(max_examples=150, deadline=None)
@given(value=_JSON_VALUES)
def test_arbitrary_json_read_or_raise_file_format_error(scratch, name, value):
    _reads(name, json.dumps(value).encode("ascii"), scratch)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_valid_file_read_or_raise_file_format_error(scratch, name, seed, cut):
    data = _valid_file(name, seed, scratch)
    assert _reads(name, data, scratch)
    _reads(name, data[: int(cut * len(data))], scratch)
