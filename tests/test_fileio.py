"""File formats: round trips are byte-exact, malformed input names the offset."""

import numpy as np
import pytest

from bana.core import BBox, BoxSet
from bana.fileio import (
    FileFormatError,
    read_boxes,
    read_image,
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

    def test_rejects_float_labels(self, tmp_path):
        with pytest.raises(ValueError, match="integer"):
            write_label_map(tmp_path / "y.pgm", np.zeros((2, 2), dtype=np.float32))


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
            ('{"width": true, "height": 4, "boxes": []}', "width/height must be integers"),
        ],
        ids=["float", "bool-class-xmin", "bool-ymax", "bool-width"],
    )
    def test_non_integer_field(self, tmp_path, text, message):
        path = tmp_path / "b.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=message):
            read_boxes(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{nope")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            read_boxes(path)
