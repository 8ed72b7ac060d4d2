"""Geometry and label maps: box validation, resizing, background masks, map
resizing, and the one rule for a label map's values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bana import fileio, metrics, nal, pseudolabel
from bana.core import (
    BBox,
    BoxSet,
    bilinear_resize,
    build_background_mask,
    label_classes,
    nearest_resize,
    resize_boxes,
    validate_label_map,
)


class TestBBox:
    def test_rejects_background_class(self):
        with pytest.raises(ValueError, match="class_id"):
            BBox(0, 0, 0, 4, 4)

    def test_rejects_inverted_coordinates(self):
        with pytest.raises(ValueError):
            BBox(1, 5, 0, 5, 4)
        with pytest.raises(ValueError):
            BBox(1, 0, 4, 4, 4)
        with pytest.raises(ValueError):
            BBox(1, -1, 0, 4, 4)

    def test_area_is_half_open(self):
        assert np.zeros((10, 10))[BBox(1, 2, 3, 5, 7).slices()].shape == (4, 3)


class TestBoxSet:
    def test_clamps_overhanging_boxes(self):
        bs = BoxSet(10, 10, [BBox(1, 5, 5, 20, 20)])
        assert bs.boxes[0] == BBox(1, 5, 5, 10, 10)

    def test_rejects_boxes_entirely_outside(self):
        with pytest.raises(ValueError, match="outside"):
            BoxSet(10, 10, [BBox(1, 10, 0, 12, 4)])

    def test_class_ids_sorted_unique(self):
        bs = BoxSet(10, 10, [BBox(3, 0, 0, 1, 1), BBox(1, 2, 2, 3, 3), BBox(3, 4, 4, 5, 5)])
        assert bs.class_ids() == [1, 3]


class TestResizeBoxes:
    def test_full_image_box_scales_to_full_grid(self):
        bs = BoxSet(320, 320, [BBox(1, 0, 0, 320, 320)])
        out = resize_boxes(bs, 20, 20)
        assert out.boxes[0] == BBox(1, 0, 0, 20, 20)

    def test_hand_computed_rounding(self):
        # 10 * 41 / 321 = 1.277 -> 1; 170 * 41 / 321 = 21.71 -> 22
        bs = BoxSet(321, 321, [BBox(2, 10, 10, 170, 170)])
        out = resize_boxes(bs, 41, 41)
        assert out.boxes[0] == BBox(2, 1, 1, 22, 22)

    def test_degenerate_box_expands_to_one_cell(self):
        bs = BoxSet(100, 100, [BBox(1, 50, 50, 51, 51)])
        out = resize_boxes(bs, 10, 10)
        assert out.boxes[0] == BBox(1, 5, 5, 6, 6)

    def test_every_one_pixel_box_survives(self):
        # Brute force: all 1-pixel boxes on a 100x100 image onto a 10x10 grid.
        for x in range(100):
            for y in range(100):
                out = resize_boxes(BoxSet(100, 100, [BBox(1, x, y, x + 1, y + 1)]), 10, 10)
                b = out.boxes[0]
                assert (b.xmax - b.xmin) * (b.ymax - b.ymin) >= 1
                assert 0 <= b.xmin < b.xmax <= 10
                assert 0 <= b.ymin < b.ymax <= 10
                # 1x1 result sits at the (clamped) rounded min corner
                assert b.xmin == min((2 * x + 10) // 20, 9)
                assert b.ymin == min((2 * y + 10) // 20, 9)

    def test_identity_when_dims_match(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w, h = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            x0 = int(rng.integers(0, w - 1))
            y0 = int(rng.integers(0, h - 1))
            b = BBox(1, x0, y0, int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1)))
            out = resize_boxes(BoxSet(w, h, [b]), h, w)
            assert out.boxes[0] == b

    def test_border_box_clamps_into_grid(self):
        # min corner would round to the grid size; it must be pulled inside
        bs = BoxSet(100, 100, [BBox(1, 99, 99, 100, 100)])
        out = resize_boxes(bs, 10, 10)
        assert out.boxes[0] == BBox(1, 9, 9, 10, 10)


class TestBackgroundMask:
    def test_no_boxes_all_background(self):
        m = build_background_mask(BoxSet(8, 8, []), 8, 8)
        assert m.shape == (8, 8) and np.all(m == 1)

    def test_full_grid_box_no_background(self):
        m = build_background_mask(BoxSet(8, 8, [BBox(1, 0, 0, 8, 8)]), 8, 8)
        assert np.all(m == 0)

    def test_union_matches_membership_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h, w = int(rng.integers(2, 32)), int(rng.integers(2, 32))
            boxes = []
            for _ in range(int(rng.integers(0, 5))):
                x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
                boxes.append(
                    BBox(1, x0, y0, int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1)))
                )
            m = build_background_mask(BoxSet(w, h, boxes), h, w)
            for y in range(h):
                for x in range(w):
                    covered = any(b.xmin <= x < b.xmax and b.ymin <= y < b.ymax for b in boxes)
                    assert m[y, x] == (0 if covered else 1)


class TestResizeMaps:
    def test_bilinear_identity_at_same_size(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 7))
        assert np.array_equal(bilinear_resize(a, 5, 7), a)

    def test_bilinear_constant_stays_constant(self):
        a = np.full((4, 4), 0.37)
        out = bilinear_resize(a, 13, 9)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_bilinear_stays_inside_input_range(self):
        rng = np.random.default_rng(1)
        a = rng.random((3, 6, 6))
        out = bilinear_resize(a, 17, 23)
        assert out.min() >= a.min() - 1e-12 and out.max() <= a.max() + 1e-12

    def test_nearest_preserves_label_values(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=(9, 9)).astype(np.uint8)
        out = nearest_resize(y, 30, 5)
        assert out.dtype == y.dtype
        assert set(np.unique(out)) <= set(np.unique(y))

    def test_nearest_integer_downsample_picks_block_centers(self):
        y = np.arange(16).reshape(4, 4)
        out = nearest_resize(y, 2, 2)
        # 2x blocks, center convention picks the lower-right of each 2x2 block
        assert out.tolist() == [[5, 7], [13, 15]]


_PAST_A_BYTE = {"minus-1-int64": np.array([[-1, 1], [0, 1]], np.int64),
                "256-int16": np.array([[256, 1], [0, 1]], np.int16)}
_OK = np.array([[0, 1], [0, 1]], np.uint8)
# Every function that takes a label map, each given one map past a byte.
_CONSUMERS = {
    "confusion-pred": lambda y, tmp: metrics.confusion(y, _OK, 2),
    "confusion-ref": lambda y, tmp: metrics.confusion(_OK, y, 2),
    "confidence_map": lambda y, tmp: nal.confidence_map(np.ones((3, 2, 2)), y, 1.0),
    "extract_prototypes": lambda y, tmp: pseudolabel.extract_prototypes(np.ones((4, 2, 2)), y),
    "filling_rate": lambda y, tmp: pseudolabel.filling_rate(y, BoxSet(2, 2, [BBox(1, 0, 0, 2, 2)])),
    "fuse_labels": lambda y, tmp: pseudolabel.fuse_labels(y, _OK),
    "write_label_map": lambda y, tmp: fileio.write_label_map(tmp / "a" / "y.pgm", y),
}


class TestLabelMapRule:
    @pytest.mark.parametrize("labels", _PAST_A_BYTE.values(), ids=_PAST_A_BYTE)
    @pytest.mark.parametrize("consume", _CONSUMERS.values(), ids=_CONSUMERS)
    def test_every_consumer_rejects_a_value_past_a_byte(self, tmp_path, consume, labels):
        with pytest.raises(ValueError, match=r"label values must lie in \[0, 255\]"):
            consume(labels, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_a_uint8_map_is_returned_as_is(self):
        y = np.array([[0, 2], [255, 1]], np.uint8)
        assert validate_label_map(y) is y and validate_label_map(y, 2) is y

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint16])
    def test_an_integer_or_bool_map_is_returned_as_uint8(self, dtype):
        out = validate_label_map(np.array([[0, 1], [1, 0]], dtype))
        assert out.dtype == np.uint8 and out.tolist() == [[0, 1], [1, 0]]

    def test_a_float_map_is_rejected(self):
        with pytest.raises(ValueError, match="label map must be integer-typed"):
            validate_label_map(np.zeros((2, 2)))


class TestLabelClasses:
    # label_classes replaced np.unique at three call sites; each must see the
    # classes it saw before, in the same ascending order.
    def test_ascending_without_ignore(self):
        y = np.array([[255, 2, 0], [2, 255, 2]], np.uint8)
        assert label_classes(y) == [0, 2]
        assert label_classes(y) == np.unique(y[y != 255]).tolist()  # pipeline.label_class_ids
        assert label_classes(y) == [int(c) for c in np.unique(y) if c != 255]  # pseudolabel.extract_prototypes

    @pytest.mark.parametrize("values", [[0], [3, 1], [0, 254, 7, 1], []])
    def test_a_map_without_ignore_gives_every_value(self, values):
        # synth._render_image's ground truth never holds IGNORE.
        y = np.array([values * 3], np.uint8).reshape(3, len(values))
        assert label_classes(y) == np.unique(y).tolist()

    def test_only_ignore_gives_no_class(self):
        assert label_classes(np.full((2, 3), 255, np.uint8)) == []


# ---------------------------------------------------------------------------
# property tests: BoxSet and resize_boxes invariants on arbitrary boxes
# ---------------------------------------------------------------------------


@st.composite
def _image_and_boxes(draw):
    """An image size and boxes whose min corner lies inside the image; the max
    corner may overhang by up to the image size."""
    w, h = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        x1, y1 = draw(st.integers(x0 + 1, 2 * w)), draw(st.integers(y0 + 1, 2 * h))
        boxes.append(BBox(draw(st.integers(1, 20)), x0, y0, x1, y1))
    return w, h, boxes


@settings(max_examples=300, deadline=None)
@given(_image_and_boxes())
def test_clamped_boxes_lie_inside_the_image(case):
    w, h, raw = case
    bs = BoxSet(w, h, raw)
    assert [b.class_id for b in bs.boxes] == [b.class_id for b in raw]
    for b, r in zip(bs.boxes, raw):
        assert 0 <= b.xmin < b.xmax <= w and 0 <= b.ymin < b.ymax <= h
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (r.xmin, r.ymin, min(r.xmax, w), min(r.ymax, h))


@settings(max_examples=300, deadline=None)
@given(w=st.integers(1, 300), h=st.integers(1, 300), dx=st.integers(0, 50), dy=st.integers(0, 50),
       past_x=st.booleans())
def test_box_starting_outside_is_rejected(w, h, dx, dy, past_x):
    # The min corner is past the right edge, or past the bottom edge.
    x0, y0 = (w + dx, dy) if past_x else (dx, h + dy)
    with pytest.raises(ValueError, match="outside"):
        BoxSet(w, h, [BBox(1, x0, y0, x0 + 1, y0 + 1)])


@settings(max_examples=300, deadline=None)
@given(_image_and_boxes(), st.integers(1, 80), st.integers(1, 80))
def test_resized_boxes_keep_class_and_order_and_cover_a_cell(case, fh, fw):
    w, h, raw = case
    out = resize_boxes(BoxSet(w, h, raw), fh, fw)
    assert (out.image_width, out.image_height) == (fw, fh)
    assert [b.class_id for b in out.boxes] == [b.class_id for b in raw]
    for b in out.boxes:
        assert 0 <= b.xmin < b.xmax <= fw and 0 <= b.ymin < b.ymax <= fh


@settings(max_examples=300, deadline=None)
@given(_image_and_boxes())
def test_resize_to_own_size_is_identity(case):
    w, h, raw = case
    bs = BoxSet(w, h, raw)
    assert resize_boxes(bs, h, w).boxes == bs.boxes
