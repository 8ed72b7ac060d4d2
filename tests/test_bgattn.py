"""Background queries, attention maps, and weighted pooling."""

import numpy as np
import pytest

from bana.bgattn import _grid_cells, attention_map, bap_pool, extract_queries
from bana.core import BBox, BoxSet, build_background_mask


def _grid(h, w, *boxes):
    return BoxSet(w, h, list(boxes))


class TestExtractQueries:
    def test_single_cell_full_background_is_global_mean(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(3, 6, 7))
        qs = extract_queries(f, np.ones((6, 7), dtype=np.uint8), 1)
        assert qs.shape == (1, 3)
        np.testing.assert_allclose(qs[0], f.mean(axis=(1, 2)), rtol=1e-12)

    def test_hand_computed_weighted_mean(self):
        # 2x2 map, box covers the right column; masked mean of the left column
        f = np.array([[[1.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
        mask = build_background_mask(_grid(2, 2, BBox(1, 1, 0, 2, 2)), 2, 2)
        qs = extract_queries(f, mask, 1)
        np.testing.assert_allclose(qs[0], [1.0, 0.0])

    def test_fully_boxed_cells_are_skipped(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(2, 8, 8))
        # box covers the top-left 4x4 cell of a 2x2 grid exactly
        mask = build_background_mask(_grid(8, 8, BBox(1, 0, 0, 4, 4)), 8, 8)
        qs = extract_queries(f, mask, 2)
        # cells 1, 2 and 3 in row-major order, each wholly background
        expected = [f[:, :4, 4:].mean(axis=(1, 2)), f[:, 4:, :4].mean(axis=(1, 2)), f[:, 4:, 4:].mean(axis=(1, 2))]
        np.testing.assert_allclose(qs, expected, rtol=1e-12)

    def test_fully_boxed_image_yields_no_queries(self):
        f = np.ones((2, 4, 4))
        mask = build_background_mask(_grid(4, 4, BBox(1, 0, 0, 4, 4)), 4, 4)
        assert extract_queries(f, mask, 3).shape == (0, 2)

    def test_grid_finer_than_map_is_legal(self):
        f = np.ones((1, 2, 2))
        qs = extract_queries(f, np.ones((2, 2), dtype=np.uint8), 5)
        assert len(qs) == 4  # empty cells simply vanish

    def test_grid_cells_are_the_non_empty_cells_of_the_partition(self):
        # Past a side's length every further cell is empty, so a huge grid
        # costs no more than one cell per pixel and gives the same queries.
        assert len(list(_grid_cells(16, 16, 1000))) == 256
        for h, w, n in [(16, 4, 8), (5, 7, 6), (3, 9, 4), (8, 8, 3), (6, 6, 6), (1, 1, 40)]:
            plain = [(slice(r * h // n, (r + 1) * h // n), slice(c * w // n, (c + 1) * w // n))
                     for r in range(n) for c in range(n)]
            expected = [(r, c) for r, c in plain if r.stop > r.start and c.stop > c.start]
            assert list(_grid_cells(h, w, n)) == expected, (h, w, n)
        rng = np.random.default_rng(2)
        f = rng.normal(size=(3, 16, 16))
        mask = build_background_mask(_grid(16, 16, BBox(1, 2, 3, 9, 12)), 16, 16)
        np.testing.assert_array_equal(extract_queries(f, mask, 10**6), extract_queries(f, mask, 16))


class TestAttentionMap:
    def test_identical_vector_scores_one(self):
        f = np.zeros((2, 1, 3))
        f[:, 0, 0] = [2.0, 0.0]  # background pixel -> the query
        f[:, 0, 2] = [4.0, 0.0]  # inside the box, same direction
        boxes = _grid(1, 3, BBox(1, 2, 0, 3, 1))
        mask = build_background_mask(boxes, 1, 3)
        a = attention_map(f, extract_queries(f, mask, 1), boxes)
        assert a[0, 2] == pytest.approx(1.0)

    def test_parallel_vectors_score_at_most_one(self):
        # The rounded cosine of a vector with itself can be 1 + 2^-52; the map
        # is a score in [0, 1], and build_unary rejects anything past 1.
        boxes = _grid(4, 4, BBox(1, 0, 0, 4, 4))
        for v in np.random.default_rng(0).normal(size=(20, 8)):
            f = np.broadcast_to(v[:, None, None], (8, 4, 4))
            assert attention_map(f, v[None], boxes).max() <= 1.0

    def test_orthogonal_vector_scores_zero(self):
        f = np.zeros((2, 1, 2))
        f[:, 0, 0] = [1.0, 0.0]
        f[:, 0, 1] = [0.0, 1.0]
        boxes = _grid(1, 2, BBox(1, 1, 0, 2, 1))
        mask = build_background_mask(boxes, 1, 2)
        a = attention_map(f, extract_queries(f, mask, 1), boxes)
        assert a[0, 1] == pytest.approx(0.0)

    def test_hand_computed_cosine(self):
        # background (1,0), box pixel (1,1): cos = 1/sqrt(2)
        f = np.zeros((2, 1, 2))
        f[:, 0, 0] = [1.0, 0.0]
        f[:, 0, 1] = [1.0, 1.0]
        boxes = _grid(1, 2, BBox(1, 1, 0, 2, 1))
        mask = build_background_mask(boxes, 1, 2)
        a = attention_map(f, extract_queries(f, mask, 1), boxes)
        assert a[0, 0] == 1.0  # outside every box
        assert a[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_brute_force_cosine_oracle(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(4, 6, 6))
        boxes = _grid(6, 6, BBox(1, 1, 1, 4, 5))
        mask = build_background_mask(boxes, 6, 6)
        qs = extract_queries(f, mask, 2)
        a = attention_map(f, qs, boxes)
        for y in range(6):
            for x in range(6):
                if not (1 <= x < 4 and 1 <= y < 5):
                    assert a[y, x] == 1.0
                    continue
                sims = []
                for q in qs:
                    v = f[:, y, x]
                    c = float(v @ q / (np.linalg.norm(v) * np.linalg.norm(q)))
                    sims.append(max(c, 0.0))
                assert a[y, x] == pytest.approx(np.mean(sims), abs=1e-12)

    def test_range_outside_value_and_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            f = rng.normal(size=(3, h, w))
            x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
            boxes = _grid(h, w, BBox(1, x0, y0, int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1))))
            mask = build_background_mask(boxes, h, w)
            a = attention_map(f, extract_queries(f, mask, 2), boxes)
            assert a.min() >= 0.0 and a.max() <= 1.0
            assert np.all(a[mask.astype(bool)] == 1.0)
            alpha = float(rng.uniform(0.1, 10.0))
            scaled = alpha * f
            a2 = attention_map(scaled, extract_queries(scaled, mask, 2), boxes)
            assert np.abs(a - a2).max() <= 1e-6

    def test_no_queries_means_zero_inside_boxes(self):
        f = np.ones((2, 4, 4))
        boxes = _grid(4, 4, BBox(1, 0, 0, 4, 4))
        mask = build_background_mask(boxes, 4, 4)
        a = attention_map(f, extract_queries(f, mask, 2), boxes)
        assert np.all(a == 0.0)

    def test_zero_norm_pixels_do_not_produce_nan(self):
        f = np.zeros((2, 1, 2))
        f[:, 0, 0] = [1.0, 0.0]
        boxes = _grid(1, 2, BBox(1, 1, 0, 2, 1))
        mask = build_background_mask(boxes, 1, 2)
        a = attention_map(f, extract_queries(f, mask, 1), boxes)
        assert a[0, 1] == 0.0


class TestBapPool:
    def test_zero_attention_equals_plain_mean(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(3, 5, 5))
        box = BBox(1, 1, 1, 4, 4)
        pooled = bap_pool(f, np.zeros((5, 5)), box)
        mean = f[:, 1:4, 1:4].mean(axis=(1, 2))
        np.testing.assert_allclose(pooled, mean, rtol=1e-6)

    def test_single_pixel_box(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(2, 3, 3))
        pooled = bap_pool(f, np.full((3, 3), 0.4), BBox(1, 2, 1, 3, 2))
        np.testing.assert_allclose(pooled, f[:, 1, 2], rtol=1e-12)

    def test_hand_computed_weighted_mean(self):
        f = np.zeros((2, 1, 2))
        f[:, 0, 0] = [1.0, 0.0]
        f[:, 0, 1] = [1.0, 1.0]
        a = np.array([[1.0, 1.0 / np.sqrt(2.0)]])
        pooled = bap_pool(f, a, BBox(1, 1, 0, 2, 1))
        np.testing.assert_allclose(pooled, [1.0, 1.0])

    def test_all_background_falls_back_to_mean(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(2, 4, 4))
        pooled = bap_pool(f, np.ones((4, 4)), BBox(1, 0, 0, 4, 4))
        np.testing.assert_allclose(pooled, f.mean(axis=(1, 2)), rtol=1e-12)

    def test_output_within_featurewise_bounds(self):
        # convex combination: each channel stays inside the box's value range
        rng = np.random.default_rng(10)
        for _ in range(30):
            f = rng.normal(size=(3, 6, 6))
            a = rng.uniform(0.0, 1.0, size=(6, 6))
            box = BBox(1, 1, 2, 5, 6)
            pooled = bap_pool(f, a, box)
            patch = f[:, 2:6, 1:5]
            assert np.all(pooled >= patch.min(axis=(1, 2)) - 1e-9)
            assert np.all(pooled <= patch.max(axis=(1, 2)) + 1e-9)
