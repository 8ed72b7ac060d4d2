"""Prototype extraction, retrieval labels, fusion, filling rates."""

import numpy as np
import pytest

from bana.core import IGNORE, BBox, BoxSet
from bana.pseudolabel import (
    extract_prototypes,
    filling_rate,
    fuse_labels,
    retrieval_labels,
)


class TestExtractPrototypes:
    def test_uniform_labels_constant_features(self):
        f = np.full((3, 4, 4), 0.0)
        f[0] = 1.5
        y = np.full((4, 4), 2, dtype=np.uint8)
        protos = extract_prototypes(f, y)
        assert set(protos) == {2}
        np.testing.assert_allclose(protos[2], [1.5, 0.0, 0.0])

    def test_two_pixel_mean(self):
        f = np.zeros((2, 1, 2))
        f[:, 0, 0] = [1.0, 0.0]
        f[:, 0, 1] = [0.0, 1.0]
        protos = extract_prototypes(f, np.array([[3, 3]], dtype=np.uint8))
        np.testing.assert_allclose(protos[3], [0.5, 0.5])

    def test_absent_class_has_no_prototype(self):
        f = np.ones((2, 2, 2))
        protos = extract_prototypes(f, np.zeros((2, 2), dtype=np.uint8))
        assert set(protos) == {0}

    def test_ignore_pixels_excluded(self):
        f = np.zeros((1, 1, 3))
        f[0, 0] = [1.0, 5.0, 9.0]
        y = np.array([[0, IGNORE, 0]], dtype=np.uint8)
        protos = extract_prototypes(f, y)
        np.testing.assert_allclose(protos[0], [5.0])

    def test_all_ignore_returns_empty(self):
        f = np.ones((1, 2, 2))
        assert extract_prototypes(f, np.full((2, 2), IGNORE, dtype=np.uint8)) == {}


class TestRetrievalLabels:
    def test_exact_match_with_orthogonal_prototypes(self):
        f = np.zeros((3, 1, 2))
        f[:, 0, 0] = [1.0, 0.0, 0.0]
        f[:, 0, 1] = [0.0, 0.0, 1.0]
        protos = {0: np.array([1.0, 0.0, 0.0]), 2: np.array([0.0, 0.0, 1.0])}
        y = retrieval_labels(f, protos, 1, 2)
        assert y.tolist() == [[0, 2]]

    def test_hand_computed_cosines(self):
        f = np.zeros((2, 1, 1))
        f[:, 0, 0] = [2.0, 1.0]
        protos = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        assert retrieval_labels(f, protos, 1, 1)[0, 0] == 0

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(4, 6, 6))
        protos = {c: rng.normal(size=4) for c in (0, 1, 3)}
        base = retrieval_labels(f, protos, 12, 12)
        scaled_protos = {c: float(rng.uniform(0.5, 5.0)) * v for c, v in protos.items()}
        again = retrieval_labels(2.7 * f, scaled_protos, 12, 12)
        assert np.array_equal(base, again)

    def test_matches_nearest_cosine_oracle_on_clusters(self):
        rng = np.random.default_rng(1)
        dirs, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        mu = dirs.T  # 3 orthonormal prototypes
        assign = rng.integers(0, 3, size=(7, 7))
        f = (mu[assign] + rng.normal(0, 0.05, size=(7, 7, 6))).transpose(2, 0, 1)
        protos = {c: mu[c] for c in range(3)}
        y = retrieval_labels(f, protos, 7, 7)
        for r in range(7):
            for c in range(7):
                v = f[:, r, c]
                sims = [float(v @ mu[k] / (np.linalg.norm(v) * np.linalg.norm(mu[k]))) for k in range(3)]
                assert y[r, c] == int(np.argmax(sims))
        assert np.array_equal(y, assign)  # clusters are wide apart

    def test_zero_norm_pixel_ties_to_lowest_class(self):
        f = np.zeros((2, 1, 1))
        protos = {1: np.array([1.0, 0.0]), 4: np.array([0.0, 1.0])}
        assert retrieval_labels(f, protos, 1, 1)[0, 0] == 1

    def test_empty_prototypes_rejected(self):
        with pytest.raises(ValueError, match="prototype"):
            retrieval_labels(np.ones((2, 2, 2)), {}, 2, 2)


class TestFuseLabels:
    def test_full_agreement_keeps_everything(self):
        y = np.array([[0, 1], [2, 0]], dtype=np.uint8)
        fused = fuse_labels(y, y.copy())
        assert np.array_equal(fused.fused, y)
        assert fused.agree.all()

    def test_full_disagreement_is_all_ignore(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.ones((2, 2), dtype=np.uint8)
        fused = fuse_labels(a, b)
        assert np.all(fused.fused == IGNORE)
        assert not fused.agree.any()

    def test_checkerboard_counts_match_brute_force(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=(9, 9)).astype(np.uint8)
        b = a.copy()
        flip = (np.indices((9, 9)).sum(axis=0) % 2).astype(bool)
        b[flip] = (b[flip] + 1) % 3
        fused = fuse_labels(a, b)
        agree_count = sum(int(a[y, x] == b[y, x]) for y in range(9) for x in range(9))
        assert int(fused.agree.sum()) == agree_count
        assert np.all(fused.fused[~fused.agree] == IGNORE)
        assert np.array_equal(fused.fused[fused.agree], a[fused.agree])

    @pytest.mark.parametrize("value", [256, -1])
    def test_values_past_a_byte_rejected(self, value):
        with pytest.raises(ValueError, match=r"label values must lie in \[0, 255\]"):
            fuse_labels(np.array([[value, 1]]), np.array([[0, 1]]))

    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
        b = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
        fused = fuse_labels(a, b)
        assert np.array_equal(fused.agree, a == b)
        assert np.array_equal(fused.fused != IGNORE, fused.agree)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            fuse_labels(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))


class TestFillingRate:
    def test_fully_filled_box(self):
        y = np.full((4, 4), 2, dtype=np.uint8)
        rates = filling_rate(y, BoxSet(4, 4, [BBox(2, 0, 0, 4, 4)]))
        assert rates == [1.0]

    def test_fully_background_box(self):
        y = np.zeros((4, 4), dtype=np.uint8)
        rates = filling_rate(y, BoxSet(4, 4, [BBox(1, 0, 0, 4, 4)]))
        assert rates == [0.0]

    def test_half_filled_box(self):
        y = np.zeros((2, 2), dtype=np.uint8)
        y[0] = 1
        rates = filling_rate(y, BoxSet(2, 2, [BBox(1, 0, 0, 2, 2)]))
        assert rates == [0.5]

    def test_ignore_counts_in_denominator(self):
        y = np.array([[1, IGNORE], [IGNORE, IGNORE]], dtype=np.uint8)
        rates = filling_rate(y, BoxSet(2, 2, [BBox(1, 0, 0, 2, 2)]))
        assert rates == [0.25]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.integers(0, 4, size=(10, 10)).astype(np.uint8)
            y[rng.random((10, 10)) < 0.1] = IGNORE
            x0, y0 = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            box = BBox(
                int(rng.integers(1, 4)),
                x0,
                y0,
                int(rng.integers(x0 + 1, 11)),
                int(rng.integers(y0 + 1, 11)),
            )
            (rate,) = filling_rate(y, BoxSet(10, 10, [box]))
            hits = total = 0
            for yy in range(box.ymin, box.ymax):
                for xx in range(box.xmin, box.xmax):
                    total += 1
                    hits += int(y[yy, xx] == box.class_id)
            assert rate == pytest.approx(hits / total)
