"""Noise-aware loss: correlations, confidence, gradients, robust training."""

import numpy as np
import pytest

from conftest import finite_difference_grad, max_relative_error, random_head

from bana.clshead import ClassifierHead, ce_loss_and_grad
from bana.core import IGNORE
from bana.nal import (
    confidence_map,
    correlation_maps,
    nal_loss_and_grad,
    predict_labels,
    predict_probabilities,
    train_seg_head,
)
from bana.pseudolabel import fuse_labels
from bana import metrics, nal


def _head(weights, scale=7.5):
    return ClassifierHead(weights=np.asarray(weights, dtype=float), mode="cosine", scale=scale)


class TestCorrelationMaps:
    def test_aligned_weight_scores_two(self):
        head = _head([[1.0, 0.0], [0.0, 1.0]])
        f = np.zeros((2, 1, 1))
        f[:, 0, 0] = [3.0, 0.0]
        d = correlation_maps(f, head)
        assert d[0, 0, 0] == pytest.approx(2.0)

    def test_opposed_weight_scores_zero(self):
        head = _head([[1.0, 0.0], [0.0, 1.0]])
        f = np.zeros((2, 1, 1))
        f[:, 0, 0] = [-1.0, 0.0]
        assert correlation_maps(f, head)[0, 0, 0] == pytest.approx(0.0)

    def test_hand_computed_pair(self):
        head = _head([[1.0, 0.0], [0.0, 1.0]])
        f = np.zeros((2, 1, 1))
        f[:, 0, 0] = [1.0, 0.0]
        d = correlation_maps(f, head)
        np.testing.assert_allclose(d[:, 0, 0], [2.0, 1.0])

    def test_range_and_zero_norm_guard(self):
        rng = np.random.default_rng(0)
        head = random_head(rng, 3, 4, "cosine")
        f = rng.normal(size=(4, 5, 5))
        f[:, 0, 0] = 0.0
        d = correlation_maps(f, head)
        assert d.min() >= 0.0 and d.max() <= 2.0
        np.testing.assert_allclose(d[:, 0, 0], 1.0)


class TestConfidenceMap:
    def test_one_exactly_when_label_attains_max(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.0, 2.0, size=(4, 6, 6))
        y = d.argmax(axis=0).astype(np.uint8)
        sigma = confidence_map(d, y, gamma=7.0)
        assert np.all(sigma == 1.0)
        # moving one label off the argmax drops its confidence below 1
        y2 = y.copy()
        y2[0, 0] = (y2[0, 0] + 1) % 4
        assert confidence_map(d, y2, gamma=7.0)[0, 0] < 1.0

    def test_half_ratio_to_the_seventh(self):
        d = np.zeros((2, 1, 1))
        d[:, 0, 0] = [1.0, 2.0]
        sigma = confidence_map(d, np.zeros((1, 1), dtype=np.uint8), gamma=7.0)
        assert sigma[0, 0] == pytest.approx(0.5**7, abs=1e-12)
        assert sigma[0, 0] == pytest.approx(0.0078125, abs=1e-12)

    def test_pointwise_non_increasing_in_gamma(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(0.0, 2.0, size=(3, 8, 8))
        y = rng.integers(0, 3, size=(8, 8)).astype(np.uint8)
        sweep = [confidence_map(d, y, g) for g in (1.0, 3.0, 7.0, 15.0)]
        for lo, hi in zip(sweep[1:], sweep[:-1]):
            assert np.all(lo <= hi + 1e-15)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            confidence_map(np.ones((2, 2, 2)), np.zeros((2, 2), dtype=np.uint8), 0.5)

    def test_ignore_labels_rejected(self):
        y = np.full((2, 2), IGNORE, dtype=np.uint8)
        with pytest.raises(ValueError, match="IGNORE"):
            confidence_map(np.ones((2, 2, 2)), y, 7.0)

    def test_all_zero_column_degenerates_to_one(self):
        d = np.zeros((2, 1, 1))
        sigma = confidence_map(d, np.zeros((1, 1), dtype=np.uint8), gamma=7.0)
        assert sigma[0, 0] == 1.0

    def test_invariant_to_rescaling_features_and_weights(self):
        rng = np.random.default_rng(12)
        head = random_head(rng, 3, 5, "cosine")
        f = rng.normal(size=(5, 6, 6))
        y = rng.integers(0, 4, size=(6, 6)).astype(np.uint8)
        base = confidence_map(correlation_maps(f, head), y, 7.0)
        scales = rng.uniform(0.2, 9.0, size=(4, 1))
        rescaled = ClassifierHead(weights=head.weights * scales, mode="cosine", scale=head.scale)
        again = confidence_map(correlation_maps(4.2 * f, rescaled), y, 7.0)
        np.testing.assert_allclose(again, base, atol=1e-12)


class TestNalLoss:
    def _instance(self, rng, num_classes=2, h=4, w=5):
        f = rng.normal(size=(3, h, w))
        head = random_head(rng, num_classes, 3, "cosine")
        y_crf = rng.integers(0, num_classes + 1, size=(h, w)).astype(np.uint8)
        y_ret = y_crf.copy()
        flip = rng.random((h, w)) < 0.4
        y_ret[flip] = (y_ret[flip] + 1) % (num_classes + 1)
        return f, head, fuse_labels(y_crf, y_ret)

    def test_unit_confidence_collapses_to_mean_ce(self):
        rng = np.random.default_rng(3)
        f, head, fused = self._instance(rng)
        report, _ = nal_loss_and_grad(f, head, fused, confidence=np.ones(f.shape[1:]))
        idx = fused.disagree
        x = f.reshape(3, -1).T[idx.ravel()]
        t = fused.y_crf[idx].astype(np.intp)
        plain, _ = ce_loss_and_grad(head, x, t)
        assert report.loss_disagree == pytest.approx(plain, rel=1e-12)

    def test_no_disagreement_makes_lambda_irrelevant(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(3, 4, 4))
        head = random_head(rng, 2, 3, "cosine")
        y = rng.integers(0, 3, size=(4, 4)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        r1, g1 = nal_loss_and_grad(f, head, fused, lam=0.1)
        r2, g2 = nal_loss_and_grad(f, head, fused, lam=5.0)
        assert r1.total == r2.total == r1.loss_agree
        assert np.array_equal(g1, g2)

    def test_full_agreement_equals_plain_ce_over_all_pixels(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(3, 5, 5))
        head = random_head(rng, 2, 3, "cosine")
        y = rng.integers(0, 3, size=(5, 5)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        report, grad = nal_loss_and_grad(f, head, fused)
        loss, grad_ref = ce_loss_and_grad(head, f.reshape(3, -1).T, y.ravel().astype(np.intp))
        assert report.total == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12)

    def test_lambda_zero_ignores_disagreement(self):
        rng = np.random.default_rng(6)
        f, head, fused = self._instance(rng)
        report, grad = nal_loss_and_grad(f, head, fused, lam=0.0)
        assert report.total == report.loss_agree
        idx = fused.agree
        x = f.reshape(3, -1).T[idx.ravel()]
        t = fused.fused[idx].astype(np.intp)
        _, grad_s = ce_loss_and_grad(head, x, t)
        np.testing.assert_allclose(grad, grad_s, rtol=1e-12)

    def test_zero_confidence_sum_gives_zero_weighted_loss(self):
        rng = np.random.default_rng(7)
        f, head, fused = self._instance(rng)
        report, _ = nal_loss_and_grad(f, head, fused, confidence=np.zeros(f.shape[1:]))
        assert report.loss_disagree == 0.0

    def test_empty_image_rejected(self):
        rng = np.random.default_rng(8)
        head = random_head(rng, 2, 3, "cosine")
        f = rng.normal(size=(3, 0, 4))
        y = np.zeros((0, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=">= 1"):
            nal_loss_and_grad(f, head, fuse_labels(y, y))

    def test_gradient_matches_finite_differences(self):
        # the analytic gradient treats the confidence weights as constants,
        # so the probe evaluates the loss with the same pinned map
        rng = np.random.default_rng(9)
        for _ in range(25):
            f, head, fused = self._instance(rng, num_classes=int(rng.integers(1, 4)))
            sigma = confidence_map(correlation_maps(f, head), fused.y_crf, 7.0)
            _, grad = nal_loss_and_grad(f, head, fused, confidence=sigma)

            def loss_of(w):
                h = ClassifierHead(weights=w, mode="cosine", scale=head.scale)
                return nal_loss_and_grad(f, h, fused, confidence=sigma)[0].total

            fd = finite_difference_grad(loss_of, head.weights, h=1e-3)
            assert max_relative_error(grad, fd) <= 1e-4


def _boundary_noise_instance(n_images=12, noise_frac=0.2, feature_noise=0.35):
    """3-class separable features; the whole object-boundary band is disputed
    and ``noise_frac`` of it carries wrong (object-inflating) CRF labels."""
    rng = np.random.default_rng(7)
    num_classes, dim, h, w = 3, 8, 24, 24
    q, _ = np.linalg.qr(rng.normal(size=(dim, num_classes + 1)))
    mu = q.T

    def one(seed):
        r = np.random.default_rng(seed)
        gt = np.zeros((h, w), np.uint8)
        for k in range(2):
            c = int(r.integers(1, num_classes + 1))
            y0 = int(r.integers(1, 4)) + (0 if k == 0 else h // 2)
            x0 = int(r.integers(1, w // 2 - 8)) + (0 if k == 0 else w // 2 - 4)
            hh, ww = int(r.integers(6, 10)), int(r.integers(6, 10))
            gt[y0 : min(y0 + hh, h - 1), x0 : min(x0 + ww, w - 1)] = c
        f = mu[gt].transpose(2, 0, 1) + r.normal(0, feature_noise, size=(dim, h, w))
        return gt, f

    def band_of(gt, thickness=2):
        pad = np.pad(gt, 1, mode="edge")
        nb = np.stack([pad[:-2, 1:-1], pad[2:, 1:-1], pad[1:-1, :-2], pad[1:-1, 2:]])
        band = (nb != gt).any(axis=0)
        for _ in range(thickness - 1):
            bp = np.pad(band, 1)
            band = bp[:-2, 1:-1] | bp[2:, 1:-1] | bp[1:-1, :-2] | bp[1:-1, 2:] | band
        return band

    noisy, trusted, gts, feats = [], [], [], []
    for i in range(n_images):
        gt, f = one(100 + i)
        band = band_of(gt)
        r = np.random.default_rng(500 + i)
        y_crf = gt.copy()
        idx = np.flatnonzero(band.ravel())
        chosen = r.choice(idx, size=int(round(noise_frac * idx.size)), replace=False)
        present = np.unique(gt[gt > 0])
        flat = y_crf.ravel()
        for p in chosen:
            options = [c for c in present if c != flat[p]] or [0]
            flat[p] = options[int(r.integers(len(options)))]
        y_crf = flat.reshape(h, w)
        y_ret = y_crf.copy()
        flat_ret = y_ret.ravel()
        for p in idx:  # the whole band is disputed
            flat_ret[p] = 0 if flat[p] != 0 else int(present[0])
        y_ret = flat_ret.reshape(h, w)
        noisy.append((f, fuse_labels(y_crf, y_ret)))
        trusted.append((f, fuse_labels(y_crf, y_crf)))
        gts.append(gt)
        feats.append(f)
    return noisy, trusted, gts, feats, num_classes


class TestTrainSegHead:
    def test_deterministic_given_seed(self):
        noisy, _, _, _, num_classes = _boundary_noise_instance(n_images=3)
        a, _ = train_seg_head(noisy, num_classes, epochs=3, lr=0.05, seed=5)
        b, _ = train_seg_head(noisy, num_classes, epochs=3, lr=0.05, seed=5)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_confidence_hook_reuses_the_step_confidence(self, monkeypatch):
        noisy, _, _, _, num_classes = _boundary_noise_instance(n_images=4)
        plain, plain_losses = train_seg_head(noisy, num_classes, epochs=3, lr=0.05, seed=0)
        calls, dumps = [], []
        real = nal.correlation_maps
        monkeypatch.setattr(nal, "correlation_maps", lambda *a: calls.append(1) or real(*a))
        head, losses = train_seg_head(noisy, num_classes, epochs=3, lr=0.05, seed=0,
                                      confidence_hook=lambda epoch, i, sigma: dumps.append((epoch, i)))
        assert len(dumps) == 12 and len(calls) == 12  # one per image step, not two
        assert head.weights.tobytes() == plain.weights.tobytes() and losses == plain_losses

    def test_loss_decreases_on_separable_data(self):
        noisy, _, _, _, num_classes = _boundary_noise_instance(n_images=4)
        _, losses = train_seg_head(noisy, num_classes, epochs=10, lr=0.05, seed=0)
        assert losses[-1] < losses[0]

    def test_noise_aware_beats_plain_ce_under_boundary_noise(self):
        noisy, trusted, gts, feats, num_classes = _boundary_noise_instance()

        def train_and_score(samples, lam):
            head, _ = train_seg_head(samples, num_classes, lam=lam, epochs=40, lr=0.05, seed=0)
            cm = np.zeros((num_classes + 1, num_classes + 1), np.int64)
            for gt, f in zip(gts, feats):
                cm += metrics.confusion(predict_labels(f, head, *gt.shape), gt, num_classes)
            return metrics.miou(cm)[0]

        nal_miou = train_and_score(noisy, 0.1)
        plain_miou = train_and_score(trusted, 0.0)
        assert nal_miou > plain_miou

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            train_seg_head([], 2)


class TestPredict:
    def test_probabilities_shape_and_simplex(self):
        rng = np.random.default_rng(10)
        head = random_head(rng, 2, 4, "cosine")
        f = rng.normal(size=(4, 6, 6))
        probs = predict_probabilities(f, head, 18, 12)
        assert probs.shape == (3, 18, 12)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_labels_are_argmax(self):
        rng = np.random.default_rng(11)
        head = random_head(rng, 2, 4, "cosine")
        f = rng.normal(size=(4, 5, 5))
        labels = predict_labels(f, head, 5, 5)
        probs = predict_probabilities(f, head, 5, 5)
        assert np.array_equal(labels, probs.argmax(axis=0))
