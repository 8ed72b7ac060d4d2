"""Noise-aware loss: correlations, confidence, gradients, robust training."""

import numpy as np
import pytest

from conftest import (
    boundary_noise_instance,
    finite_difference_grad,
    max_relative_error,
    random_head,
    stepwise_train_seg_head,
)

from bana.clshead import ClassifierHead, ce_loss_and_grad
from bana.core import IGNORE
from bana.nal import (
    confidence_map,
    correlation_maps,
    nal_loss_and_grad,
    predict_labels,
    predict_probabilities,
    prepare_seg_sample,
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

    def test_dot_head_rejected(self):
        head = ClassifierHead(weights=np.eye(2))
        with pytest.raises(ValueError, match="need a cosine head .* got a 'dot' head"):
            correlation_maps(np.ones((2, 1, 1)), head)

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
        for gamma in (0.5, float("nan")):
            with pytest.raises(ValueError, match="gamma must be >= 1"):
                confidence_map(np.ones((2, 2, 2)), np.zeros((2, 2), dtype=np.uint8), gamma)

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

    def test_unit_confidence_collapses_to_mean_ce(self, monkeypatch):
        rng = np.random.default_rng(3)
        f, head, fused = self._instance(rng)
        monkeypatch.setattr(nal, "confidence_map", lambda *a: np.ones(f.shape[1:]))
        report, _ = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.1)
        idx = ~fused.agree
        x = f.reshape(3, -1).T[idx.ravel()]
        t = fused.y_crf[idx].astype(np.intp)
        plain, _ = ce_loss_and_grad(head, x, t)
        assert report.loss_disagree == pytest.approx(plain, rel=1e-12)

    def test_report_records_the_confidence_used(self):
        rng = np.random.default_rng(8)
        f, head, fused = self._instance(rng)
        report, _ = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=3.0, lam=0.1)
        expected = confidence_map(correlation_maps(f, head), fused.y_crf, 3.0)
        np.testing.assert_array_equal(report.confidence, expected)
        agreed = fuse_labels(fused.y_crf, fused.y_crf)
        assert nal_loss_and_grad(prepare_seg_sample(f, agreed), head, gamma=3.0, lam=0.1)[0].confidence is None

    def test_no_disagreement_makes_lambda_irrelevant(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(3, 4, 4))
        head = random_head(rng, 2, 3, "cosine")
        y = rng.integers(0, 3, size=(4, 4)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        r1, g1 = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.1)
        r2, g2 = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=5.0)
        assert r1.total == r2.total == r1.loss_agree
        assert np.array_equal(g1, g2)

    def test_full_agreement_equals_plain_ce_over_all_pixels(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(3, 5, 5))
        head = random_head(rng, 2, 3, "cosine")
        y = rng.integers(0, 3, size=(5, 5)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        report, grad = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.1)
        loss, grad_ref = ce_loss_and_grad(head, f.reshape(3, -1).T, y.ravel().astype(np.intp))
        assert report.total == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12)

    def test_lambda_zero_ignores_disagreement(self):
        rng = np.random.default_rng(6)
        f, head, fused = self._instance(rng)
        report, grad = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.0)
        assert report.total == report.loss_agree
        idx = fused.agree
        x = f.reshape(3, -1).T[idx.ravel()]
        t = fused.fused[idx].astype(np.intp)
        _, grad_s = ce_loss_and_grad(head, x, t)
        np.testing.assert_allclose(grad, grad_s, rtol=1e-12)

    def test_zero_confidence_sum_gives_zero_weighted_loss(self, monkeypatch):
        rng = np.random.default_rng(7)
        f, head, fused = self._instance(rng)
        monkeypatch.setattr(nal, "confidence_map", lambda *a: np.zeros(f.shape[1:]))
        report, _ = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.1)
        assert report.loss_disagree == 0.0

    def test_empty_image_rejected(self):
        rng = np.random.default_rng(8)
        head = random_head(rng, 2, 3, "cosine")
        f = rng.normal(size=(3, 0, 4))
        y = np.zeros((0, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=">= 1"):
            nal_loss_and_grad(prepare_seg_sample(f, fuse_labels(y, y)), head, gamma=7.0, lam=0.1)

    @pytest.mark.parametrize("mode, classes, dim, match", [
        ("dot", 2, 3, "need a cosine head"), ("cosine", 1, 3, "CRF label 2 is past the head's 1 classes"),
        ("cosine", 2, 4, "feature channels 3 do not match head dim 4"),
    ])
    def test_head_that_cannot_score_the_sample_rejected(self, mode, classes, dim, match):
        rng = np.random.default_rng(14)
        f, _, fused = self._instance(rng)
        fused = fuse_labels(np.full(fused.y_crf.shape, 2, np.uint8), fused.y_ret)
        with pytest.raises(ValueError, match=match):
            nal_loss_and_grad(prepare_seg_sample(f, fused), random_head(rng, classes, dim, mode), gamma=7.0, lam=0.1)

    def test_gradient_matches_finite_differences(self, monkeypatch):
        # the analytic gradient treats the confidence weights as constants,
        # so the probe evaluates the loss with the same pinned map
        rng = np.random.default_rng(9)
        for _ in range(25):
            f, head, fused = self._instance(rng, num_classes=int(rng.integers(1, 4)))
            sigma = confidence_map(correlation_maps(f, head), fused.y_crf, 7.0)
            monkeypatch.setattr(nal, "confidence_map", lambda *a: sigma)
            _, grad = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.1)

            def loss_of(w):
                h = ClassifierHead(weights=w, mode="cosine", scale=head.scale)
                sample = prepare_seg_sample(f, fused)
                return nal_loss_and_grad(sample, h, gamma=7.0, lam=0.1)[0].total

            fd = finite_difference_grad(loss_of, head.weights, h=1e-3)
            assert max_relative_error(grad, fd) <= 1e-4


class TestTrainSegHead:
    def test_deterministic_given_seed(self):
        noisy, _, _, _, num_classes = boundary_noise_instance(n_images=3)
        a, _ = train_seg_head(noisy, num_classes, gamma=7.0, lam=0.1, epochs=3, lr=0.05, seed=5)
        b, _ = train_seg_head(noisy, num_classes, gamma=7.0, lam=0.1, epochs=3, lr=0.05, seed=5)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_confidence_hook_reuses_the_step_confidence(self, monkeypatch):
        noisy, trusted, _, _, num_classes = boundary_noise_instance(n_images=4)
        samples = noisy[:3] + trusted[3:]  # the last image has no disputed pixels
        plain, plain_losses = train_seg_head(samples, num_classes, gamma=7.0, lam=0.1, epochs=3, lr=0.05, seed=0)
        # bench/spans.py times the steps and the confidence through these three module attributes.
        calls, dumps = {"nal_loss_and_grad": 0, "correlation_maps": 0, "confidence_map": 0}, []
        for name in calls:
            def counted(*a, real=getattr(nal, name), name=name, **k):
                calls[name] += 1
                return real(*a, **k)
            monkeypatch.setattr(nal, name, counted)
        head, losses = train_seg_head(samples, num_classes, gamma=7.0, lam=0.1, epochs=3, lr=0.05, seed=0,
                                      confidence_hook=lambda epoch, i, sigma: dumps.append((epoch, i)))
        # One loss per image step, and one confidence per step with disputed pixels, not two.
        assert len(dumps) == 9 and calls == {"nal_loss_and_grad": 12, "correlation_maps": 9, "confidence_map": 9}
        assert head.weights.tobytes() == plain.weights.tobytes() and losses == plain_losses

    @pytest.mark.parametrize("lam, hooked", [(0.1, False), (0.1, True), (0.0, False)], ids=["nal", "hook", "lam0"])
    def test_matches_the_stepwise_oracle(self, lam, hooked):
        noisy, _, _, _, num_classes = boundary_noise_instance()
        runs = []
        for train in (train_seg_head, stepwise_train_seg_head):
            dumps = []
            hook = (lambda epoch, i, sigma: dumps.append((epoch, i, sigma.tobytes()))) if hooked else None
            head, losses = train(noisy, num_classes, gamma=7.0, lam=lam, epochs=5, lr=0.05, seed=3,
                                 confidence_hook=hook)
            runs.append((head.weights.tobytes(), losses, dumps))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == (5 * 12 if hooked else 0)

    @pytest.mark.parametrize("setting", [{"lr": 1e300}, {"lam": 1e300}])
    def test_diverging_settings_are_a_value_error(self, setting):
        noisy, _, _, _, num_classes = boundary_noise_instance(n_images=2)
        with pytest.raises(ValueError, match="training diverged: numpy reported 'overflow encountered"):
            train_seg_head(noisy, num_classes, **{"gamma": 7.0, "lam": 0.1, "epochs": 2, "lr": 0.1, "seed": 0,
                                                  **setting})

    def test_image_the_head_cannot_score_rejected_before_training(self, monkeypatch):
        noisy, _, _, _, num_classes = boundary_noise_instance(n_images=2)
        monkeypatch.setattr(nal, "nal_loss_and_grad", lambda *a, **k: pytest.fail("training started"))
        with pytest.raises(ValueError, match="training image 0: 8 feature channels and CRF labels up to 3"):
            train_seg_head(noisy, num_classes - 1, gamma=7.0, lam=0.1, epochs=1, lr=0.1, seed=0)
        with pytest.raises(ValueError, match="training image 1: 3 feature channels"):
            train_seg_head([noisy[0], (noisy[1][0][:3], noisy[1][1])], num_classes, gamma=7.0, lam=0.1, epochs=1,
                           lr=0.1, seed=0)

    def test_loss_decreases_on_separable_data(self):
        noisy, _, _, _, num_classes = boundary_noise_instance(n_images=4)
        _, losses = train_seg_head(noisy, num_classes, gamma=7.0, lam=0.1, epochs=10, lr=0.05, seed=0)
        assert losses[-1] < losses[0]

    def test_noise_aware_beats_plain_ce_under_boundary_noise(self):
        noisy, trusted, gts, feats, num_classes = boundary_noise_instance()

        def train_and_score(samples, lam):
            head, _ = train_seg_head(samples, num_classes, gamma=7.0, lam=lam, epochs=40, lr=0.05, seed=0)
            cm = np.zeros((num_classes + 1, num_classes + 1), np.int64)
            for gt, f in zip(gts, feats):
                cm += metrics.confusion(predict_labels(f, head, *gt.shape), gt, num_classes)
            return metrics.miou(cm)[0]

        nal_miou = train_and_score(noisy, 0.1)
        plain_miou = train_and_score(trusted, 0.0)
        assert nal_miou > plain_miou

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            train_seg_head([], 2, gamma=7.0, lam=0.1, epochs=30, lr=0.1, seed=0)

    @pytest.mark.parametrize("setting, match", [
        ({"gamma": 0.5}, "gamma"), ({"gamma": float("nan")}, "gamma"),
        ({"lam": -1.0}, "lam"), ({"lam": float("nan")}, "lam"), ({"lam": float("inf")}, "lam"),
        ({"lr": -5.0}, "lr"), ({"lr": float("nan")}, "lr"),
    ])
    def test_bad_gamma_or_lambda_rejected_before_training(self, monkeypatch, setting, match):
        noisy, _, _, _, num_classes = boundary_noise_instance(n_images=2)
        monkeypatch.setattr(nal, "nal_loss_and_grad", lambda *a, **k: pytest.fail("training started"))
        with pytest.raises(ValueError, match=match):
            train_seg_head(noisy, num_classes, **{"gamma": 7.0, "lam": 0.1, "epochs": 1, "lr": 0.1, "seed": 0,
                                                  **setting})


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
