"""Classifier head: scoring modes, losses, gradients, SGD, evidence maps."""

import numpy as np
import pytest

from conftest import finite_difference_grad, max_relative_error, random_head

from bana import clshead
from bana.clshead import (
    LR_DROP_EPOCH,
    ClassifierHead,
    accuracy,
    cam,
    ce_loss_and_grad,
    init_head,
    load_head,
    logits,
    save_head,
    sgd_step,
    sgd_train,
    softmax,
)


class TestLogits:
    def test_cosine_self_similarity_hits_scale(self):
        w = np.array([[1.0, 2.0], [3.0, -1.0]])
        head = ClassifierHead(weights=w, mode="cosine", scale=10.0)
        assert logits(head, w[0])[0] == pytest.approx(10.0)
        assert logits(head, w[1])[1] == pytest.approx(10.0)

    def test_dot_orthogonal_is_zero(self):
        head = ClassifierHead(weights=np.array([[1.0, 0.0], [0.0, 1.0]]), mode="dot")
        assert logits(head, np.array([0.0, 2.0]))[0] == 0.0

    def test_two_class_toy_softmax(self):
        head = ClassifierHead(weights=np.array([[1.0, 0.0], [0.0, 1.0]]), mode="dot")
        p = softmax(logits(head, np.array([1.0, 0.0])))
        np.testing.assert_allclose(p, [0.7311, 0.2689], atol=5e-5)

    def test_dimension_mismatch(self):
        head = ClassifierHead(weights=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dim"):
            logits(head, np.zeros(4))

    def test_more_than_254_classes_rejected(self):
        # Labels are uint8 and 255 is IGNORE: class 300 would be written as 44.
        with pytest.raises(ValueError, match="L <= 254"):
            ClassifierHead(weights=np.zeros((301, 3)))
        assert ClassifierHead(weights=np.zeros((255, 3))).num_classes == 254

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            ClassifierHead(weights=np.eye(2), mode="cosine", scale=scale)

    def test_cosine_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(0)
        head = random_head(rng, 3, 5, "cosine")
        x = rng.normal(size=5)
        base = logits(head, x)
        np.testing.assert_allclose(logits(head, 7.3 * x), base, atol=1e-12)
        scaled = ClassifierHead(weights=head.weights * 4.2, mode="cosine", scale=head.scale)
        np.testing.assert_allclose(logits(scaled, x), base, atol=1e-12)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(50, 7)) * 30
        np.testing.assert_allclose(softmax(z, axis=1).sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 123.0), atol=1e-12)


class TestCeLoss:
    def test_uniform_logits_give_log_n(self):
        head = ClassifierHead(weights=np.zeros((3, 4)), mode="dot")
        loss, _ = ce_loss_and_grad(head, np.ones((5, 4)), np.array([0, 1, 2, 0, 1]))
        assert loss == pytest.approx(np.log(3.0), abs=1e-9)

    def test_saturated_cosine_loss_vanishes(self):
        w = np.eye(3)
        head = ClassifierHead(weights=w, mode="cosine", scale=50.0)
        loss, _ = ce_loss_and_grad(head, w[1][None], np.array([1]))
        assert loss < 1e-10

    def test_empty_batch_rejected(self):
        head = ClassifierHead(weights=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonempty"):
            ce_loss_and_grad(head, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_target_out_of_range(self):
        head = ClassifierHead(weights=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="targets"):
            ce_loss_and_grad(head, np.zeros((1, 2)), np.array([5]))

    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_gradient_matches_finite_differences(self, mode):
        rng = np.random.default_rng(42)
        for _ in range(25):
            head = random_head(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)), mode)
            n = int(rng.integers(1, 6))
            x = rng.normal(size=(n, head.dim))
            t = rng.integers(0, head.num_classes + 1, size=n)
            _, grad = ce_loss_and_grad(head, x, t)

            def loss_of(w):
                h = ClassifierHead(weights=w, mode=mode, scale=head.scale)
                return ce_loss_and_grad(h, x, t)[0]

            fd = finite_difference_grad(loss_of, head.weights, h=1e-3)
            assert max_relative_error(grad, fd) <= 1e-4


class TestSgdTrain:
    def _clusters(self, rng, n_per=40):
        centers = np.array([[0.0, 0.0, 3.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        x = np.concatenate([c + rng.normal(0, 0.3, size=(n_per, 3)) for c in centers])
        y = np.repeat([0, 1, 2], n_per)
        return x, y

    def test_separable_clusters_reach_95_percent(self):
        rng = np.random.default_rng(3)
        x, y = self._clusters(rng)
        head = init_head(2, 3, seed=0)
        trained, losses = sgd_train(head, x, y, epochs=40, lr=0.5, seed=0)
        assert losses[-1] < losses[0]
        assert accuracy(trained, x, y) >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x, y = self._clusters(rng)
        head = init_head(2, 3, seed=9)
        a, _ = sgd_train(head, x, y, epochs=5, lr=0.1, seed=9)
        b, _ = sgd_train(head, x, y, epochs=5, lr=0.1, seed=9)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_input_head_untouched(self):
        rng = np.random.default_rng(5)
        x, y = self._clusters(rng, n_per=10)
        head = init_head(2, 3, seed=0)
        before = head.weights.copy()
        sgd_train(head, x, y, epochs=2, lr=0.1, seed=0)
        assert np.array_equal(head.weights, before)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            sgd_train(init_head(1, 2, seed=0), np.zeros((2, 2)), np.array([0, 1]), epochs=2, lr=lr, seed=0)

    def test_rate_drops_tenfold_at_the_drop_epoch(self, monkeypatch):
        rates = []

        def recording_step(w, velocity, grad, lr):
            rates.append(lr)
            return sgd_step(w, velocity, grad, lr)

        monkeypatch.setattr(clshead, "sgd_step", recording_step)
        # Two samples make one batch, so one step per epoch.
        sgd_train(init_head(1, 2, seed=0), np.eye(2), np.array([0, 1]), epochs=LR_DROP_EPOCH + 2, lr=0.5, seed=0)
        assert rates == [0.5] * LR_DROP_EPOCH + [0.05] * 2

    def test_sgd_step_is_momentum_with_weight_decay(self):
        w, v, g = np.array([[1.0, -2.0]]), np.array([[0.5, 0.0]]), np.array([[2.0, 4.0]])
        w_new, v_new = sgd_step(w, v, g, 0.1)
        # v <- 0.9 v - lr (g + 5e-4 w), w <- w + v
        np.testing.assert_allclose(v_new, [[0.45 - 0.1 * 2.0005, -0.1 * 3.999]], rtol=1e-15)
        np.testing.assert_allclose(w_new, w + v_new, rtol=1e-15)

    def test_gaussian_init_statistics(self):
        head = init_head(40, 400, seed=0)
        assert abs(head.weights.mean()) < 1e-3
        assert head.weights.std() == pytest.approx(1e-2, rel=0.05)


class TestCam:
    def test_orthogonal_weights_give_zero(self):
        f = np.zeros((2, 3, 3))
        f[0] = 1.0
        head = ClassifierHead(weights=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.all(cam(f, head, 1) == 0.0)

    def test_dot_product_value(self):
        f = np.ones((2, 1, 1))
        head = ClassifierHead(weights=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert cam(f, head, 1)[0, 0] == pytest.approx(2.0)

    def test_background_class_rejected(self):
        head = ClassifierHead(weights=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="class_id"):
            cam(np.zeros((2, 2, 2)), head, 0)
        with pytest.raises(ValueError, match="class_id"):
            cam(np.zeros((2, 2, 2)), head, 2)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(6)
        head = random_head(rng, 3, 4, "dot")
        assert cam(rng.normal(size=(4, 8, 8)), head, 2).min() >= 0.0

    def test_trained_head_concentrates_evidence_in_the_right_box(self):
        # two feature blobs + background; the trained class map should put
        # at least 80% of its mass inside the matching box
        rng = np.random.default_rng(7)
        mu = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        f = np.tile(mu[0][:, None, None], (1, 8, 8)) + rng.normal(0, 0.1, size=(3, 8, 8))
        f[:, 1:4, 1:4] = mu[1][:, None, None] + rng.normal(0, 0.1, size=(3, 3, 3))
        f[:, 5:8, 5:8] = mu[2][:, None, None] + rng.normal(0, 0.1, size=(3, 3, 3))
        x = np.concatenate(
            [
                mu[0] + rng.normal(0, 0.1, size=(40, 3)),
                mu[1] + rng.normal(0, 0.1, size=(40, 3)),
                mu[2] + rng.normal(0, 0.1, size=(40, 3)),
            ]
        )
        y = np.repeat([0, 1, 2], 40)
        trained, _ = sgd_train(init_head(2, 3, seed=0), x, y, epochs=60, lr=0.5, seed=0)
        m1 = cam(f, trained, 1)
        inside = m1[1:4, 1:4].sum()
        assert inside / m1.sum() >= 0.8


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        head = ClassifierHead(
            weights=rng.normal(size=(4, 6)).astype(np.float32).astype(np.float64),
            mode="cosine",
            scale=12.5,
        )
        path = tmp_path / "head.btf"
        save_head(path, head)
        back = load_head(path)
        assert back.mode == "cosine" and back.scale == 12.5
        np.testing.assert_array_equal(back.weights, head.weights)
