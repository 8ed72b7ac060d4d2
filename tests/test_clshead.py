"""Classifier head: scoring modes, losses, gradients, SGD, evidence maps."""

import numpy as np
import pytest

from conftest import (
    boundary_noise_instance,
    finite_difference_grad,
    max_relative_error,
    random_head,
    stepwise_sgd_train,
)

from bana import clshead
from bana.clshead import (
    INIT,
    LR_DROP_EPOCH,
    ORDER,
    ClassifierHead,
    cam,
    ce_loss_and_grad,
    epoch_order,
    init_head,
    keyed_bits,
    keyed_normals,
    load_head,
    save_head,
    sgd_step,
    sgd_train,
    softmax,
    uniforms,
)
from bana.nal import predict_probabilities


class TestLogits:
    """A head's class scores: a cosine head's as :func:`bana.nal.predict_probabilities`
    computes them (a dot head's are :func:`cam`'s, see TestCam), and the
    checks of the head that holds them."""

    @staticmethod
    def _probabilities(head, x):
        return predict_probabilities(np.asarray(x, dtype=np.float64)[:, None, None], head, 1, 1)[:, 0, 0]

    def test_cosine_self_similarity_hits_scale(self):
        # A feature equal to row c scores the scale on c and scale * cos on the other row.
        w = np.array([[1.0, 2.0], [3.0, -1.0]])
        head = ClassifierHead(weights=w, mode="cosine", scale=10.0)
        cos = w[0] @ w[1] / (np.linalg.norm(w[0]) * np.linalg.norm(w[1]))
        p0, p1 = self._probabilities(head, w[0]), self._probabilities(head, w[1])
        assert np.log(p0[0] / p0[1]) == pytest.approx(10.0 - 10.0 * cos)
        assert np.log(p1[1] / p1[0]) == pytest.approx(10.0 - 10.0 * cos)

    def test_two_class_toy_softmax(self):
        head = ClassifierHead(weights=np.array([[1.0, 0.0], [0.0, 1.0]]), mode="cosine", scale=1.0)
        np.testing.assert_allclose(self._probabilities(head, [1.0, 0.0]), [0.7311, 0.2689], atol=5e-5)

    def test_dimension_mismatch(self):
        head = ClassifierHead(weights=np.zeros((2, 3)), mode="cosine")
        with pytest.raises(ValueError, match="dim"):
            self._probabilities(head, np.zeros(4))

    def test_dot_head_rejected(self):
        head = ClassifierHead(weights=np.eye(2))
        with pytest.raises(ValueError, match="need a cosine head .* got a 'dot' head"):
            self._probabilities(head, [1.0, 0.0])

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
        f = rng.normal(size=(5, 3, 4))
        base = predict_probabilities(f, head, 3, 4)
        np.testing.assert_allclose(predict_probabilities(7.3 * f, head, 3, 4), base, atol=1e-12)
        scaled = ClassifierHead(weights=head.weights * 4.2, mode="cosine", scale=head.scale)
        np.testing.assert_allclose(predict_probabilities(f, scaled, 3, 4), base, atol=1e-12)


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
        assert np.mean((x @ trained.weights.T).argmax(axis=1) == y) >= 0.95

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

    @pytest.mark.parametrize("mode", ["dot"])
    def test_matches_the_stepwise_oracle(self, mode):
        # The boundary-noise instance's pixels, past the rate drop.
        _, _, gts, feats, num_classes = boundary_noise_instance(n_images=2)
        x = np.concatenate([f.reshape(f.shape[0], -1).T for f in feats])
        y = np.concatenate([gt.ravel() for gt in gts])
        head = random_head(np.random.default_rng(1), num_classes, x.shape[1], mode)
        a, losses_a = sgd_train(head, x, y, epochs=LR_DROP_EPOCH + 2, lr=0.1, seed=4)
        b, losses_b = stepwise_sgd_train(head, x, y, epochs=LR_DROP_EPOCH + 2, lr=0.1, seed=4)
        assert a.weights.tobytes() == b.weights.tobytes() and losses_a == losses_b

    def test_cosine_head_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(clshead, "ce_kernel", lambda *a: pytest.fail("training started"))
        head = ClassifierHead(weights=np.eye(2), mode="cosine")
        with pytest.raises(ValueError, match="got a 'cosine' head; use nal.train_seg_head"):
            sgd_train(head, np.eye(2), np.array([0, 1]), epochs=1, lr=0.1, seed=0)

    @pytest.mark.parametrize("x, y, match", [
        (np.zeros((0, 2)), np.zeros(0, dtype=int), "nonempty"), (np.zeros((2, 2)), np.array([0, 2]), "targets"),
        (np.zeros((2, 2)), np.array([0]), "targets"), (np.zeros((2, 3)), np.array([0, 1]), "feature dim 3"),
    ])
    def test_bad_batch_rejected_before_training(self, monkeypatch, x, y, match):
        monkeypatch.setattr(clshead, "ce_kernel", lambda *a: pytest.fail("training started"))
        with pytest.raises(ValueError, match=match):
            sgd_train(init_head(1, 2, seed=0), x, y, epochs=1, lr=0.1, seed=0)

    def test_diverging_rate_is_a_value_error(self):
        x, y = self._clusters(np.random.default_rng(6), n_per=10)
        with pytest.raises(ValueError, match="training diverged: numpy reported 'overflow encountered"):
            sgd_train(init_head(2, 3, seed=0), x, y, epochs=3, lr=1e300, seed=0)

    def test_gaussian_init_statistics(self):
        head = init_head(40, 400, seed=0)
        assert abs(head.weights.mean()) < 1e-3
        assert head.weights.std() == pytest.approx(1e-2, rel=0.05)


class TestKeyedDraws:
    """The generator of both heads' init and epoch order: SplitMix64 streams keyed
    by (seed, purpose, counters...)."""

    def test_finaliser_is_splitmix64(self):
        # SplitMix64 from state 0 first outputs 0xE220A8397B1DCDAF; the key mix
        # (Python ints) and the draws (uint64 arrays) share the finaliser.
        assert clshead._finalise(clshead._GOLDEN) == 0xE220A8397B1DCDAF
        assert clshead._finalise(np.array([clshead._GOLDEN], dtype=np.uint64)).tolist() == [0xE220A8397B1DCDAF]

    def test_same_key_same_bytes(self):
        assert keyed_bits(100, 3, ORDER, 2).tobytes() == keyed_bits(100, 3, ORDER, 2).tobytes()
        assert keyed_normals(50, 3, INIT).tobytes() == keyed_normals(50, 3, INIT).tobytes()
        assert keyed_bits(5, np.int64(3), np.uint8(1)).tobytes() == keyed_bits(5, 3, 1).tobytes()
        # Draws are counter-based: a shorter stream is a prefix of a longer one.
        assert keyed_bits(7, 3, INIT).tobytes() == keyed_bits(100, 3, INIT)[:7].tobytes()

    def test_distinct_keys_give_distinct_streams(self):
        keys = [(seed, purpose, epoch)
                for seed in (0, 1, 2**64 - 1) for purpose in (INIT, ORDER) for epoch in (0, 1, 7)]
        keys += [(0,), (0, INIT), (1, INIT)]
        streams = {keyed_bits(16, *key).tobytes() for key in keys}
        assert len(streams) == len(keys)
        assert not np.array_equal(init_head(2, 3, seed=0).weights, init_head(2, 3, seed=1).weights)
        orders = {tuple(epoch_order(50, seed, epoch)) for seed in range(3) for epoch in range(3)}
        assert len(orders) == 9

    @pytest.mark.parametrize("n", [0, 1, 2, 33, 1000])
    def test_each_order_is_a_permutation(self, n):
        order = epoch_order(n, 5, 3)
        assert order.dtype == np.intp and np.array_equal(np.sort(order), np.arange(n))

    def test_uniforms_lie_in_the_open_unit_interval(self):
        extremes = uniforms(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert 0.0 < extremes[0] and extremes[1] < 1.0
        u = uniforms(keyed_bits(10**5, 9, ORDER, 0))
        assert u.dtype == np.float64 and 0.0 < u.min() and u.max() < 1.0

    def test_normal_sample_statistics(self):
        z = keyed_normals(10**5, 11, INIT)
        # Standard errors: 0.0032 for the mean, 0.0022 for the std.
        assert abs(z.mean()) < 0.015 and abs(z.std() - 1.0) < 0.01

    def test_draws_are_pinned(self):
        # Fails if the stream drifts, whether or not any pipeline artifact moves.
        assert [w.hex() for w in init_head(1, 2, seed=0).weights.ravel()] == [
            "0x1.404d91e8032e7p-6", "0x1.ad42b9a62d510p-7", "-0x1.dd1757654f7eap-9", "0x1.422827f00d0e8p-9"]
        assert [u.hex() for u in uniforms(keyed_bits(2, 7, ORDER, 3))] == [
            "0x1.6fbd818390571p-1", "0x1.12a4eca18106ap-2"]
        assert epoch_order(10, 0, 0).tolist() == [8, 5, 6, 3, 4, 7, 9, 0, 1, 2]

    def test_key_mix_never_raises_a_numpy_overflow(self):
        # A numpy scalar key part is mixed as a Python int, so divergence_guard's
        # errstate cannot turn its wraparound into a training error.
        with np.errstate(all="raise"):
            assert keyed_bits(3, np.uint64(2**64 - 1), ORDER, 2**64 - 1).tolist() == \
                keyed_bits(3, 2**64 - 1, ORDER, 2**64 - 1).tolist()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_key_part_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"key parts must lie in \[0, 2\*\*64\)"):
            init_head(1, 2, seed=seed)


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

    def test_cosine_head_rejected(self):
        head = ClassifierHead(weights=np.eye(2), mode="cosine")
        with pytest.raises(ValueError, match="need a dot head .* got a 'cosine' head"):
            cam(np.ones((2, 1, 1)), head, 1)

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
