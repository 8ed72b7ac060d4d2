"""Unary construction and mean-field inference, naive engine as the oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bana.core import BBox, BoxSet
from bana.crf import CrfParams, build_unary, mean_field, mean_field_naive


def _flat_image(h, w, value=128):
    return np.full((h, w, 3), value, dtype=np.uint8)


def _random_instance(rng, h, w, labels):
    unary = rng.uniform(0.05, 1.0, size=(labels, h, w))
    image = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
    return unary, image


class TestBuildUnary:
    def test_constant_evidence_fills_the_box(self):
        boxes = BoxSet(8, 8, [BBox(1, 2, 2, 6, 6)])
        cam = np.zeros((8, 8))
        cam[2:6, 2:6] = 3.5
        unary = build_unary({1: cam}, np.ones((8, 8)), boxes, num_classes=1, tau=None)
        assert np.all(unary[1][2:6, 2:6] == 1.0)
        assert unary[1][0, 0] == 0.0

    def test_outside_all_boxes_is_pure_background(self):
        boxes = BoxSet(8, 8, [BBox(1, 0, 0, 4, 4)])
        attention = np.ones((8, 8))
        attention[0:4, 0:4] = 0.3
        unary = build_unary({1: np.ones((8, 8))}, attention, boxes, num_classes=1, tau=0.99)
        assert unary[0][6, 6] == 1.0
        assert unary[1][6, 6] == 0.0

    def test_threshold_binarizes_background_scores(self):
        boxes = BoxSet(4, 4, [BBox(1, 0, 0, 4, 4)])
        attention = np.array(
            [
                [0.995, 0.2, 0.2, 0.2],
                [0.2, 0.2, 0.2, 0.2],
                [0.2, 0.2, 0.2, 0.2],
                [0.2, 0.2, 0.2, 0.99],
            ]
        )
        unary = build_unary({}, attention, boxes, num_classes=1, tau=0.99)
        assert unary[0][0, 0] == 1.0 and unary[0][3, 3] == 1.0
        assert unary[0][1, 1] == 0.0

    def test_raw_mode_keeps_attention_values(self):
        boxes = BoxSet(4, 4, [BBox(1, 0, 0, 4, 4)])
        attention = np.full((4, 4), 0.37)
        unary = build_unary({}, attention, boxes, num_classes=1, tau=None)
        np.testing.assert_allclose(unary[0], 0.37, atol=1e-12)

    def test_zero_evidence_stays_zero(self):
        boxes = BoxSet(4, 4, [BBox(1, 0, 0, 2, 2)])
        unary = build_unary({1: np.zeros((4, 4))}, np.ones((4, 4)), boxes, num_classes=1, tau=None)
        assert np.all(unary[1] == 0.0)

    def test_upsampled_channels_stay_in_range_and_masked(self):
        rng = np.random.default_rng(0)
        boxes = BoxSet(16, 16, [BBox(1, 3, 3, 12, 12)])
        cam = rng.uniform(0.0, 5.0, size=(8, 8))
        attention = rng.uniform(0.0, 1.0, size=(8, 8))
        unary = build_unary({1: cam}, attention, boxes, num_classes=2, tau=None)
        assert unary.shape == (3, 16, 16)
        assert unary.min() >= 0.0 and unary.max() <= 1.0
        outside = np.ones((16, 16), dtype=bool)
        outside[3:12, 3:12] = False
        assert np.all(unary[1][outside] == 0.0)
        assert np.all(unary[2] == 0.0)  # no class-2 box

    def test_resolution_mismatch_rejected(self):
        boxes = BoxSet(8, 8, [BBox(1, 0, 0, 4, 4)])
        with pytest.raises(ValueError, match="shape"):
            build_unary({1: np.ones((4, 4))}, np.ones((5, 5)), boxes, num_classes=1)


class TestMeanField:
    def test_zero_pairwise_reduces_to_unary_argmax(self):
        rng = np.random.default_rng(1)
        unary, image = _random_instance(rng, 9, 7, 4)
        params = CrfParams(w1=0.0, w2=0.0, iterations=5)
        labels, _ = mean_field(unary, image, params)
        assert np.array_equal(labels, unary.argmax(axis=0))

    def test_zero_iterations_is_floored_normalized_scores(self):
        rng = np.random.default_rng(2)
        unary, image = _random_instance(rng, 5, 5, 3)
        params = CrfParams(iterations=0)
        _, marginals = mean_field(unary, image, params)
        scores = np.maximum(unary, params.unary_floor)
        np.testing.assert_allclose(marginals, scores / scores.sum(axis=0), atol=1e-12)

    def test_two_pixel_agreement_matches_enumeration_oracle(self):
        # 2x1 image, 2 labels: pixel 0 prefers label 0 strongly, pixel 1
        # prefers label 1 weakly; smoothing must align them.
        unary = np.array([[[0.8], [0.45]], [[0.2], [0.55]]])
        image = _flat_image(2, 1)
        params = CrfParams(w1=0.0, w2=3.0, theta_gamma=10.0, iterations=20)
        labels, _ = mean_field(unary, image, params)

        # oracle: exact energies of the 4 joint labelings
        scores = np.maximum(unary, params.unary_floor)
        psi = -np.log(scores / scores.sum(axis=0))
        coupling = params.w2 * np.exp(-1.0 / (2.0 * params.theta_gamma**2))
        best, best_energy = None, np.inf
        for x0, x1 in itertools.product([0, 1], repeat=2):
            energy = psi[x0, 0, 0] + psi[x1, 1, 0] + (coupling if x0 != x1 else 0.0)
            if energy < best_energy:
                best, best_energy = (x0, x1), energy
        assert best == (0, 0)
        assert labels[0, 0] == labels[1, 0] == 0

    def test_uniform_unary_constant_per_color_region(self):
        image = _flat_image(6, 8, 40)
        image[:, 4:] = 200
        unary = np.full((3, 6, 8), 1.0 / 3.0)
        labels, _ = mean_field(unary, image, CrfParams(theta_alpha=3.0, iterations=5))
        left, right = labels[:, :4], labels[:, 4:]
        assert len(np.unique(left)) == 1
        assert len(np.unique(right)) == 1

    def test_marginals_valid_after_every_iteration(self):
        rng = np.random.default_rng(3)
        unary, image = _random_instance(rng, 8, 6, 3)
        trace = []
        mean_field(unary, image, CrfParams(theta_alpha=4.0, iterations=6), trace=trace)
        assert len(trace) == 7  # initialization + 6 updates
        for q in trace:
            assert q.min() >= 0.0
            np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-5)

    def test_truncated_window_still_produces_valid_marginals(self):
        rng = np.random.default_rng(5)
        unary, image = _random_instance(rng, 20, 20, 3)
        params = CrfParams(theta_alpha=2.0, theta_gamma=1.0, iterations=3)
        labels, q = mean_field(unary, image, params, method="lattice")
        np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-5)
        assert labels.shape == (20, 20)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        unary, image = _random_instance(rng, 10, 10, 3)
        params = CrfParams(theta_alpha=3.0, iterations=5)
        la, qa = mean_field(unary, image, params)
        lb, qb = mean_field(unary, image, params)
        assert la.tobytes() == lb.tobytes()
        assert qa.tobytes() == qb.tobytes()

    def test_argmax_tie_breaks_to_lowest_class(self):
        unary = np.full((3, 2, 2), 0.5)
        labels, _ = mean_field(unary, _flat_image(2, 2), CrfParams(w1=0.0, w2=0.0, iterations=1))
        assert np.all(labels == 0)

    def test_naive_size_guard(self):
        unary = np.full((2, 65, 65), 0.5)
        with pytest.raises(ValueError, match="naive"):
            mean_field_naive(unary, _flat_image(65, 65), CrfParams(iterations=1))

    def test_input_validation(self):
        params = CrfParams()
        with pytest.raises(ValueError, match="unary"):
            mean_field(np.zeros((1, 4, 4)), _flat_image(4, 4), params)
        with pytest.raises(ValueError, match="resolutions"):
            mean_field(np.zeros((2, 4, 4)), _flat_image(5, 4), params)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            mean_field(np.full((2, 4, 4), 1.5), _flat_image(4, 4), params)
        for retired in ("windowed", "auto"):
            with pytest.raises(ValueError, match="unknown method"):
                mean_field(np.full((2, 4, 4), 0.5), _flat_image(4, 4), params, method=retired)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            CrfParams(theta_alpha=0.0)
        with pytest.raises(ValueError):
            CrfParams(iterations=-1)
        with pytest.raises(ValueError):
            CrfParams(unary_floor=0.0)


_BANDWIDTH = st.floats(min_value=1e-3, max_value=1e4)  # far below to far above the image size


@st.composite
def _crf_instances(draw):
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    labels = draw(st.integers(2, 4))
    unary = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=labels * h * w, max_size=labels * h * w)))
    colours = 1 if draw(st.booleans()) else h * w  # one colour: all pixels share their colour features
    image = np.array(draw(st.lists(st.integers(0, 255), min_size=3 * colours, max_size=3 * colours)), np.uint8)
    image = np.broadcast_to(image.reshape(-1, 3), (h * w, 3))
    params = CrfParams(
        w1=draw(st.floats(0.0, 20.0)),
        w2=draw(st.floats(0.0, 20.0)),
        theta_alpha=draw(_BANDWIDTH),
        theta_beta=draw(_BANDWIDTH),
        theta_gamma=draw(_BANDWIDTH),
        iterations=draw(st.integers(0, 5)),
    )
    return unary.reshape(labels, h, w), image.reshape(h, w, 3), params


def _instance(h, w, colour=None, theta=3.0):
    unary, image = _random_instance(np.random.default_rng(0), h, w, 3)
    if colour is not None:
        image[:] = colour
    return unary, image, CrfParams(theta_alpha=theta, theta_beta=theta, theta_gamma=theta, iterations=4)


@settings(max_examples=150, deadline=None)
@given(_crf_instances())
@example(_instance(1, 1))
@example(_instance(1, 9))
@example(_instance(7, 1))
@example(_instance(6, 8, colour=200))
@example(_instance(6, 8, theta=1e-3))
@example(_instance(6, 8, theta=1e4))
@example(_instance(6, 8, colour=17, theta=1e-3))
def test_lattice_marginals_are_distributions(instance):
    unary, image, params = instance
    labels, q = mean_field(unary, image, params, method="lattice")
    assert np.all(np.isfinite(q)) and q.min() >= 0.0
    np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-5)
    assert labels.shape == unary.shape[1:]
    assert labels.max() < unary.shape[0]
