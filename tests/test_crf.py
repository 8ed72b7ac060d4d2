"""Unary construction, mean-field inference and the dense CRF oracle's size guard."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from bana import crf, fileio
from bana.clshead import softmax
from bana.core import BBox, BoxSet
from bana.crf import CrfParams, build_unary, mean_field
from bana.pipeline import PipelineConfig
from bana.synth import synth_corpus


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
        unary = build_unary({1: cam}, np.ones((8, 8)), boxes, num_classes=1, tau=0.0)
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
        unary = build_unary({}, attention, boxes, num_classes=1, tau=0.0)
        np.testing.assert_allclose(unary[0], 0.37, atol=1e-12)

    def test_zero_evidence_stays_zero(self):
        boxes = BoxSet(4, 4, [BBox(1, 0, 0, 2, 2)])
        unary = build_unary({1: np.zeros((4, 4))}, np.ones((4, 4)), boxes, num_classes=1, tau=0.0)
        assert np.all(unary[1] == 0.0)

    def test_upsampled_channels_stay_in_range_and_masked(self):
        rng = np.random.default_rng(0)
        boxes = BoxSet(16, 16, [BBox(1, 3, 3, 12, 12)])
        cam = rng.uniform(0.0, 5.0, size=(8, 8))
        attention = rng.uniform(0.0, 1.0, size=(8, 8))
        unary = build_unary({1: cam}, attention, boxes, num_classes=2, tau=0.0)
        assert unary.shape == (3, 16, 16)
        assert unary.min() >= 0.0 and unary.max() <= 1.0
        outside = np.ones((16, 16), dtype=bool)
        outside[3:12, 3:12] = False
        assert np.all(unary[1][outside] == 0.0)
        assert np.all(unary[2] == 0.0)  # no class-2 box

    @pytest.mark.parametrize("tau", [0.0, 0.99])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.5, 1.5])
    def test_attention_outside_unit_interval_rejected(self, tau, value):
        # Thresholded, a NaN was "not background"; raw, 1.5 left the unary's range.
        boxes = BoxSet(8, 8, [BBox(1, 0, 0, 4, 4)])
        attention = np.ones((4, 4))
        attention[0, 0] = value
        with pytest.raises(ValueError, match="attention must lie in"):
            build_unary({}, attention, boxes, num_classes=1, tau=tau)

    def test_resolution_mismatch_rejected(self):
        boxes = BoxSet(8, 8, [BBox(1, 0, 0, 4, 4)])
        with pytest.raises(ValueError, match="shape"):
            build_unary({1: np.ones((4, 4))}, np.ones((5, 5)), boxes, num_classes=1, tau=0.99)

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_non_finite_cam_rejected(self, value):
        boxes = BoxSet(8, 8, [BBox(1, 0, 0, 4, 4)])
        cam = np.ones((4, 4))
        cam[1, 2] = value
        with pytest.raises(ValueError, match="negative or non-finite"):
            build_unary({1: cam}, np.ones((4, 4)), boxes, num_classes=1, tau=0.99)


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
        scores = np.maximum(unary, crf._UNARY_FLOOR)
        np.testing.assert_allclose(marginals, scores / scores.sum(axis=0), atol=1e-12)

    def test_two_pixel_agreement_matches_enumeration_oracle(self):
        # 2x1 image, 2 labels: pixel 0 prefers label 0 strongly, pixel 1
        # prefers label 1 weakly; smoothing must align them.
        unary = np.array([[[0.8], [0.45]], [[0.2], [0.55]]])
        image = _flat_image(2, 1)
        params = CrfParams(w1=0.0, w2=3.0, theta_gamma=10.0, iterations=20)
        labels, _ = mean_field(unary, image, params)

        # oracle: exact energies of the 4 joint labelings
        scores = np.maximum(unary, crf._UNARY_FLOOR)
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
        # Mean-field is deterministic: the marginals after k updates are those of a k-iteration run.
        for k in range(7):  # initialization + 6 updates
            _, q = mean_field(unary, image, CrfParams(theta_alpha=4.0, iterations=k))
            assert q.min() >= 0.0
            np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-5)

    def test_truncated_window_still_produces_valid_marginals(self):
        rng = np.random.default_rng(5)
        unary, image = _random_instance(rng, 20, 20, 3)
        params = CrfParams(theta_alpha=2.0, theta_gamma=1.0, iterations=3)
        labels, q = mean_field(unary, image, params)
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

    def test_input_validation(self):
        params = CrfParams()
        with pytest.raises(ValueError, match="unary"):
            mean_field(np.zeros((1, 4, 4)), _flat_image(4, 4), params)
        with pytest.raises(ValueError, match="resolutions"):
            mean_field(np.zeros((2, 4, 4)), _flat_image(5, 4), params)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            mean_field(np.full((2, 4, 4), 1.5), _flat_image(4, 4), params)

    def test_more_than_254_classes_rejected(self):
        # Labels are uint8 and 255 is IGNORE: class 300 would be written as 44.
        unary = np.zeros((301, 2, 2))
        unary[300] = 1.0
        with pytest.raises(ValueError, match="L <= 254"):
            mean_field(unary, _flat_image(2, 2), CrfParams(iterations=1))
        unary = np.zeros((255, 2, 2))
        unary[254] = 1.0
        labels, _ = mean_field(unary, _flat_image(2, 2), CrfParams(iterations=1))
        assert np.all(labels == 254)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_unary_rejected(self, value):
        unary = np.full((2, 4, 4), 0.5)
        unary[1, 2, 3] = value
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            mean_field(unary, _flat_image(4, 4), CrfParams(iterations=1))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            CrfParams(theta_alpha=0.0)
        with pytest.raises(ValueError):
            CrfParams(iterations=-1)

    @pytest.mark.parametrize("name", ["w1", "w2", "theta_alpha", "theta_beta", "theta_gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            CrfParams(**{name: value})

    @pytest.mark.parametrize("name, value", [("w1", 1e308), ("w2", 1e308), ("theta_gamma", 1e-200),
                                             ("theta_gamma", 1e308)])
    def test_params_past_float64_range_rejected(self, name, value):
        # Each made the marginals NaN, or 2 theta^2 overflow.
        with pytest.raises(ValueError, match=f"^{name} must be in"):
            CrfParams(**{name: value})

    def test_params_at_their_range_bounds_give_distributions(self):
        unary, image = _random_instance(np.random.default_rng(8), 6, 5, 3)
        weights, bandwidths = crf._WEIGHT_RANGE, crf._BANDWIDTH_RANGE
        for values in itertools.product(weights, weights, bandwidths, bandwidths, bandwidths):
            _, q = mean_field(unary, image, CrfParams(*values, iterations=3))
            assert np.all(np.isfinite(q)) and q.min() >= 0.0, values
            np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-5)


def test_dense_oracle_size_guard(monkeypatch):
    # 71^2 pixels need a 5041^2 kernel, past the limit: the oracle must refuse
    # before it builds (or allocates) the kernel.
    assert (71 * 71) ** 2 > conftest.DENSE_LIMIT
    unary = np.full((2, 71, 71), 0.5)
    monkeypatch.setattr(conftest, "kernel_matrix", lambda *a: pytest.fail("kernel built"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense oracle would need"):
            conftest.dense_mean_field(unary, _flat_image(71, 71), CrfParams(iterations=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lattice_vertex_codes_match_their_definition():
    # Vertex r of each simplex takes the remainder-0 vertex's quotients, less
    # one on the coordinates ranked above d - r, packed mixed-radix with r.
    features = np.random.default_rng(7).normal(scale=3.0, size=(500, 5))
    rem0, rank, _ = crf._enclosing_simplices(features)
    codes, stride = crf._vertex_codes(rem0, rank)
    d = features.shape[1]
    r = np.arange(d + 1)[None, :, None]
    quot = rem0[:, None, :d] // (d + 1) - (rank[:, None, :d] > d - r)  # (n, d+1, d)
    expected = np.arange(d + 1) + ((quot - quot.min(axis=(0, 1)) + 2) * stride).sum(axis=2)
    assert np.array_equal(codes, expected)
    values, counts = crf._distinct(codes)
    reference = np.unique(codes, return_counts=True)
    assert np.array_equal(values, reference[0]) and np.array_equal(counts, reference[1])


@pytest.mark.parametrize("size", [1, 2, 3, 7, 48, 49, 63, 64])
def test_median_matches_numpy_to_the_bit(size):
    # Images smaller than 8x8 calibrate the lattice on fewer than 64 pixels,
    # so the ratio count may be odd or even; ties must not matter either.
    rng = np.random.default_rng(size)
    for x in (rng.uniform(0.5, 1.5, size), np.round(rng.uniform(0.5, 1.5, size), 1), -rng.lognormal(size=size)):
        assert crf._median(x).hex() == float(np.median(x)).hex()


def test_lattice_factor_is_numpys_median_ratio_on_small_images(monkeypatch):
    # The calibration sample drops repeated pixels, so small images give ratio
    # counts of both parities; the factor must be np.median's on each.
    median, seen = crf._median, []
    monkeypatch.setattr(crf, "_median", lambda x: seen.append(x.copy()) or median(x))
    for side in (2, 5, 7, 8, 9):
        _, factor = crf._lattice_term(np.random.default_rng(side).normal(size=(side * side, 5)))
        assert factor.hex() == float(np.median(seen[-1])).hex()
    assert len(seen) == 5 and {x.size % 2 for x in seen} == {0, 1}


def _lattice_reference(features):
    """The lattice's vertex count, each point's vertex indices and, per
    direction, every vertex's next and previous vertex index (m where there is
    none), from the definitions and in Python ints: a code is decoded into
    the first d coordinates (less d+1 times their lowest quotients), stepped
    and encoded again."""
    rem0, rank, _ = crf._enclosing_simplices(features)
    codes, stride = crf._vertex_codes(rem0, rank)
    d, stride = features.shape[1], [int(s) for s in stride]

    def coordinates(code):
        r, quotients = code % (d + 1), []
        rest = code - r
        for s in reversed(stride):
            quotients.insert(0, rest // s)
            rest -= quotients[0] * s
        return [r + (d + 1) * q for q in quotients]

    def step(code, j, sign):  # along direction j: +(d+1) on coordinate j, -1 on every one
        x = [xk + sign * ((d + 1) * (k == j) - 1) for k, xk in enumerate(coordinates(code))]
        r = x[0] % (d + 1)
        return r + sum((xk - r) // (d + 1) * s for xk, s in zip(x, stride))

    occupied = set(codes.ravel().tolist())
    hits = Counter(step(c, j, sign) for c in occupied for j in range(d + 1) for sign in (1, -1))
    vertices = sorted(occupied | {c for c, count in hits.items() if count >= 2})
    position = {c: i for i, c in enumerate(vertices)}
    m = len(vertices)
    index = np.array([[position[c] for c in row] for row in codes.tolist()])
    tables = [np.array([position.get(step(c, j, sign), m) for sign in (1, -1) for c in vertices]) for j in range(d + 1)]
    return m, index, tables


def _reference_blur(index, weights, tables, values):
    # The splat, the [1, 2, 1] / 4 blur per direction and the slice, written as
    # the lattice first computed them.
    m = tables[0].size // 2
    lat = np.zeros((m + 1, values.shape[1]))
    for l in range(values.shape[1]):
        lat[:m, l] = np.bincount(index.ravel(), weights=(weights * values[:, l, None]).ravel(), minlength=m)
    for both in tables:
        lat[:m] = 0.5 * lat[:m] + 0.25 * (lat.take(both[:m], axis=0) + lat.take(both[m:], axis=0))
    return np.einsum("nrl,nr->nl", lat.take(index, axis=0), weights)


def _corpus_features(tmp_path, shape=(64, 64)):
    # Image 0000 of the seed-0 64^2 corpus, tiled and cropped to ``shape``,
    # under the pipeline's and the paper's CRF settings, scaled as mean_field
    # scales them.
    synth_corpus(tmp_path, seed=0, num_images=1, size=64, num_classes=3)
    image = fileio.read_image(tmp_path / "images" / "0000.ppm")
    pos, col = crf._pixel_features(np.tile(image, (-(-shape[0] // 64), -(-shape[1] // 64), 1))[: shape[0], : shape[1]])
    for params in (PipelineConfig(corpus_dir="c", out_dir="o").crf_params(), CrfParams()):
        yield np.hstack([pos * min(1.0 / params.theta_alpha, crf._MAX_FEATURE_STEP),
                         col * min(1.0 / params.theta_beta, crf._MAX_FEATURE_STEP)])


def test_lattice_matches_its_definition(tmp_path):
    rng = np.random.default_rng(7)
    # At 80x112 the points and the vertices span several of the lattice's
    # blocks, and neither count is a multiple of a block.
    tiled = next(_corpus_features(tmp_path, (80, 112)))
    for features in [rng.normal(scale=3.0, size=(500, 5)), *_corpus_features(tmp_path), tiled]:
        m, index, tables = _lattice_reference(features)
        lattice = crf._Lattice(features)
        assert lattice.size == m
        assert np.array_equal(lattice.index, index)
        # Each direction's next then previous vertex index.
        assert [np.reshape(both, -1).tolist() for both in lattice.neighbours] == [t.tolist() for t in tables]
        weights = crf._enclosing_simplices(features)[2]
        for values in (np.ones((features.shape[0], 1)), rng.uniform(size=(features.shape[0], 4))):
            assert lattice.blur(values).tobytes() == _reference_blur(index, weights, tables, values).tobytes()


def test_held_lattice_stays_within_240_bytes_per_pixel(tmp_path):
    # index, weights and neighbours live as long as the lattice, through every
    # mean-field iteration. With int64 tables they held about 404 B/px.
    for features in _corpus_features(tmp_path):
        lattice = crf._Lattice(features)
        held = sum(np.asarray(a).nbytes for a in (lattice.index, lattice.weights, lattice.neighbours))
        assert held <= 240 * features.shape[0], held / features.shape[0]


def test_lattice_refuses_vertex_indices_past_int32_before_allocating():
    # 2 n (d+1) (d+2) >= 2^31 at the smallest such n; the features are a
    # broadcast view, so the input itself takes no memory either.
    n = -(-(2**31) // (2 * 6 * 7))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"may not fit 32 bits: {n} points are too many"):
            crf._Lattice(np.broadcast_to(np.zeros(5), (n, 5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# mean_field's tracemalloc peak on image 0000 of the seed-0 64^2 corpus with
# its ground-truth unary, tiled 1x1 or 2x2. At 64^2 the blocked lattice with
# int32 tables peaked at 2,492,225 bytes (pipeline setting) and 2,106,960
# (CrfParams()), and the bounds are 5% above those; at 128^2 the bound is 600
# bytes per pixel.
_PEAK_BYTES = {("pipeline", 1): 2_616_836, ("paper", 1): 2_212_308, ("pipeline", 2): 600 * 128 * 128}


def test_mean_field_peak_memory_is_bounded(tmp_path):
    synth_corpus(tmp_path, seed=0, num_images=1, size=64, num_classes=3)
    image = fileio.read_image(tmp_path / "images" / "0000.ppm")
    gt = fileio.read_label_map(tmp_path / "gt" / "0000.pgm", 3)
    unary = (np.arange(4)[:, None, None] == gt).astype(np.float64)
    settings = {"pipeline": PipelineConfig(corpus_dir="c", out_dir="o").crf_params(), "paper": CrfParams()}
    for (name, tiles), bound in _PEAK_BYTES.items():
        tiled_unary, tiled_image = np.tile(unary, (1, tiles, tiles)), np.tile(image, (tiles, tiles, 1))
        mean_field(tiled_unary, tiled_image, settings[name])  # one-off allocations (lazy imports, caches) stay out of the count
        tracemalloc.start()
        try:
            mean_field(tiled_unary, tiled_image, settings[name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (name, tiles, peak)


def _is_subnormal(q):
    return (q != 0.0) & (np.abs(q) < np.finfo(np.float64).tiny)


class TestMarginalFloor:
    def test_update_is_the_softmax_with_the_smallest_entries_zeroed(self):
        rng = np.random.default_rng(11)
        floor = crf._LOG_MARGINAL_FLOOR
        for _ in range(5):
            msg = rng.uniform(-2000.0, 0.0, size=(4, 16, 16))
            msg[:, 0, :4] = [[0.0] * 4, [floor] * 4, [floor + 1e-9, floor - 1e-9, -700.0, -745.0], [-1.0] * 4]
            psi = rng.uniform(0.0, 20.0, size=msg.shape)
            q, reference = crf._update(psi, msg), softmax(msg - psi, axis=0)
            shifted = (msg - psi) - (msg - psi).max(axis=0, keepdims=True)
            kept = shifted > floor
            assert np.array_equal(q.argmax(axis=0), reference.argmax(axis=0))
            assert q[kept].tobytes() == reference[kept].tobytes()
            assert np.all(q[~kept] == 0.0)
            assert np.all(reference[~kept] <= math.exp(floor))
            assert not _is_subnormal(q).any()

    def test_no_marginal_is_subnormal_under_the_paper_setting(self, tmp_path):
        # The ground-truth labels as unary scores: under CrfParams() the exact
        # softmax leaves a few hundred of this image's marginals subnormal.
        synth_corpus(tmp_path, seed=0, num_images=1, size=64, num_classes=3)
        image = fileio.read_image(tmp_path / "images" / "0000.ppm")
        gt = fileio.read_label_map(tmp_path / "gt" / "0000.pgm", 3)
        unary = (np.arange(4)[:, None, None] == gt).astype(np.float64)
        for k in range(11):
            _, q = mean_field(unary, image, CrfParams(iterations=k))
            assert not _is_subnormal(q).any(), k


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


def _instance(h, w, colour=None, theta=3.0, w1=4.0, w2=3.0):
    unary, image = _random_instance(np.random.default_rng(0), h, w, 3)
    if colour is not None:
        image[:] = colour
    return unary, image, CrfParams(w1=w1, w2=w2, theta_alpha=theta, theta_beta=theta, theta_gamma=theta, iterations=4)


@settings(max_examples=150, deadline=None)
@given(_crf_instances())
@example(_instance(1, 1))
@example(_instance(1, 9))
@example(_instance(7, 1))
@example(_instance(6, 8, colour=200))
@example(_instance(6, 8, theta=1e-3))
@example(_instance(6, 8, theta=1e4))
@example(_instance(6, 8, colour=17, theta=1e-3))
@example(_instance(6, 8, w1=0.0))
@example(_instance(6, 8, w2=0.0))
def test_lattice_marginals_are_distributions(instance):
    unary, image, params = instance
    labels, q = mean_field(unary, image, params)
    assert np.all(np.isfinite(q)) and q.min() >= 0.0
    np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-5)
    assert labels.shape == unary.shape[1:]
    assert labels.max() < unary.shape[0]
