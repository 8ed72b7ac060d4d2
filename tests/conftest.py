"""Shared test helpers: the finite-difference, dense-CRF and step-by-step
training oracles, tiny instance builders and the ``count_reads`` fixture."""

import collections
import functools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bana import crf, fileio
from bana.clshead import (
    BATCH_SIZE,
    LR_DROP_EPOCH,
    ClassifierHead,
    ce_kernel,
    ce_loss_and_grad,
    cosine_weights,
    epoch_order,
    init_head,
    sgd_step,
)
from bana.core import as_feature_map, unit_norm
from bana.nal import confidence_map, correlation_maps
from bana.pseudolabel import fuse_labels

# Largest kernel matrix (entries) the dense CRF oracle will allocate.
DENSE_LIMIT = 25_000_000


@pytest.fixture
def count_reads(monkeypatch):
    """A Counter of the files every ``fileio.read_*`` reader reads from now on,
    keyed by (directory name, suffix). A read inside another reader (the JSON
    that ``read_boxes`` parses) is not counted again."""
    counts, depth = collections.Counter(), [0]

    def counted(read):
        @functools.wraps(read)
        def wrapper(path, *args, **kwargs):
            if depth[0] == 0:
                counts[Path(path).parent.name, Path(path).suffix] += 1
            depth[0] += 1
            try:
                return read(path, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in [name for name in vars(fileio) if name.startswith("read_")]:
        monkeypatch.setattr(fileio, name, counted(getattr(fileio, name)))
    return counts


def finite_difference_grad(loss_fn, weights: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar loss over a weight matrix."""
    grad = np.zeros_like(weights)
    it = np.nditer(weights, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = weights.copy()
        minus = weights.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
        it.iternext()
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the maximum."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def random_head(rng: np.random.Generator, num_classes: int, dim: int, mode: str) -> ClassifierHead:
    w = rng.normal(0.0, 1.0, size=(num_classes + 1, dim))
    return ClassifierHead(weights=w, mode=mode, scale=7.5)


def kernel_matrix(image: np.ndarray, params: crf.CrfParams) -> np.ndarray:
    """Full (HW, HW) CRF pairwise kernel with a zeroed diagonal."""
    pos, col = crf._pixel_features(image)
    n = pos.shape[0]
    inv_a = 1.0 / (2.0 * params.theta_alpha**2)
    inv_b = 1.0 / (2.0 * params.theta_beta**2)
    inv_g = 1.0 / (2.0 * params.theta_gamma**2)
    k = np.empty((n, n), dtype=np.float64)
    block = max(1, (4 << 20) // max(n, 1))
    for s in range(0, n, block):
        e = min(n, s + block)
        # Per-coordinate outer differences, summed in coordinate order. A zero
        # weight's term is skipped: it would add exact zeros.
        dpos = (pos[s:e, None, 0] - pos[None, :, 0]) ** 2 + (pos[s:e, None, 1] - pos[None, :, 1]) ** 2
        k[s:e] = params.w2 * np.exp(-dpos * inv_g)
        if params.w1 > 0.0:
            dcol = (col[s:e, None, 0] - col[None, :, 0]) ** 2
            dcol += (col[s:e, None, 1] - col[None, :, 1]) ** 2
            dcol += (col[s:e, None, 2] - col[None, :, 2]) ** 2
            k[s:e] += params.w1 * np.exp(-dpos * inv_a - dcol * inv_b)
    np.fill_diagonal(k, 0.0)
    return k


def dense_mean_field(unary: np.ndarray, image: np.ndarray, params: crf.CrfParams) -> tuple[np.ndarray, np.ndarray]:
    """``crf.mean_field`` with exact O((HW)^2) messages over the full kernel
    matrix: the oracle for the lattice engine on small images."""
    u = np.asarray(unary, dtype=np.float64)
    nl, h, w = u.shape
    if (h * w) ** 2 > DENSE_LIMIT:
        raise ValueError(f"the dense oracle would need a {h * w}x{h * w} kernel")
    psi = crf._unary_potentials(u)
    k = kernel_matrix(image, params)
    q = crf._update(psi, np.zeros_like(psi))
    for _ in range(params.iterations):
        q = crf._update(psi, (q.reshape(nl, -1) @ k).reshape(nl, h, w))
    return q.argmax(axis=0).astype(np.uint8), q


def _stepwise_nal_loss_and_grad(features, head, fused, gamma, lam):
    """The noise-aware loss of one image as each step used to compute it,
    re-checking and re-normalizing the image: (total loss, sigma, gradient)."""
    f = as_feature_map(features)
    x = f.reshape(f.shape[0], -1).T
    t = fused.y_crf.ravel().astype(np.intp)
    w = cosine_weights(head.weights, head.scale)
    losses, grad, sigma = [0.0, 0.0], np.zeros_like(head.weights), None
    for k, (region, factor) in enumerate(((fused.agree, 1.0), (~fused.agree, lam))):
        idx = np.flatnonzero(region.ravel())
        if idx.size == 0:
            continue
        if k == 1:
            sigma = confidence_map(correlation_maps(f, head), fused.y_crf, gamma)
        weights = np.ones(idx.size) if k == 0 else sigma.ravel()[idx]
        total = weights.sum()
        if total > 0.0:
            losses[k], g = ce_kernel(unit_norm(x[idx], axis=1), w, t[idx], weights / total)
            grad += factor * g
    return losses[0] + lam * losses[1], sigma, grad


def stepwise_train_seg_head(samples, num_classes, *, gamma, lam, epochs, lr, seed, confidence_hook=None):
    """``nal.train_seg_head`` step by step over (features, fused) pairs, each
    step building and validating a new head: the oracle for the prepared loop."""
    dim = as_feature_map(samples[0][0]).shape[0]
    w = unit_norm(init_head(num_classes, dim, seed=seed).weights, axis=1)
    head = ClassifierHead(weights=w, mode="cosine")
    velocity = np.zeros_like(head.weights)
    losses = []
    for epoch in range(epochs):
        epoch_loss = 0.0
        for i in epoch_order(len(samples), seed, epoch):
            features, fused = samples[i]
            total, sigma, grad = _stepwise_nal_loss_and_grad(features, head, fused, gamma, lam)
            if confidence_hook is not None and sigma is not None:
                confidence_hook(epoch, int(i), sigma)
            epoch_loss += total
            w, velocity = sgd_step(head.weights, velocity, grad, lr)
            head = replace(head, weights=unit_norm(w, axis=1))
        losses.append(epoch_loss / len(samples))
    return head, losses


def stepwise_sgd_train(head, x, targets, *, epochs, lr, seed):
    """``clshead.sgd_train`` with every batch checked on its own and a new
    head built per step: the oracle for the prepared loop."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(targets, dtype=np.intp)
    w = head.weights.copy()
    velocity = np.zeros_like(w)
    losses = []
    n = x.shape[0]
    for epoch in range(epochs):
        rate = lr if epoch < LR_DROP_EPOCH else lr / 10.0
        order = epoch_order(n, seed, epoch)
        epoch_loss = 0.0
        cur = replace(head, weights=w)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            loss, grad = ce_loss_and_grad(cur, x[idx], t[idx])
            epoch_loss += loss * len(idx)
            w, velocity = sgd_step(w, velocity, grad, rate)
            cur = replace(head, weights=w)
        losses.append(epoch_loss / n)
    return replace(head, weights=w), losses


def boundary_noise_instance(n_images=12, noise_frac=0.2, feature_noise=0.35):
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
