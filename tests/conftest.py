"""Shared test helpers: the finite-difference and dense-CRF oracles and tiny
instance builders."""

import numpy as np

from bana import crf
from bana.clshead import ClassifierHead

# Largest kernel matrix (entries) the dense CRF oracle will allocate.
DENSE_LIMIT = 25_000_000


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
