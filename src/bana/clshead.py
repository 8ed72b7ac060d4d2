"""(L+1)-way softmax classifier head with hand-derived gradients.

The head is a plain weight matrix, one row per class (row 0 = background),
of one of two kinds. A dot head scores by dot products: it is the
classification head, trained by :func:`sgd_train` on background-aware-pooled
box features, and its per-pixel class evidence maps (:func:`cam`,
ReLU(f(p) . w_c) over the raw weights) feed the CRF unary. A cosine head
scores by scaled cosine similarity: it is the segmentation head, trained and
applied by :mod:`bana.nal`. Each function that trains or applies a head
takes one kind and rejects the other. Cross-entropy gradients
(:func:`ce_loss_and_grad`, for either kind) are computed analytically --
including the normalization Jacobian for a cosine head -- and are checked
against finite differences in the tests.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import MAX_CLASSES, as_feature_map, unit_norm
from . import fileio

MODES = ("dot", "cosine")
# SGD settings of both heads.
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
# The classification head's learning rate drops tenfold from this epoch on.
LR_DROP_EPOCH = 40
# Samples per step of the classification head (the segmentation head steps
# once per image).
BATCH_SIZE = 32


@dataclass
class ClassifierHead:
    weights: np.ndarray  # (L+1, C) float64
    mode: str = "dot"
    scale: float = 15.0  # cosine-mode logit scale

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or not 1 <= self.weights.shape[0] - 1 <= MAX_CLASSES:
            raise ValueError(f"weights must be (L+1, C) with 1 <= L <= {MAX_CLASSES}, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights contain non-finite values")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.scale > 0.0:  # written so that NaN fails too
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def num_classes(self) -> int:
        """Number of object classes L (excluding the background row)."""
        return self.weights.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def check_fits(self, mode: str, channels: int, use: str) -> None:
        """The one rule for applying a head to features: it is a ``mode`` head that scores
        ``channels``-channel features. ``use``, a plural noun, names what needs it."""
        if self.mode != mode:
            role = {"dot": "classification", "cosine": "segmentation"}[mode]
            raise ValueError(f"{use} need a {mode} head (the {role} head), got a {self.mode!r} head")
        if channels != self.dim:
            raise ValueError(f"feature channels {channels} do not match head dim {self.dim}")


def init_head(num_classes: int, dim: int, *, seed: int) -> ClassifierHead:
    """Gaussian init (zero mean, std 1e-2) of an (L+1, C) dot-product head,
    drawn from the stream keyed ``(seed, INIT)``."""
    normals = keyed_normals((num_classes + 1) * dim, seed, INIT)
    return ClassifierHead(weights=1e-2 * normals.reshape(num_classes + 1, dim))


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    # The max is exact in any order, so it is taken over a copy with ``axis``
    # leading: numpy reduces along a short trailing axis, such as the
    # classes of an (n, L+1) batch, several times slower.
    top = np.swapaxes(z, axis, 0).copy().max(axis=0, keepdims=True).swapaxes(0, axis)
    e = np.exp(z - top)
    e /= e.sum(axis=axis, keepdims=True)
    return e


class CosineWeights(NamedTuple):
    """A cosine head's weight-side factors, computed once per step and shared
    by every term scored against the same weights."""

    unit: np.ndarray  # (L+1, C) unit weight rows
    inv: np.ndarray  # (L+1,) scale / |w_c|, 0 for a zero row
    scale: float


def cosine_weights(weights: np.ndarray, scale: float) -> CosineWeights:
    """The :class:`CosineWeights` of raw (L+1, C) weights at logit scale ``scale``."""
    norms = np.linalg.norm(weights, axis=1)
    inv = np.divide(scale, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return CosineWeights(unit_norm(weights, axis=1), inv, scale)


def ce_kernel(
    rows: np.ndarray, w: np.ndarray | CosineWeights, t: np.ndarray, sw: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sum_i sw_i * (-log softmax(z_i)[t_i]) and its weight gradient, on checked inputs.

    ``w`` is the raw weight matrix of a dot head, with ``rows`` the raw
    features, or the :class:`CosineWeights` of a cosine head, with ``rows``
    the unit features ``unit_norm(x, axis=1)``. ``t`` holds intp targets.
    """
    if isinstance(w, CosineWeights):
        cos = rows @ w.unit.T  # (n, L+1)
        z = w.scale * cos
    else:
        z = rows @ w.T
    p = softmax(z, axis=1)
    picked = (np.arange(rows.shape[0]), t)
    loss = float(-(sw * np.log(np.maximum(p[picked], 1e-300))).sum())

    dz = p
    dz[picked] -= 1.0
    dz *= sw[:, None]  # (n, L+1)
    if not isinstance(w, CosineWeights):
        return loss, dz.T @ rows
    # d logit_c / d w_c = s / |w_c| * (xhat - cos * what_c)
    term1 = dz.T @ rows  # (L+1, C)
    term2 = (dz * cos).sum(axis=0)[:, None] * w.unit
    return loss, w.inv[:, None] * (term1 - term2)


def _check_batch(head: ClassifierHead, x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a float64 (n, C) batch and ``targets`` as intp, if they fit ``head``."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(targets, dtype=np.intp)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a nonempty (n, C) batch")
    if t.shape != (x.shape[0],):
        raise ValueError("targets must be 1-D of batch length")
    if t.min() < 0 or t.max() > head.num_classes:
        raise ValueError(f"targets must lie in [0, {head.num_classes}]")
    if x.shape[1] != head.dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match head dim {head.dim}")
    return x, t


def ce_loss_and_grad(head: ClassifierHead, x: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the weights.

    The gradient is exact for both scoring modes; in cosine mode it includes
    the Jacobian of the weight normalization. Checks its inputs, then runs
    :func:`ce_kernel`.
    """
    x, t = _check_batch(head, x, targets)
    if head.mode == "dot":
        rows, w = x, head.weights
    else:
        rows, w = unit_norm(x, axis=1), cosine_weights(head.weights, head.scale)
    return ce_kernel(rows, w, t, np.ones(len(t)) / len(t))


def check_lr(lr: float) -> float:
    """``lr`` as a float, if it is finite and > 0."""
    lr = float(lr)
    if not 0.0 < lr < np.inf:  # written so that NaN fails too
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    return lr


@contextlib.contextmanager
def divergence_guard():
    """Turn a numpy overflow or invalid value inside a training loop into a
    ValueError: weights that stop being finite mean the settings diverge."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise ValueError(f"training diverged: numpy reported {str(e)!r}") from None


def sgd_step(w: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step with momentum and L2 weight decay, the update rule of both
    heads; returns the new weights and velocity."""
    velocity = MOMENTUM * velocity - lr * (grad + WEIGHT_DECAY * w)
    return w + velocity, velocity


# ---------------------------------------------------------------------------
# keyed draws: both heads' init and epoch order
# ---------------------------------------------------------------------------
# Draw i of the stream keyed (k_1, ..., k_m) is SplitMix64's output
# finalise(start + (i + 1) * GOLDEN), where start chains the finaliser over
# the key parts (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
# Generators", OOPSLA 2014). Unlike numpy.random, it loads nothing (numpy.random
# maps hashlib and OpenSSL's libcrypto, about 6 MB, into every process that
# loads it), and its bits follow no numpy version's stream policy.
_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # the finaliser's multipliers
_MASK64 = (1 << 64) - 1
# The key part after the seed that tells a head's init stream from its
# per-epoch order streams.
INIT, ORDER = 0, 1


def _finalise(z: int | np.ndarray) -> int | np.ndarray:
    """SplitMix64's finaliser of a Python int in [0, 2**64), or in place of a
    uint64 array, whose products wrap so that the masks leave it as it is."""
    z ^= z >> 30
    z *= _M1
    z &= _MASK64
    z ^= z >> 27
    z *= _M2
    z &= _MASK64
    z ^= z >> 31
    return z


def keyed_bits(n: int, *key: int) -> np.ndarray:
    """Draws 0..n-1, as uint64, of the stream keyed by the ints ``key``, each
    in [0, 2**64). The key is mixed by a chain of bijections, so keys of one
    length start distinct streams, and in Python ints, so no numpy scalar
    overflow can trip :func:`divergence_guard`."""
    start = 0
    for part in key:
        part = operator.index(part)
        if not 0 <= part <= _MASK64:
            raise ValueError(f"key parts must lie in [0, 2**64), got {part}")
        start = _finalise((start + _GOLDEN + part) & _MASK64)
    counters = np.arange(1, n + 1, dtype=np.uint64)
    counters *= _GOLDEN
    counters += start
    return _finalise(counters)


def uniforms(bits: np.ndarray) -> np.ndarray:
    """The uint64 draws ``bits`` as floats ((bits >> 12) + 0.5) * 2**-52, in the
    open interval (0, 1): with 52 bits the half-step sum is exact."""
    return ((bits >> 12) + 0.5) * 2.0**-52


def keyed_normals(n: int, *key: int) -> np.ndarray:
    """n standard normal draws of the stream keyed by ``key``: Box–Muller's
    cosine branch on consecutive pairs of :func:`uniforms`, through :mod:`math`
    so that no SIMD dispatch can change their bits."""
    u = uniforms(keyed_bits(2 * n, *key)).tolist()
    return np.array([math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b) for a, b in zip(u[::2], u[1::2])])


def epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    """The order in which epoch ``epoch`` visits n samples: a permutation of
    range(n), from the stream keyed ``(seed, ORDER, epoch)``."""
    return np.argsort(keyed_bits(n, seed, ORDER, epoch), kind="stable")


def sgd_train(
    head: ClassifierHead,
    x: np.ndarray,
    targets: np.ndarray,
    *,
    epochs: int,
    lr: float,
    seed: int,
) -> tuple[ClassifierHead, list[float]]:
    """Minibatch SGD with momentum and L2 weight decay of a dot-product head,
    in batches of ``BATCH_SIZE`` samples, at rate ``lr`` and a tenth of it
    from epoch ``LR_DROP_EPOCH`` on. A cosine head is trained by
    :func:`bana.nal.train_seg_head`.

    ``x`` and ``targets`` are checked once, up front; each step then gathers
    its batch and runs :func:`ce_kernel` and :func:`sgd_step` on the current
    weights, and the trained head is validated once, at the end. An overflow
    while training is a ValueError (:func:`divergence_guard`). The input
    head is left untouched; a trained copy and the per-epoch mean losses are
    returned. Each epoch visits the samples in :func:`epoch_order`, so a
    fixed seed implies an identical result on every run.
    """
    if head.mode != "dot":
        raise ValueError(f"sgd_train trains dot heads, got a {head.mode!r} head; use nal.train_seg_head")
    x, t = _check_batch(head, x, targets)
    lr = check_lr(lr)
    w = head.weights.copy()
    velocity = np.zeros_like(w)
    losses = []
    n = x.shape[0]
    with divergence_guard():
        for epoch in range(epochs):
            rate = lr if epoch < LR_DROP_EPOCH else lr / 10.0
            order = epoch_order(n, seed, epoch)
            epoch_loss = 0.0
            for start in range(0, n, BATCH_SIZE):
                idx = order[start : start + BATCH_SIZE]
                loss, grad = ce_kernel(x[idx], w, t[idx], np.ones(len(idx)) / len(idx))
                epoch_loss += loss * len(idx)
                w, velocity = sgd_step(w, velocity, grad, rate)
            losses.append(epoch_loss / n)
    return replace(head, weights=w), losses


def cam(features: np.ndarray, head: ClassifierHead, class_id: int) -> np.ndarray:
    """Class evidence map ReLU(f(p) . w_c) over raw weights, shape (H, W).

    Only object classes are supported; the background channel is handled by
    the attention map instead, because a background evidence map would just
    highlight whatever occurs most often in training.
    """
    f = as_feature_map(features)
    head.check_fits("dot", f.shape[0], "class evidence maps")
    if not (1 <= class_id <= head.num_classes):
        raise ValueError(f"class_id must be in [1, {head.num_classes}], got {class_id}")
    return np.maximum(np.einsum("chw,c->hw", f, head.weights[class_id]), 0.0)


# ---------------------------------------------------------------------------
# persistence: rank-2 .btf weights plus a JSON sidecar
# ---------------------------------------------------------------------------


def save_head(path: str | os.PathLike, head: ClassifierHead) -> None:
    """Write weights as (L+1, C) .btf and {mode, scale, L, C} as sidecar JSON."""
    path = Path(path)
    fileio.write_tensor(path, head.weights)
    meta = {"mode": head.mode, "scale": head.scale, "num_classes": head.num_classes, "dim": head.dim}
    sidecar = path.with_suffix(path.suffix + ".json")
    fileio.write_text(sidecar, json.dumps(meta, indent=2, sort_keys=True) + "\n")


# Sidecar fields and their exact JSON types (so bool, a subclass of int, fails).
_SIDECAR_FIELDS = {"num_classes": (int,), "dim": (int,), "mode": (str,), "scale": (int, float)}


def load_head(path: str | os.PathLike) -> ClassifierHead:
    path = Path(path)
    w = fileio.read_tensor(path, expected_rank=2)
    sidecar = path.with_suffix(path.suffix + ".json")
    meta = fileio.read_json(sidecar, _SIDECAR_FIELDS)
    if w.shape != (meta["num_classes"] + 1, meta["dim"]):
        raise fileio.FileFormatError(
            f"{path}: weight shape {w.shape} does not match sidecar "
            f"(num_classes={meta['num_classes']}, dim={meta['dim']})"
        )
    try:
        return ClassifierHead(weights=w, mode=meta["mode"], scale=float(meta["scale"]))
    except OverflowError:  # a JSON int past float range
        raise fileio.FileFormatError(f"{sidecar}: scale {meta['scale']} is past float range") from None
    except ValueError as e:  # read_tensor passes only finite weights: the sidecar's L, mode or scale is bad
        raise fileio.FileFormatError(f"{sidecar}: {e}") from None
