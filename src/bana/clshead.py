"""(L+1)-way softmax classifier head with hand-derived gradients.

The head is a plain weight matrix, one row per class (row 0 = background),
scored either by dot products or by scaled cosine similarity. Cross-entropy
gradients are computed analytically -- including the normalization Jacobian
in cosine mode -- and are checked against finite differences in the tests.

The same head type doubles as the segmentation head: per-pixel class
evidence maps are ReLU(f(p) . w_c) over the raw (unnormalized) weights.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

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


def init_head(num_classes: int, dim: int, *, seed: int) -> ClassifierHead:
    """Gaussian init (zero mean, std 1e-2) of an (L+1, C) dot-product head."""
    rng = np.random.default_rng(seed)
    return ClassifierHead(weights=rng.normal(0.0, 1e-2, size=(num_classes + 1, dim)))


def logits(head: ClassifierHead, x: np.ndarray) -> np.ndarray:
    """Class scores for one (C,) vector or a batch (n, C)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None]
    if x.shape[1] != head.dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match head dim {head.dim}")
    if head.mode == "dot":
        z = x @ head.weights.T
    else:
        z = head.scale * (unit_norm(x, axis=1) @ unit_norm(head.weights, axis=1).T)
    return z[0] if single else z


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def weighted_ce_loss_and_grad(
    head: ClassifierHead, x: np.ndarray, targets: np.ndarray, sample_weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sum_i w_i * (-log softmax(logits(x_i))[t_i]) and its weight gradient.

    The caller chooses the normalization through ``sample_weights``; passing
    1/n gives the plain mean cross-entropy. The gradient is exact for both
    scoring modes; in cosine mode it includes the Jacobian of the weight
    normalization.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(targets, dtype=np.intp)
    sw = np.asarray(sample_weights, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a nonempty (n, C) batch")
    if t.shape != (x.shape[0],) or sw.shape != (x.shape[0],):
        raise ValueError("targets and sample_weights must be 1-D of batch length")
    if t.min() < 0 or t.max() > head.num_classes:
        raise ValueError(f"targets must lie in [0, {head.num_classes}]")
    if x.shape[1] != head.dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match head dim {head.dim}")

    # The logits of :func:`logits`, keeping the cosine factors for the gradient.
    if head.mode == "dot":
        z = x @ head.weights.T
    else:
        xhat = unit_norm(x, axis=1)
        what = unit_norm(head.weights, axis=1)
        cos = xhat @ what.T  # (n, L+1)
        z = head.scale * cos
    p = softmax(z, axis=1)
    n = x.shape[0]
    loss = float(-(sw * np.log(np.maximum(p[np.arange(n), t], 1e-300))).sum())

    dz = p.copy()
    dz[np.arange(n), t] -= 1.0
    dz *= sw[:, None]  # (n, L+1)

    if head.mode == "dot":
        grad = dz.T @ x
    else:
        wnorm = np.linalg.norm(head.weights, axis=1)
        # d logit_c / d w_c = s / |w_c| * (xhat - cos * what_c)
        term1 = dz.T @ xhat  # (L+1, C)
        term2 = (dz * cos).sum(axis=0)[:, None] * what
        inv = np.divide(head.scale, wnorm, out=np.zeros_like(wnorm), where=wnorm > 0.0)
        grad = inv[:, None] * (term1 - term2)
    return loss, grad


def ce_loss_and_grad(head: ClassifierHead, x: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the weights."""
    n = len(x)
    return weighted_ce_loss_and_grad(head, x, targets, np.ones(n) / n)


def check_lr(lr: float) -> float:
    """``lr`` as a float, if it is finite and > 0."""
    lr = float(lr)
    if not 0.0 < lr < np.inf:  # written so that NaN fails too
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    return lr


def sgd_step(w: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step with momentum and L2 weight decay, the update rule of both
    heads; returns the new weights and velocity."""
    velocity = MOMENTUM * velocity - lr * (grad + WEIGHT_DECAY * w)
    return w + velocity, velocity


def sgd_train(
    head: ClassifierHead,
    x: np.ndarray,
    targets: np.ndarray,
    *,
    epochs: int,
    lr: float,
    seed: int,
) -> tuple[ClassifierHead, list[float]]:
    """Minibatch SGD with momentum and L2 weight decay, in batches of
    ``BATCH_SIZE`` samples, at rate ``lr`` and a tenth of it from epoch
    ``LR_DROP_EPOCH`` on.

    The input head is left untouched; a trained copy and the per-epoch mean
    losses are returned. Fixed seed implies an identical result on every run.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(targets, dtype=np.intp)
    lr = check_lr(lr)
    rng = np.random.default_rng(seed)
    w = head.weights.copy()
    velocity = np.zeros_like(w)
    losses = []
    n = x.shape[0]
    for epoch in range(epochs):
        rate = lr if epoch < LR_DROP_EPOCH else lr / 10.0
        order = rng.permutation(n)
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


def accuracy(head: ClassifierHead, x: np.ndarray, targets: np.ndarray) -> float:
    pred = np.argmax(logits(head, np.asarray(x, dtype=np.float64)), axis=1)
    return float(np.mean(pred == np.asarray(targets)))


def cam(features: np.ndarray, head: ClassifierHead, class_id: int) -> np.ndarray:
    """Class evidence map ReLU(f(p) . w_c) over raw weights, shape (H, W).

    Only object classes are supported; the background channel is handled by
    the attention map instead, because a background evidence map would just
    highlight whatever occurs most often in training.
    """
    f = as_feature_map(features)
    if not (1 <= class_id <= head.num_classes):
        raise ValueError(f"class_id must be in [1, {head.num_classes}], got {class_id}")
    if f.shape[0] != head.dim:
        raise ValueError(f"feature channels {f.shape[0]} do not match head dim {head.dim}")
    return np.maximum(np.einsum("chw,c->hw", f, head.weights[class_id]), 0.0)


# ---------------------------------------------------------------------------
# persistence: rank-2 .btf weights plus a JSON sidecar
# ---------------------------------------------------------------------------


def save_head(path: str | os.PathLike, head: ClassifierHead) -> None:
    """Write weights as (L+1, C) .btf and {mode, scale, L, C} as sidecar JSON."""
    path = Path(path)
    fileio.write_tensor(path, head.weights.astype(np.float32))
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
    return ClassifierHead(weights=w.astype(np.float64), mode=meta["mode"], scale=float(meta["scale"]))
