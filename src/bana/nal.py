"""Noise-aware loss for training a segmentation head on fused pseudo labels.

Agreement pixels get plain cross-entropy. Disagreement pixels are suspect:
each one is weighted by a confidence score derived from how close its CRF
label's classifier weight is to the pixel's feature, relative to the best
class. Confident pixels keep their full say, dubious ones fade out:

    D_c(p)  = 1 + cos(f(p), W_c)                        in [0, 2]
    sigma(p) = (D_{c*}(p) / max_c D_c(p)) ** gamma       with c* the CRF label

    loss = ce(agreement) + lam * weighted_ce(disagreement, sigma)

The confidence weights are constants for the gradient: letting them vary
would reward the head for inflating its own confidence. The finite
difference checks in the tests therefore pin sigma while probing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clshead import MOMENTUM, WEIGHT_DECAY, ClassifierHead, logits, lr_schedule, softmax, weighted_ce_loss_and_grad
from .core import IGNORE, as_feature_map, bilinear_resize, unit_norm, validate_label_map
from .pseudolabel import FusedLabels


@dataclass
class SegLossReport:
    loss_agree: float  # mean cross-entropy over the agreement region
    loss_disagree: float  # confidence-weighted cross-entropy over the rest
    total: float  # loss_agree + lam * loss_disagree
    n_agree: int
    n_disagree: int
    confidence: np.ndarray | None = None  # the sigma map used; None when no pixel disagrees


def correlation_maps(features: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """(L+1, H, W) map of 1 + cos(f(p), W_c); zero-norm rows/pixels give 1."""
    f = as_feature_map(features)
    if f.shape[0] != head.dim:
        raise ValueError(f"feature channels {f.shape[0]} do not match head dim {head.dim}")
    return 1.0 + np.einsum("kc,chw->khw", unit_norm(head.weights, axis=1), unit_norm(f, axis=0))


def confidence_map(correlations: np.ndarray, y_crf: np.ndarray, gamma: float) -> np.ndarray:
    """(D_{c*} / max_c D_c) ** gamma per pixel, in (0, 1].

    Exactly 1 where the CRF label already attains the per-pixel maximum;
    larger gamma pushes everything else toward 0. The degenerate all-zero
    column (impossible with the +1 offset unless the features misbehave)
    maps to 1.
    """
    d = np.asarray(correlations, dtype=np.float64)
    y = validate_label_map(y_crf, num_classes=d.shape[0] - 1)
    if np.any(y == IGNORE):
        raise ValueError("confidence is undefined for IGNORE labels")
    if y.shape != d.shape[1:]:
        raise ValueError(f"labels {y.shape} do not match correlation maps {d.shape[1:]}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    top = d.max(axis=0)
    own = np.take_along_axis(d, y[None].astype(np.intp), axis=0)[0]
    ratio = np.divide(own, top, out=np.ones_like(top), where=top > 0.0)
    return ratio**gamma


def nal_loss_and_grad(
    features: np.ndarray,
    head: ClassifierHead,
    fused: FusedLabels,
    gamma: float,
    lam: float,
    confidence: np.ndarray | None = None,
) -> tuple[SegLossReport, np.ndarray]:
    """Noise-aware loss over one image and its gradient w.r.t. the head.

    ``confidence`` overrides the weights computed from the current head;
    gradient probes pass a fixed map since the analytic gradient treats the
    weights as constants. The report records the map used.
    """
    f = as_feature_map(features)
    if fused.fused.shape != f.shape[1:]:
        raise ValueError(f"fused labels {fused.fused.shape} do not match feature grid {f.shape[1:]}")
    x = f.reshape(f.shape[0], -1).T  # (HW, C)
    t = fused.y_crf.ravel().astype(np.intp)  # the fused label wherever the maps agree
    # Agreement pixels weigh 1/n each; disagreement pixels sigma / sum(sigma),
    # their loss and gradient scaled by lam.
    losses, grad, sigma = [0.0, 0.0], np.zeros_like(head.weights), None
    for k, (region, factor) in enumerate(((fused.agree, 1.0), (fused.disagree, lam))):
        idx = np.flatnonzero(region.ravel())
        if idx.size == 0:
            continue
        if k == 1:
            sigma = confidence_map(correlation_maps(f, head), fused.y_crf, gamma) if confidence is None else confidence
        weights = np.ones(idx.size) if k == 0 else np.asarray(sigma, dtype=np.float64).ravel()[idx]
        total = weights.sum()
        if total > 0.0:
            losses[k], g = weighted_ce_loss_and_grad(head, x[idx], t[idx], weights / total)
            grad += factor * g

    report = SegLossReport(
        loss_agree=losses[0],
        loss_disagree=losses[1],
        total=losses[0] + lam * losses[1],
        n_agree=int(fused.agree.sum()),
        n_disagree=int(fused.disagree.sum()),
        confidence=sigma,
    )
    return report, grad


def train_seg_head(
    samples: list[tuple[np.ndarray, FusedLabels]],
    num_classes: int,
    *,
    gamma: float,
    lam: float,
    epochs: int,
    lr: float | list[float],
    seed: int,
    confidence_hook=None,
) -> tuple[ClassifierHead, list[float]]:
    """SGD over (features, fused labels) images with the noise-aware loss.

    The head scores by cosine similarity at ClassifierHead's default scale
    of 15, so its weights act as class centers in feature space. Cosine
    gradients are orthogonal to the weight rows and only ever inflate their
    norms, which starves the effective step size; the rows are therefore
    projected back onto the unit sphere after every update (weight decay is
    immaterial then).
    Confidence weights are recomputed from the current weights at every
    step. ``confidence_hook(epoch, index, sigma)``, when given, receives the
    confidence map of each image with disputed pixels once per epoch.
    Deterministic for a fixed seed; returns the head and per-epoch losses.
    """
    if not samples:
        raise ValueError("need at least one training image")
    if not gamma >= 1.0:  # written so that NaN fails too
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    dim = as_feature_map(samples[0][0]).shape[0]
    rng = np.random.default_rng(seed)
    w = unit_norm(rng.normal(0.0, 1e-2, size=(num_classes + 1, dim)), axis=1)
    head = ClassifierHead(weights=w, mode="cosine")
    velocity = np.zeros_like(head.weights)
    schedule = lr_schedule(lr, epochs)

    losses = []
    n = len(samples)
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for i in order:
            features, fused = samples[i]
            report, grad = nal_loss_and_grad(features, head, fused, gamma=gamma, lam=lam)
            if confidence_hook is not None and report.confidence is not None:
                confidence_hook(epoch, int(i), report.confidence)
            epoch_loss += report.total
            velocity = MOMENTUM * velocity - schedule[epoch] * (grad + WEIGHT_DECAY * head.weights)
            head = replace(head, weights=unit_norm(head.weights + velocity, axis=1))
        losses.append(epoch_loss / n)
    return head, losses


def predict_probabilities(features: np.ndarray, head: ClassifierHead, out_h: int, out_w: int) -> np.ndarray:
    """Per-pixel softmax maps, bilinearly upsampled to (out_h, out_w)."""
    f = as_feature_map(features)
    c, h, w = f.shape
    z = logits(head, f.reshape(c, -1).T)
    probs = softmax(z, axis=1).T.reshape(-1, h, w)
    return bilinear_resize(probs, out_h, out_w)


def predict_labels(features: np.ndarray, head: ClassifierHead, out_h: int, out_w: int) -> np.ndarray:
    """Argmax labels of the upsampled probability maps, uint8 (H, W)."""
    return predict_probabilities(features, head, out_h, out_w).argmax(axis=0).astype(np.uint8)
