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

from dataclasses import dataclass

import numpy as np

from .clshead import (
    ClassifierHead,
    CosineWeights,
    ce_kernel,
    check_lr,
    cosine_weights,
    divergence_guard,
    epoch_order,
    init_head,
    sgd_step,
    softmax,
)
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


@dataclass(frozen=True)
class SegRegion:
    """The pixels of one region (agreement or disagreement) of a training image."""

    idx: np.ndarray  # (n,) flat pixel indices
    rows: np.ndarray  # (n, C) unit_norm(x[idx], axis=1): gathered first, then normalized
    targets: np.ndarray  # (n,) intp CRF labels
    weights: np.ndarray | None  # (n,) 1/n on the agreement region; None where sigma weighs


@dataclass(frozen=True)
class SegSample:
    """One training image of the segmentation head, checked and normalized once.

    Everything here depends on the image alone, so a training step runs only
    the arithmetic that depends on the head.
    """

    fused: FusedLabels
    unit_features: np.ndarray  # (C, H, W) unit_norm(f, axis=0), the features' side of sigma
    agree: SegRegion
    disagree: SegRegion
    max_label: int  # largest CRF label, which the head must be able to score

    @property
    def dim(self) -> int:
        return self.unit_features.shape[0]


def prepare_seg_sample(features: np.ndarray, fused: FusedLabels) -> SegSample:
    """Check a (C, H, W) feature map against its fused labels and gather,
    once, everything a training step reads from them."""
    f = as_feature_map(features)
    if fused.y_crf.shape != f.shape[1:]:
        raise ValueError(f"fused labels {fused.y_crf.shape} do not match feature grid {f.shape[1:]}")
    x = f.reshape(f.shape[0], -1).T  # (HW, C)
    t = fused.y_crf.ravel().astype(np.intp)  # the fused label wherever the maps agree
    regions = []
    agree = fused.agree
    for k, region in enumerate((agree, ~agree)):
        idx = np.flatnonzero(region.ravel())
        weights = np.ones(idx.size) / idx.size if k == 0 and idx.size else None
        regions.append(SegRegion(idx, unit_norm(x[idx], axis=1), t[idx], weights))
    return SegSample(fused, unit_norm(f, axis=0), *regions, max_label=int(t.max()))


def correlation_maps(features: np.ndarray | SegSample, head: ClassifierHead | CosineWeights) -> np.ndarray:
    """(L+1, H, W) map of 1 + cos(f(p), W_c); zero-norm rows/pixels give 1.

    A raw feature map is checked and normalized here; a :class:`SegSample`
    brings its unit features, and the :class:`~bana.clshead.CosineWeights` of
    a training step, whose head fits its sample, bring the unit weight rows, so
    neither is normalized or checked again.
    """
    if isinstance(features, SegSample):
        unit_f = features.unit_features
    else:
        unit_f = unit_norm(as_feature_map(features), axis=0)
    if isinstance(head, ClassifierHead):
        head.check_fits("cosine", unit_f.shape[0], "correlations")
        head = cosine_weights(head.weights, head.scale)
    return 1.0 + np.einsum("kc,chw->khw", head.unit, unit_f)


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
    if not gamma >= 1.0:  # written so that NaN fails too
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    top = d.max(axis=0)
    own = d.reshape(d.shape[0], -1)[y.ravel(), np.arange(y.size)].reshape(y.shape)  # d[y[p], p] per pixel p
    ratio = np.divide(own, top, out=np.ones_like(top), where=top > 0.0)
    return ratio**gamma


def nal_loss_and_grad(
    sample: SegSample,
    head: ClassifierHead,
    gamma: float,
    lam: float,
) -> tuple[SegLossReport, np.ndarray]:
    """Noise-aware loss over one prepared image and its gradient w.r.t. the
    weights of a cosine head.

    ``sample`` comes from :func:`prepare_seg_sample`. The head's unit rows and
    row norms are computed once and shared by sigma and both cross-entropy
    terms (:func:`~bana.clshead.ce_kernel`). The gradient treats the
    confidence weights as constants. The report records the map used.
    """
    head.check_fits("cosine", sample.dim, "the noise-aware loss and its gradient")
    if sample.max_label > head.num_classes:
        raise ValueError(f"CRF label {sample.max_label} is past the head's {head.num_classes} classes")
    w = cosine_weights(head.weights, head.scale)
    # Agreement pixels weigh 1/n each; disagreement pixels sigma / sum(sigma),
    # their loss and gradient scaled by lam.
    losses, grad, sigma = [0.0, 0.0], np.zeros_like(head.weights), None
    agree, disagree = sample.agree, sample.disagree
    if agree.idx.size:
        losses[0], g = ce_kernel(agree.rows, w, agree.targets, agree.weights)
        grad += g
    if disagree.idx.size:
        sigma = confidence_map(correlation_maps(sample, w), sample.fused.y_crf, gamma)
        weights = sigma.ravel()[disagree.idx]
        total = weights.sum()
        if total > 0.0:
            losses[1], g = ce_kernel(disagree.rows, w, disagree.targets, weights / total)
            grad += lam * g

    report = SegLossReport(
        loss_agree=losses[0],
        loss_disagree=losses[1],
        total=losses[0] + lam * losses[1],
        n_agree=agree.idx.size,
        n_disagree=disagree.idx.size,
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
    lr: float,
    seed: int,
    confidence_hook=None,
) -> tuple[ClassifierHead, list[float]]:
    """SGD over (features, fused labels) images with the noise-aware loss, one
    :func:`~bana.clshead.sgd_step` per image at the constant rate ``lr``.

    Each image is checked and prepared once, up front
    (:func:`prepare_seg_sample`), so a step runs only the arithmetic that
    depends on the weights; the trained head is validated once, at the end,
    and an overflow while training is a ValueError
    (:func:`~bana.clshead.divergence_guard`).
    The head scores by cosine similarity at ClassifierHead's default scale
    of 15, so its weights act as class centers in feature space. Cosine
    gradients are orthogonal to the weight rows and only ever inflate their
    norms, which starves the effective step size; the rows are therefore
    projected back onto the unit sphere after every update (weight decay is
    immaterial then).
    Confidence weights are recomputed from the current weights at every
    step. ``confidence_hook(epoch, index, sigma)``, when given, receives the
    confidence map of each image with disputed pixels once per epoch.
    The init is :func:`~bana.clshead.init_head`'s, its rows scaled to unit
    norm, and each epoch visits the images in
    :func:`~bana.clshead.epoch_order`, so the result is deterministic for a
    fixed seed. Returns the head and per-epoch losses.
    """
    if not samples:
        raise ValueError("need at least one training image")
    if not gamma >= 1.0:  # written so that NaN fails too
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    lr = check_lr(lr)
    prepared = [prepare_seg_sample(features, fused) for features, fused in samples]
    w = unit_norm(init_head(num_classes, prepared[0].dim, seed=seed).weights, axis=1)
    # One head for the whole run: each step replaces its rows rather than
    # building and re-validating a new head.
    head = ClassifierHead(weights=w, mode="cosine")
    for i, sample in enumerate(prepared):
        if sample.dim != head.dim or sample.max_label > num_classes:
            raise ValueError(f"training image {i}: {sample.dim} feature channels and CRF labels up to "
                             f"{sample.max_label}, but the head has {head.dim} dims and {num_classes} classes")
    velocity = np.zeros_like(w)

    losses = []
    n = len(prepared)
    with divergence_guard():
        for epoch in range(epochs):
            epoch_loss = 0.0
            for i in epoch_order(n, seed, epoch):
                report, grad = nal_loss_and_grad(prepared[i], head, gamma=gamma, lam=lam)
                if confidence_hook is not None and report.confidence is not None:
                    confidence_hook(epoch, int(i), report.confidence)
                epoch_loss += report.total
                w, velocity = sgd_step(head.weights, velocity, grad, lr)
                head.weights = unit_norm(w, axis=1)
            losses.append(epoch_loss / n)
    return ClassifierHead(weights=head.weights, mode="cosine"), losses


def predict_probabilities(features: np.ndarray, head: ClassifierHead, out_h: int, out_w: int) -> np.ndarray:
    """Per-pixel softmax maps of a cosine head, bilinearly upsampled to (out_h, out_w)."""
    f = as_feature_map(features)
    c, h, w = f.shape
    head.check_fits("cosine", c, "predictions")
    z = head.scale * (unit_norm(f.reshape(c, -1).T, axis=1) @ unit_norm(head.weights, axis=1).T)
    probs = softmax(z, axis=1).T.reshape(-1, h, w)
    return bilinear_resize(probs, out_h, out_w)


def predict_labels(features: np.ndarray, head: ClassifierHead, out_h: int, out_w: int) -> np.ndarray:
    """Argmax labels of the upsampled probability maps, uint8 (H, W)."""
    return predict_probabilities(features, head, out_h, out_w).argmax(axis=0).astype(np.uint8)
