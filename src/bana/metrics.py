"""Segmentation metrics: confusion matrix, per-class IoU, mIoU, pixel accuracy."""

from __future__ import annotations

import numpy as np

from .core import IGNORE, validate_label_map


def confusion(pred: np.ndarray, ref: np.ndarray, num_classes: int) -> np.ndarray:
    """(L+1, L+1) counts with rows = reference class, columns = prediction.

    Reference pixels marked IGNORE are skipped; the prediction must not
    contain IGNORE. Matrices from different images add up, so they can be
    accumulated in any order.
    """
    p = validate_label_map(pred, num_classes)
    r = validate_label_map(ref, num_classes)
    if p.shape != r.shape:
        raise ValueError(f"prediction {p.shape} and reference {r.shape} differ in shape")
    if np.any(p == IGNORE):
        raise ValueError("prediction contains IGNORE pixels")
    keep = r != IGNORE
    n = num_classes + 1
    flat = r[keep].astype(np.int64) * n + p[keep].astype(np.int64)
    return np.bincount(flat, minlength=n * n).reshape(n, n)


def iou_per_class(cm: np.ndarray) -> np.ndarray:
    """IoU per class; NaN where the class occurs in neither map."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, tp / union, np.nan)


def miou(cm: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean IoU over classes with nonzero union, plus the per-class vector."""
    per_class = iou_per_class(cm)
    valid = ~np.isnan(per_class)
    if not valid.any():
        raise ValueError("all classes have zero union; mIoU is undefined")
    return float(per_class[valid].mean()), per_class


def pixel_accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    return float(np.diag(cm).sum() / total) if total > 0 else float("nan")


def score(cm: np.ndarray) -> dict:
    """The JSON report of a confusion matrix: mIoU, per-class IoU (None for
    classes absent from both maps) and pixel accuracy."""
    mean_iou, per_class = miou(cm)
    return {
        "miou": mean_iou,
        "per_class_iou": [None if np.isnan(v) else float(v) for v in per_class],
        "pixel_accuracy": pixel_accuracy(cm),
    }
