"""Prototype retrieval labels, label fusion, and the filling-rate diagnostic.

CRF labels delineate boundaries from low-level color cues; a second label
map built from the high-level features complements them: the mean feature
of each class under the CRF labels acts as a prototype, every pixel is
scored by cosine similarity against all prototypes, and the argmax gives
the retrieval labels. Pixels where the two maps agree form the trusted
region; disagreements are marked IGNORE in the fused map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import IGNORE, BoxSet, as_feature_map, bilinear_resize, label_classes, unit_norm, validate_label_map


@dataclass
class FusedLabels:
    """Both pseudo-label maps of one image. The trusted region is derived from
    them on each read; the fused map on the first read, then kept."""

    y_crf: np.ndarray  # (H, W) uint8
    y_ret: np.ndarray  # (H, W) uint8

    @property
    def agree(self) -> np.ndarray:
        """(H, W) bool: where the two maps agree."""
        return self.y_crf == self.y_ret

    @cached_property
    def fused(self) -> np.ndarray:
        """(H, W) uint8: the agreed label, IGNORE where the maps disagree."""
        return np.where(self.agree, self.y_crf, IGNORE)


def extract_prototypes(features: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Mean feature vector per class over its labeled locations.

    ``labels`` must be at feature resolution (downsample with
    ``core.nearest_resize`` first). IGNORE pixels contribute nothing, and
    classes without support are absent from the result; an empty dict means
    every pixel was IGNORE.
    """
    f = as_feature_map(features)
    y = validate_label_map(labels)
    if y.shape != f.shape[1:]:
        raise ValueError(f"labels {y.shape} do not match feature grid {f.shape[1:]}")
    protos: dict[int, np.ndarray] = {}
    for c in label_classes(y):
        protos[c] = f[:, y == c].mean(axis=1)
    return protos


def retrieval_labels(
    features: np.ndarray, prototypes: dict[int, np.ndarray], out_h: int, out_w: int
) -> np.ndarray:
    """Nearest-prototype labels by cosine similarity, at (out_h, out_w).

    The per-class correlation maps are bilinearly upsampled to the target
    resolution before the argmax; ties (including zero-norm feature vectors,
    whose cosine is defined as 0) resolve to the lowest class id.
    """
    if not prototypes:
        raise ValueError("need at least one prototype")
    f = as_feature_map(features)
    c, h, w = f.shape
    classes = sorted(prototypes)
    protos = np.stack([np.asarray(prototypes[k], dtype=np.float64) for k in classes])
    if protos.shape[1] != c:
        raise ValueError(f"prototype dim {protos.shape[1]} does not match feature channels {c}")

    corr = np.einsum("kc,chw->khw", unit_norm(protos, axis=1), unit_norm(f, axis=0))
    corr = bilinear_resize(corr, out_h, out_w)
    best = corr.argmax(axis=0)  # first (lowest) index wins ties
    return np.asarray(classes, dtype=np.uint8)[best]


def fuse_labels(y_crf: np.ndarray, y_ret: np.ndarray) -> FusedLabels:
    """Keep pixels where both maps agree; mark the rest IGNORE."""
    a = validate_label_map(y_crf)
    b = validate_label_map(y_ret)
    if a.shape != b.shape:
        raise ValueError(f"label maps differ in shape: {a.shape} vs {b.shape}")
    return FusedLabels(y_crf=a, y_ret=b)


def filling_rate(labels: np.ndarray, boxes: BoxSet) -> list[float]:
    """Per box: fraction of its pixels labeled with the box class.

    IGNORE pixels count toward the denominator, so a box full of unreliable
    labels scores 0. Order matches ``boxes.boxes``.
    """
    y = validate_label_map(labels)
    if y.shape != (boxes.image_height, boxes.image_width):
        raise ValueError(
            f"labels {y.shape} do not match box frame "
            f"({boxes.image_height}, {boxes.image_width})"
        )
    rates = []
    for b in boxes.boxes:
        patch = y[b.slices()]
        rates.append(float(np.count_nonzero(patch == b.class_id) / patch.size))
    return rates
