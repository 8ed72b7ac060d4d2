"""Self-contained synthetic corpus: images, boxes, ground truth, features.

Each image carries a few non-overlapping colored shapes (rectangles and
disks) on a textured background, with tight bounding boxes and a pixel-level
ground-truth mask. The matching feature map mimics a CNN's penultimate
layer at a lower resolution: every class (and the background) owns a fixed
unit direction in feature space, each feature cell averages the directions
of the pixels it covers, and Gaussian noise is added on top. Background
cells therefore look alike across the image, foreground cells cluster by
class, and cells straddling a boundary are ambiguous mixtures -- the regime
the label-generation pipeline is built for.

Generation is fully determined by the seed.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .core import MAX_CLASSES, BBox, BoxSet, label_classes
from . import fileio

# Base colors: background, then object classes (repeats after 6).
_BG_COLOR = np.array([96, 108, 122], dtype=np.float64)
_CLASS_COLORS = np.array(
    [
        [196, 64, 48],
        [56, 160, 72],
        [220, 190, 60],
        [70, 90, 200],
        [190, 80, 180],
        [80, 190, 190],
    ],
    dtype=np.float64,
)
# Smallest image side: each slot of the 2x2 partition must hold a shape of at
# least 3x3 pixels one pixel in from its edge.
MIN_SIZE = 8
# Standard deviation of the Gaussian noise on every feature value.
FEATURE_NOISE = 0.22


def _class_directions(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(L+1, dim) orthonormal rows: one feature-space direction per class."""
    if dim < num_classes + 1:
        raise ValueError(f"feature dim {dim} must be >= num_classes + 1 = {num_classes + 1}")
    q, _ = np.linalg.qr(rng.normal(size=(dim, num_classes + 1)))
    basis = q.T[: num_classes + 1]
    # Fix the QR sign ambiguity so corpora are reproducible across BLAS builds.
    signs = np.sign(basis[np.arange(num_classes + 1), np.argmax(np.abs(basis), axis=1)])
    return basis * signs[:, None]


def _draw_shape(gt: np.ndarray, rng: np.random.Generator, slot: tuple[int, int, int, int], class_id: int) -> BBox:
    """Paint one random shape inside the slot; returns its tight box."""
    y0, x0, y1, x1 = slot
    sh, sw = y1 - y0, x1 - x0
    h = int(rng.integers(max(3, int(0.4 * sh)), max(4, int(0.8 * sh))))
    w = int(rng.integers(max(3, int(0.4 * sw)), max(4, int(0.8 * sw))))
    ty = y0 + int(rng.integers(1, max(2, sh - h)))
    tx = x0 + int(rng.integers(1, max(2, sw - w)))
    if rng.random() < 0.5:
        gt[ty : ty + h, tx : tx + w] = class_id
        return BBox(class_id, tx, ty, tx + w, ty + h)
    yy, xx = np.mgrid[0 : gt.shape[0], 0 : gt.shape[1]]
    cy, cx = ty + h / 2.0, tx + w / 2.0
    mask = ((yy - cy) / (h / 2.0)) ** 2 + ((xx - cx) / (w / 2.0)) ** 2 <= 1.0
    gt[mask] = class_id
    ys, xs = np.nonzero(mask)
    return BBox(class_id, int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def _render_image(gt: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    h, w = gt.shape
    yy, xx = np.mgrid[0:h, 0:w]
    ripple = 10.0 * np.sin(2.0 * np.pi * xx / max(8, w // 3)) + 6.0 * np.sin(2.0 * np.pi * yy / max(8, h // 4))
    img = np.empty((h, w, 3), dtype=np.float64)
    img[:] = _BG_COLOR + ripple[..., None]
    for c in label_classes(gt):
        if c == 0:
            continue
        img[gt == c] = _CLASS_COLORS[(c - 1) % len(_CLASS_COLORS)]
    img += rng.normal(0.0, 6.0, size=img.shape)
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


def _render_features(gt: np.ndarray, directions: np.ndarray, stride: int, rng: np.random.Generator) -> np.ndarray:
    h, w = gt.shape
    fh, fw = h // stride, w // stride
    per_pixel = directions[gt]  # (H, W, dim)
    blocks = per_pixel[: fh * stride, : fw * stride].reshape(fh, stride, fw, stride, -1)
    cells = blocks.mean(axis=(1, 3))
    cells = cells + rng.normal(0.0, FEATURE_NOISE, size=cells.shape)
    return cells.transpose(2, 0, 1).astype(np.float32)


def synth_corpus(
    out_dir: str | Path,
    *,
    seed: int = 0,
    num_images: int = 50,
    size: int = 64,
    num_classes: int = 3,
    feat_stride: int = 4,
    feat_dim: int = 8,
) -> dict:
    """Write a corpus under ``out_dir`` and return its manifest.

    Layout: images/ID.ppm, boxes/ID.json, gt/ID.pgm, features/ID.btf, and a
    meta.json holding the manifest. Shapes never overlap (one slot of a 2x2
    partition each), so every ground-truth pixel lies inside at most one box.
    Every setting is checked before any directory is created.
    """
    settings = {"seed": seed, "num_images": num_images, "size": size, "num_classes": num_classes,
                "feat_stride": feat_stride, "feat_dim": feat_dim}
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if num_images < 1:
        raise ValueError(f"num_images must be >= 1, got {num_images}")
    if not MIN_SIZE <= size <= 128:
        raise ValueError(f"size must be in [{MIN_SIZE}, 128], got {size}")
    if feat_stride < 1:
        raise ValueError(f"feat_stride must be >= 1, got {feat_stride}")
    if size % feat_stride != 0:
        raise ValueError(f"size {size} must be a multiple of feat_stride {feat_stride}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if num_classes > MAX_CLASSES:
        raise ValueError(f"num_classes must be <= {MAX_CLASSES}, got {num_classes}")
    master = np.random.default_rng(seed)
    directions = _class_directions(num_classes, feat_dim, master)

    out = Path(out_dir)
    ids = []
    half = size // 2
    slots = [(0, 0, half, half), (0, half, half, size), (half, 0, size, half), (half, half, size, size)]
    for i in range(num_images):
        rng = np.random.default_rng([seed, i])
        image_id = f"{i:04d}"
        ids.append(image_id)

        gt = np.zeros((size, size), dtype=np.uint8)
        n_shapes = int(rng.integers(1, 4))  # one to three of the four slots
        order = rng.permutation(len(slots))[:n_shapes]
        boxes = []
        for slot_idx in order:
            class_id = int(rng.integers(1, num_classes + 1))
            boxes.append(_draw_shape(gt, rng, slots[slot_idx], class_id))

        fileio.write_label_map(out / "gt" / f"{image_id}.pgm", gt)
        fileio.write_boxes(out / "boxes" / f"{image_id}.json", BoxSet(size, size, boxes))
        fileio.write_image(out / "images" / f"{image_id}.ppm", _render_image(gt, rng))
        fileio.write_tensor(out / "features" / f"{image_id}.btf", _render_features(gt, directions, feat_stride, rng))

    manifest = {
        "ids": ids,
        "num_classes": num_classes,
        "size": size,
        "feat_stride": feat_stride,
        "feat_dim": feat_dim,
        "feature_noise": FEATURE_NOISE,
        "seed": seed,
    }
    fileio.write_text(out / "meta.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
