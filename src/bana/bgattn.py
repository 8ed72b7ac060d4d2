"""Background queries, background attention maps, and background-aware pooling.

The steps implemented here turn a feature map plus box annotations into
per-box foreground descriptors:

1. split the feature grid into N x N cells and average the features of each
   cell over the definite background (the pixels outside all boxes), giving
   one background query per cell that touches the background;
2. score every pixel inside the boxes by its mean truncated cosine
   similarity to those queries -- the attention map A, where high values
   mean "looks like background";
3. pool the features of each box with weights 1 - A, so background-like
   pixels contribute little. With A = 0 this degrades to plain average
   pooling over the box.
"""

from __future__ import annotations

import numpy as np

from .core import BBox, BoxSet, as_attention_map, as_feature_map, box_interior_mask, unit_norm

# Below this total weight the pooled feature falls back to the plain mean.
_WEIGHT_EPS = 1e-12


def _grid_cells(h: int, w: int, n: int):
    """Row-major (row_slice, col_slice) pairs of the non-empty cells of an
    n x n partition. Along a side shorter than n those are its single rows
    or columns, so that side is cut into min(n, side) parts."""
    rows, cols = min(n, h), min(n, w)
    for r in range(rows):
        y0, y1 = (r * h) // rows, ((r + 1) * h) // rows
        for c in range(cols):
            x0, x1 = (c * w) // cols, ((c + 1) * w) // cols
            yield slice(y0, y1), slice(x0, x1)


def extract_queries(features: np.ndarray, background_mask: np.ndarray, grid_size: int) -> np.ndarray:
    """The (J, C) background queries: the mask-weighted mean feature of every
    grid cell that touches background, in row-major cell order.

    Cells whose pixels are all covered by boxes carry no information about
    the background and are skipped, so J may be less than ``grid_size**2``
    -- possibly zero for a fully boxed image.
    """
    f = as_feature_map(features)
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    m = np.asarray(background_mask)
    if m.shape != f.shape[1:]:
        raise ValueError(f"mask shape {m.shape} does not match feature grid {f.shape[1:]}")
    m = m.astype(np.float64)
    vectors = []
    for rows, cols in _grid_cells(f.shape[1], f.shape[2], grid_size):
        weight = m[rows, cols].sum()
        if weight > 0.0:
            vectors.append((f[:, rows, cols] * m[rows, cols]).sum(axis=(1, 2)) / weight)
    return np.stack(vectors) if vectors else np.zeros((0, f.shape[0]), dtype=np.float64)


def attention_map(features: np.ndarray, queries: np.ndarray, boxes: BoxSet) -> np.ndarray:
    """Per-pixel background likelihood in [0, 1].

    Outside every box the pixel is definite background and A = 1. Inside,
    A(p) is the mean over the (J, C) queries q_j of ReLU(cos(f(p), q_j)).
    With no query (fully boxed image) A = 0 inside the boxes, which turns the
    downstream pooling into a plain box average.
    """
    f = as_feature_map(features)
    c, h, w = f.shape
    inside = box_interior_mask(boxes, h, w).astype(bool)
    if len(queries) == 0:
        return np.where(inside, 0.0, 1.0)
    # Zero-norm rows stay zero, which makes their cosine contributions 0.
    fhat = unit_norm(f.reshape(c, -1).T, axis=1)  # (HW, C)
    qhat = unit_norm(np.asarray(queries, dtype=np.float64), axis=1)  # (J, C)
    sims = np.clip(fhat @ qhat.T, 0.0, 1.0)  # ReLU-truncated cosines, rounded ones kept <= 1
    a = sims.mean(axis=1).reshape(h, w)
    a[~inside] = 1.0
    return a


def bap_pool(features: np.ndarray, attention: np.ndarray, box: BBox) -> np.ndarray:
    """The (C,) weighted average of the box features with foreground weights 1 - A,
    for an attention map A in [0, 1] on the feature grid.

    If the total weight inside the box is (numerically) zero -- every pixel
    judged background -- the box still needs a descriptor, so the plain
    average over the box is returned.
    """
    f = as_feature_map(features)
    a = as_attention_map(attention)
    if a.shape != f.shape[1:]:
        raise ValueError(f"attention shape {a.shape} does not match feature grid {f.shape[1:]}")
    if box.xmax > f.shape[2] or box.ymax > f.shape[1]:
        raise ValueError(f"box {box} exceeds the {f.shape[1]}x{f.shape[2]} feature grid")
    rows, cols = box.slices()
    patch = f[:, rows, cols]
    weights = 1.0 - a[rows, cols]
    total = weights.sum()
    if total <= _WEIGHT_EPS:
        return patch.mean(axis=(1, 2))
    return (patch * weights).sum(axis=(1, 2)) / total
