"""Shared domain types and geometry for box-supervised label generation.

Everything downstream works on three kinds of arrays:

* feature maps: float ``(C, H, W)``, finite everywhere;
* label maps:   uint8 ``(H, W)``, values in ``{0..num_classes}`` plus
  the reserved ``IGNORE`` value 255 marking unreliable pixels;
* RGB images:   uint8 ``(H, W, 3)``.

Bounding boxes use half-open pixel intervals ``[xmin, xmax) x [ymin, ymax)``.
Class id 0 is reserved for the background, so object classes are ``1..L``
with ``L <= MAX_CLASSES`` (254).

All functions here are pure; there is no module-level mutable state, so the
module is safe to call from concurrent workers processing distinct images.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

# Reserved label value for unreliable pixels (8-bit segmentation convention).
IGNORE = 255
# Labels are bytes and 255 is IGNORE, so object classes are 1..MAX_CLASSES.
MAX_CLASSES = IGNORE - 1


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with a class label, half-open pixel coordinates."""

    class_id: int
    xmin: int
    ymin: int
    xmax: int
    ymax: int

    def __post_init__(self) -> None:
        if not 1 <= self.class_id <= MAX_CLASSES:
            raise ValueError(f"class_id must be in [1, {MAX_CLASSES}] (0 is background), got {self.class_id}")
        if not (0 <= self.xmin < self.xmax):
            raise ValueError(f"need 0 <= xmin < xmax, got xmin={self.xmin}, xmax={self.xmax}")
        if not (0 <= self.ymin < self.ymax):
            raise ValueError(f"need 0 <= ymin < ymax, got ymin={self.ymin}, ymax={self.ymax}")

    @property
    def width(self) -> int:
        return self.xmax - self.xmin

    @property
    def height(self) -> int:
        return self.ymax - self.ymin

    @property
    def area(self) -> int:
        return self.width * self.height

    def slices(self) -> tuple[slice, slice]:
        """Row/column slices selecting the box interior of an (H, W) array."""
        return slice(self.ymin, self.ymax), slice(self.xmin, self.xmax)


@dataclass
class BoxSet:
    """All annotated boxes of one image, clamped to the image bounds."""

    image_width: int
    image_height: int
    boxes: list[BBox] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be >= 1")
        clamped = []
        for b in self.boxes:
            if b.xmin >= self.image_width or b.ymin >= self.image_height:
                raise ValueError(f"box {b} lies entirely outside a {self.image_width}x{self.image_height} image")
            clamped.append(
                dataclasses.replace(
                    b,
                    xmax=min(b.xmax, self.image_width),
                    ymax=min(b.ymax, self.image_height),
                )
            )
        self.boxes = clamped

    def class_ids(self) -> list[int]:
        """Sorted unique object class ids present in this set."""
        return sorted({b.class_id for b in self.boxes})

    def boxes_of_class(self, class_id: int) -> list[BBox]:
        return [b for b in self.boxes if b.class_id == class_id]


def _round_half_up(numer: int, denom: int) -> int:
    # Exact integer round-half-up of numer/denom; ties away from truncation
    # keep the mapping deterministic across platforms.
    return (2 * numer + denom) // (2 * denom)


def resize_boxes(boxes: BoxSet, feat_h: int, feat_w: int) -> BoxSet:
    """Map boxes from image coordinates onto a feature grid.

    Each coordinate is scaled by the grid/image ratio and rounded to the
    nearest cell boundary. Boxes that collapse to zero area are expanded to
    a single cell at the rounded min corner, so every box keeps at least one
    feature cell. Results are clamped to the grid.
    """
    if feat_h < 1 or feat_w < 1:
        raise ValueError("feature grid dimensions must be >= 1")
    out = []
    for b in boxes.boxes:
        sx = _round_half_up(b.xmin * feat_w, boxes.image_width)
        ex = _round_half_up(b.xmax * feat_w, boxes.image_width)
        sy = _round_half_up(b.ymin * feat_h, boxes.image_height)
        ey = _round_half_up(b.ymax * feat_h, boxes.image_height)
        ex = min(ex, feat_w)
        ey = min(ey, feat_h)
        if ex <= sx:
            sx = min(sx, feat_w - 1)
            ex = sx + 1
        if ey <= sy:
            sy = min(sy, feat_h - 1)
            ey = sy + 1
        out.append(BBox(b.class_id, sx, sy, ex, ey))
    return BoxSet(image_width=feat_w, image_height=feat_h, boxes=out)


def box_interior_mask(boxes: BoxSet, h: int, w: int) -> np.ndarray:
    """uint8 (H, W) map that is 1 inside the union of box interiors."""
    inside = np.zeros((h, w), dtype=np.uint8)
    for b in boxes.boxes:
        inside[b.slices()] = 1
    return inside


def build_background_mask(resized: BoxSet, h: int, w: int) -> np.ndarray:
    """Definite-background mask: 1 where no box covers the pixel, else 0.

    Boxes must already be in the coordinates of the (h, w) grid.
    """
    return (1 - box_interior_mask(resized, h, w)).astype(np.uint8)


def as_feature_map(arr: np.ndarray) -> np.ndarray:
    """Validate a (C, H, W) feature map and return it as float64."""
    a = np.asarray(arr)
    if a.ndim != 3:
        raise ValueError(f"feature map must have shape (C, H, W), got {a.shape}")
    if min(a.shape) < 1:
        raise ValueError(f"feature map dimensions must be >= 1, got {a.shape}")
    a = a.astype(np.float64, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError("feature map contains non-finite values")
    return a


def unit_norm(x: np.ndarray, axis: int) -> np.ndarray:
    """``x`` scaled to unit L2 norm along ``axis``; zero-norm slices stay zero.

    Callers pass the axis of their own layout rather than transposing, since
    a transpose changes numpy's summation order and can move the last bit.
    """
    norms = np.linalg.norm(x, axis=axis, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)


def validate_label_map(labels: np.ndarray, num_classes: int | None = None) -> np.ndarray:
    """Check a (H, W) label map; values must be in {0..L} or IGNORE."""
    y = np.asarray(labels)
    if y.ndim != 2:
        raise ValueError(f"label map must have shape (H, W), got {y.shape}")
    if np.issubdtype(y.dtype, np.floating):
        raise ValueError("label map must be integer-typed")
    if num_classes is not None:
        bad = (y > num_classes) & (y != IGNORE)
        if np.any(bad):
            idx = np.argwhere(bad)[0]
            raise ValueError(
                f"label out of range: value {int(y[tuple(idx)])} at (row={idx[0]}, col={idx[1]}) "
                f"with num_classes={num_classes}"
            )
    return y


def bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W) or (C, H, W) array to (out_h, out_w).

    Uses half-pixel centers (output pixel i samples input coordinate
    ``(i + 0.5) * in/out - 0.5``), clamped at the borders; resizing to the
    same shape is the identity. Output values stay inside the input range,
    so maps in [0, 1] remain in [0, 1].
    """
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be >= 1")
    a = np.asarray(arr, dtype=np.float64)
    squeeze = a.ndim == 2
    if squeeze:
        a = a[None]
    if a.ndim != 3:
        raise ValueError(f"expected (H, W) or (C, H, W), got {np.asarray(arr).shape}")
    _, h, w = a.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    row0 = a[:, y0]
    row1 = a[:, y1]
    top = row0[:, :, x0] * (1.0 - wx) + row0[:, :, x1] * wx
    bot = row1[:, :, x0] * (1.0 - wx) + row1[:, :, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    return out[0] if squeeze else out


def nearest_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize along the last two axes (labels stay valid)."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be >= 1")
    a = np.asarray(arr)
    h, w = a.shape[-2], a.shape[-1]
    ys = np.minimum(np.floor((np.arange(out_h) + 0.5) * (h / out_h)).astype(np.intp), h - 1)
    xs = np.minimum(np.floor((np.arange(out_w) + 0.5) * (w / out_w)).astype(np.intp), w - 1)
    return a[..., ys[:, None], xs[None, :]]
