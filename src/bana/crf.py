"""Per-class unary scores and fully-connected CRF mean-field inference.

The unary stack combines max-normalized class evidence maps (restricted to
the boxes of each class) with the background attention map, upsampled to
image resolution. Inference runs synchronous mean-field updates under a
Potts model whose pairwise kernel is the usual pair of Gaussians:

    k(i, j) = w1 * exp(-|p_i - p_j|^2 / (2 ta^2) - |I_i - I_j|^2 / (2 tb^2))
            + w2 * exp(-|p_i - p_j|^2 / (2 tg^2))

Two message-passing engines share the same update step; ``mean_field``
selects one with ``method``:

* ``dense``    -- exact O((HW)^2) pairwise sums over the full kernel matrix;
                  limited by the kernel's memory. ``mean_field_naive`` runs it
                  on small images as the equivalence oracle.
* ``windowed`` -- truncated-window sums with radius 3 * max spatial
                  bandwidth; identical to the dense sums whenever the window
                  covers the whole image.
* ``auto``     -- dense when the window covers the whole image and the kernel
                  fits, windowed otherwise.

Inference is deterministic: fixed iteration count, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clshead import softmax
from .core import BoxSet, bilinear_resize, box_interior_mask

# Largest kernel matrix (entries) the dense engines will allocate.
_DENSE_LIMIT = 25_000_000
_NAIVE_MAX_PIXELS = 64 * 64
# Cached per-offset kernel maps are capped at this many elements; beyond it
# the windowed engine recomputes them every iteration instead.
_WINDOW_CACHE_LIMIT = 60_000_000


@dataclass
class CrfParams:
    """Pairwise kernel weights/bandwidths and mean-field settings."""

    w1: float = 4.0
    w2: float = 3.0
    theta_alpha: float = 49.0
    theta_beta: float = 5.0
    theta_gamma: float = 3.0
    iterations: int = 10
    unary_floor: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("theta_alpha", "theta_beta", "theta_gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.w1 < 0.0 or self.w2 < 0.0:
            raise ValueError("kernel weights must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not (0.0 < self.unary_floor < 1.0):
            raise ValueError("unary_floor must lie in (0, 1)")

    @property
    def window_radius(self) -> int:
        return int(math.ceil(3.0 * max(self.theta_alpha, self.theta_gamma)))


def build_unary(
    cams: dict[int, np.ndarray],
    attention: np.ndarray,
    boxes: BoxSet,
    num_classes: int,
    tau: float | None = 0.99,
) -> np.ndarray:
    """(L+1, H, W) unary scores in [0, 1] at image resolution.

    Channel c >= 1 is the class evidence map divided by its global maximum,
    upsampled bilinearly, then zeroed outside the union of class-c boxes
    (membership tested at image resolution). Channel 0 comes from the
    attention map: thresholded at ``tau`` when 0 < tau <= 1 (label mode),
    or used raw when ``tau`` is None or 0.
    """
    a = np.asarray(attention, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"attention must be (h, w), got {a.shape}")
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    h, w = boxes.image_height, boxes.image_width
    unary = np.zeros((num_classes + 1, h, w), dtype=np.float64)

    if tau is not None and not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must be in [0, 1] or None, got {tau}")
    bg = a if not tau else (a >= tau).astype(np.float64)
    unary[0] = bilinear_resize(bg, h, w)

    for c, cam_c in cams.items():
        if not (1 <= c <= num_classes):
            raise ValueError(f"cam class id {c} outside [1, {num_classes}]")
        cam_c = np.asarray(cam_c, dtype=np.float64)
        if cam_c.shape != a.shape:
            raise ValueError(f"cam for class {c} has shape {cam_c.shape}, attention is {a.shape}")
        if cam_c.min() < 0.0:
            raise ValueError(f"cam for class {c} has negative values")
        peak = cam_c.max()
        class_boxes = boxes.boxes_of_class(c)
        if peak <= 0.0 or not class_boxes:
            continue
        mask = box_interior_mask(BoxSet(w, h, class_boxes), h, w)
        unary[c] = bilinear_resize(cam_c / peak, h, w) * mask
    return unary


def _unary_potentials(unary: np.ndarray, floor: float) -> np.ndarray:
    # Scores -> energies: floor, normalize per pixel, negative log.
    scores = np.maximum(unary, floor)
    return -np.log(scores / scores.sum(axis=0, keepdims=True))


def _update(psi: np.ndarray, msg: np.ndarray) -> np.ndarray:
    # Potts mean-field step; the constant sum_j k(i,j) cancels in the
    # per-pixel normalization, leaving Q ~ exp(-psi + msg).
    return softmax(msg - psi, axis=0)


def _kernel_matrix(image: np.ndarray, params: CrfParams) -> np.ndarray:
    """Full (HW, HW) pairwise kernel with a zeroed diagonal."""
    h, w, _ = image.shape
    n = h * w
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    pos = np.stack([ys.ravel(), xs.ravel()], axis=1)
    col = image.reshape(n, 3).astype(np.float64)
    inv_a = 1.0 / (2.0 * params.theta_alpha**2)
    inv_b = 1.0 / (2.0 * params.theta_beta**2)
    inv_g = 1.0 / (2.0 * params.theta_gamma**2)
    k = np.empty((n, n), dtype=np.float64)
    block = max(1, (4 << 20) // max(n, 1))
    for s in range(0, n, block):
        e = min(n, s + block)
        dpos = ((pos[s:e, None, :] - pos[None, :, :]) ** 2).sum(axis=-1)
        dcol = ((col[s:e, None, :] - col[None, :, :]) ** 2).sum(axis=-1)
        k[s:e] = params.w1 * np.exp(-dpos * inv_a - dcol * inv_b) + params.w2 * np.exp(-dpos * inv_g)
    np.fill_diagonal(k, 0.0)
    return k


def _window_entries(image: np.ndarray, params: CrfParams):
    """Yield (out_slices, in_slices, kernel_patch) for every window offset."""
    h, w, _ = image.shape
    img = image.astype(np.float64)
    r = params.window_radius
    ry, rx = min(r, h - 1), min(r, w - 1)
    inv_a = 1.0 / (2.0 * params.theta_alpha**2)
    inv_b = 1.0 / (2.0 * params.theta_beta**2)
    inv_g = 1.0 / (2.0 * params.theta_gamma**2)
    for dy in range(-ry, ry + 1):
        ys0, ys1 = max(0, -dy), h - max(0, dy)
        for dx in range(-rx, rx + 1):
            if dy == 0 and dx == 0:
                continue
            xs0, xs1 = max(0, -dx), w - max(0, dx)
            out_sl = (slice(ys0, ys1), slice(xs0, xs1))
            in_sl = (slice(ys0 + dy, ys1 + dy), slice(xs0 + dx, xs1 + dx))
            d2 = float(dy * dy + dx * dx)
            cdiff = ((img[out_sl] - img[in_sl]) ** 2).sum(axis=-1)
            kernel = params.w1 * np.exp(-d2 * inv_a - cdiff * inv_b) + params.w2 * math.exp(-d2 * inv_g)
            yield out_sl, in_sl, kernel


def _run(psi: np.ndarray, messages, iterations: int, trace: list | None) -> np.ndarray:
    q = _update(psi, np.zeros_like(psi))  # softmax of negated potentials
    if trace is not None:
        trace.append(q.copy())
    for _ in range(iterations):
        q = _update(psi, messages(q))
        if trace is not None:
            trace.append(q.copy())
    return q


def _check_inputs(unary: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(unary, dtype=np.float64)
    img = np.asarray(image)
    if u.ndim != 3 or u.shape[0] < 2:
        raise ValueError(f"unary must be (L+1, H, W) with L >= 1, got {u.shape}")
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("image must be uint8 with shape (H, W, 3)")
    if img.shape[:2] != u.shape[1:]:
        raise ValueError(f"image {img.shape[:2]} and unary {u.shape[1:]} resolutions differ")
    if u.min() < 0.0 or u.max() > 1.0:
        raise ValueError("unary scores must lie in [0, 1]")
    return u, img


def _choose_method(params: CrfParams, h: int, w: int) -> str:
    r = params.window_radius
    n_off = (2 * min(r, h - 1) + 1) * (2 * min(r, w - 1) + 1) - 1
    n = h * w
    if n_off >= n and n * n <= _DENSE_LIMIT:
        return "dense"
    return "windowed"


def mean_field(
    unary: np.ndarray,
    image: np.ndarray,
    params: CrfParams,
    method: str = "auto",
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run mean-field inference; returns (label map, final marginals).

    ``method`` picks the message engine: "windowed" (truncated window),
    "dense" (full kernel matrix), or "auto" to let the image size and window
    radius decide. Passing a list as ``trace`` collects the marginals after
    initialization and after every iteration.
    """
    u, img = _check_inputs(unary, image)
    nl, h, w = u.shape
    psi = _unary_potentials(u, params.unary_floor)

    if method == "auto":
        method = _choose_method(params, h, w)
    if method == "dense":
        if (h * w) ** 2 > _DENSE_LIMIT:
            raise ValueError(
                f"dense engine would need a {h * w}x{h * w} kernel; use the windowed engine"
            )
        k = _kernel_matrix(img, params)

        def messages(q):
            return (q.reshape(nl, -1) @ k).reshape(nl, h, w)

    elif method == "windowed":
        entries = None
        r = params.window_radius
        n_off = (2 * min(r, h - 1) + 1) * (2 * min(r, w - 1) + 1) - 1
        if n_off * h * w <= _WINDOW_CACHE_LIMIT:
            entries = list(_window_entries(img, params))

        def messages(q):
            msg = np.zeros_like(q)
            for out_sl, in_sl, kernel in entries if entries is not None else _window_entries(img, params):
                msg[:, out_sl[0], out_sl[1]] += kernel * q[:, in_sl[0], in_sl[1]]
            return msg

    else:
        raise ValueError(f"unknown method {method!r}")

    q = _run(psi, messages, params.iterations, trace)
    return q.argmax(axis=0).astype(np.uint8), q


def mean_field_naive(
    unary: np.ndarray,
    image: np.ndarray,
    params: CrfParams,
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference engine with exact O((HW)^2) message sums.

    Guards the image size (<= 64 x 64 pixels); intended as the equivalence
    oracle for the windowed engine, not for production use.
    """
    u, img = _check_inputs(unary, image)
    if u.shape[1] * u.shape[2] > _NAIVE_MAX_PIXELS:
        raise ValueError(f"naive engine is limited to {_NAIVE_MAX_PIXELS} pixels, got {u.shape[1:]}")
    return mean_field(unary, image, params, method="dense", trace=trace)
