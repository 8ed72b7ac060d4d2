"""Per-class unary scores and fully-connected CRF mean-field inference.

The unary stack combines max-normalized class evidence maps (restricted to
the boxes of each class) with the background attention map, upsampled to
image resolution. Inference runs synchronous mean-field updates under a
Potts model whose pairwise kernel is the usual pair of Gaussians:

    k(i, j) = w1 * exp(-|p_i - p_j|^2 / (2 ta^2) - |I_i - I_j|^2 / (2 tb^2))
            + w2 * exp(-|p_i - p_j|^2 / (2 tg^2))

Two message-passing engines share the same update step; ``mean_field``
selects one with ``method``:

* ``lattice`` -- the default. Gaussian filtering on the permutohedral lattice
                 (Adams, Baek & Davis 2010; Kraehenbuehl & Koltun 2011): one
                 5-D lattice for the bilateral term and one 2-D lattice for
                 the spatial term, built once per image, so an iteration
                 costs O(HW) whatever the bandwidths. Each lattice's output
                 is rescaled to the exact Gaussian sums on a fixed-size pixel
                 sample and its self term removed. It is an approximation:
                 the tests bound its label agreement with and marginal
                 distance from ``dense`` on synthetic-corpus images.
* ``dense``   -- exact O((HW)^2) pairwise sums over the full kernel matrix;
                 limited by the kernel's memory. ``mean_field_naive`` runs it
                 on small images as the equivalence oracle.

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
# Pixels whose exact Gaussian sums calibrate each lattice: a fixed count, so
# the calibration costs O(HW) at any image size.
_CALIBRATION_PIXELS = 64
# The lattice filter reaches about 5 bandwidths (measured), so a feature step
# of one intensity level or pixel is capped at 8 bandwidths: pixels that differ
# there stay out of each other's reach, and the integer lattice keys stay small.
_MAX_FEATURE_STEP = 8.0


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


class _Lattice:
    """Gaussian filter on the permutohedral lattice over (n, d) features.

    ``blur(v)`` for (n, L) values approximates c * sum_j exp(-|f_i - f_j|^2 / 2)
    v_j for a constant c: each point is splatted onto the d+1 vertices of its
    enclosing simplex with barycentric weights, the vertex values are blurred
    with [1, 2, 1] / 4 along each of the d+1 lattice directions, and every
    point slices its value back with the same weights. Vertices are integer
    keys, packed into one int64 each. An empty lattice point that is a blur
    neighbour of two occupied vertices is a vertex too, so the values that
    cross it between them are kept rather than dropped.
    """

    def __init__(self, features: np.ndarray) -> None:
        n, d = features.shape
        # Elevate onto the plane x . 1 = 0 of R^(d+1), scaled so that the blur
        # has about unit standard deviation in feature units.
        scaled = features * (math.sqrt(2.0 / 3.0) * (d + 1) / np.sqrt(np.arange(1, d + 1) * np.arange(2, d + 2)))
        elevated = np.zeros((n, d + 1))
        elevated[:, :d] = np.cumsum(scaled[:, ::-1], axis=1)[:, ::-1]
        elevated[:, 1:] -= np.arange(1, d + 1) * scaled
        # The nearest remainder-0 vertex, then the simplex holding the point:
        # rank orders the coordinates' residuals, shifted back onto the plane.
        rem0 = np.rint(elevated / (d + 1)) * (d + 1)
        residual = elevated - rem0
        rank = np.argsort(np.argsort(-residual, axis=1, kind="stable"), axis=1, kind="stable")
        rank += np.rint(rem0.sum(axis=1) / (d + 1)).astype(np.int64)[:, None]
        shift = (rank < 0).astype(np.int64) - (rank > d)
        rank += shift * (d + 1)
        rem0 = rem0.astype(np.int64) + shift * (d + 1)
        # Barycentric weights of the simplex vertices, by remainder.
        t = (elevated - rem0) / (d + 1)
        plus, minus = np.zeros((n, d + 2)), np.zeros((n, d + 2))
        np.put_along_axis(plus, d - rank, t, axis=1)
        np.put_along_axis(minus, d - rank + 1, t, axis=1)
        bary = plus - minus
        bary[:, 0] += 1.0 + bary[:, d + 1]
        self.weights = bary[:, : d + 1]

        # Vertex r of a simplex has every coordinate = r (mod d+1): store r and
        # the quotients of its first d coordinates, packed mixed-radix into one
        # int64 code with room for two blur steps beyond the points.
        r = np.arange(d + 1)[None, :, None]
        quot = (rem0[:, None, :d] // (d + 1)) - (rank[:, None, :d] > d - r)  # (n, d+1, d)
        low = quot.min(axis=(0, 1)) - 2
        radix = quot.max(axis=(0, 1)) + 2 - low + 1
        if (d + 1) * float(np.prod(radix.astype(np.float64))) >= 2.0**62:
            raise ValueError("lattice keys do not fit 64 bits; the features span too many bandwidths")
        stride = (d + 1) * np.cumprod(np.concatenate(([1], radix[:-1])))
        codes = np.arange(d + 1) + ((quot - low) * stride).sum(axis=2)
        # A blur step along direction j adds d+1 to coordinate j (j < d) and
        # subtracts 1 from all: r drops by one, or wraps from 0 to d while
        # every quotient drops by one.
        step = np.append(stride, 0) - 1
        wrap = d + 1 - stride.sum()

        def ahead(c, j):
            return c + step[j] + np.where(c % (d + 1) == 0, wrap, 0)

        def behind(c, j):
            return c - step[j] - np.where(c % (d + 1) == d, wrap, 0)

        occupied = np.unique(codes)
        near, hits = np.unique(
            np.concatenate([f(occupied, j) for j in range(d + 1) for f in (ahead, behind)]), return_counts=True
        )
        vertices = np.union1d(occupied, near[hits >= 2])
        self.size = m = vertices.size
        self.index = np.searchsorted(vertices, codes)  # (n, d+1)
        self.neighbours = []
        for j in range(d + 1):
            target = ahead(vertices, j)
            i = np.minimum(np.searchsorted(vertices, target), m - 1)
            found = vertices[i] == target
            next_ = np.where(found, i, m)  # m: an always-zero slot
            prev = np.full(m, m)
            prev[i[found]] = np.flatnonzero(found)
            self.neighbours.append((next_, prev))

    def blur(self, values: np.ndarray) -> np.ndarray:
        """(n, L) values -> (n, L) filtered values."""
        m = self.size
        lat = np.zeros((m + 1, values.shape[1]))
        flat = self.index.ravel()
        for l in range(values.shape[1]):
            lat[:m, l] = np.bincount(flat, weights=(self.weights * values[:, l, None]).ravel(), minlength=m)
        for next_, prev in self.neighbours:
            lat[:m] = 0.5 * lat[:m] + 0.25 * (lat.take(next_, axis=0) + lat.take(prev, axis=0))
        return np.einsum("nrl,nr->nl", lat.take(self.index, axis=0), self.weights)


def _lattice_term(features: np.ndarray) -> tuple[_Lattice, float]:
    """The lattice over ``features`` and the factor c of its ``blur``, by the
    median ratio to the exact Gaussian sums over a fixed, spread-out sample."""
    lattice = _Lattice(features)
    n = features.shape[0]
    count = min(_CALIBRATION_PIXELS, n)
    sample = np.unique((np.arange(count) * ((math.sqrt(5.0) - 1.0) / 2.0) * n).astype(np.int64) % n)
    approx = lattice.blur(np.ones((n, 1)))[sample, 0]
    norms = (features**2).sum(axis=1)
    exact = np.concatenate([  # in blocks, to hold a quarter of the (sample, n) distances at a time
        np.exp(-0.5 * np.maximum(norms[rows, None] + norms - 2.0 * features[rows] @ features.T, 0.0)).sum(axis=1)
        for rows in np.array_split(sample, 4)
    ])
    return lattice, float(np.median(approx / exact))


def _lattice_messages(image: np.ndarray, params: CrfParams):
    h, w, _ = image.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    pos = np.stack([ys.ravel(), xs.ravel()], axis=1)
    col = image.reshape(h * w, 3).astype(np.float64)

    def scaled(raw, theta):
        return raw * min(1.0 / theta, _MAX_FEATURE_STEP)

    terms = []
    for weight, features in (
        (params.w1, np.hstack([scaled(pos, params.theta_alpha), scaled(col, params.theta_beta)])),
        (params.w2, scaled(pos, params.theta_gamma)),
    ):
        if weight > 0.0:
            lattice, c = _lattice_term(features)
            terms.append((weight, weight / c, lattice))

    def messages(q):
        # sum_{j != i} k(i, j) q_j: the rescaled lattice sums minus the self term.
        flat = q.reshape(q.shape[0], -1).T
        msg = np.zeros_like(flat)
        for weight, gain, lattice in terms:
            msg += gain * lattice.blur(flat) - weight * flat
        return msg.T.reshape(q.shape)

    return messages


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


def mean_field(
    unary: np.ndarray,
    image: np.ndarray,
    params: CrfParams,
    method: str = "lattice",
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run mean-field inference; returns (label map, final marginals).

    ``method`` picks the message engine: "lattice" (permutohedral lattice) or
    "dense" (full kernel matrix). Passing a list as ``trace`` collects the
    marginals after initialization and after every iteration.
    """
    u, img = _check_inputs(unary, image)
    nl, h, w = u.shape
    psi = _unary_potentials(u, params.unary_floor)

    if method == "lattice":
        messages = _lattice_messages(img, params)
    elif method == "dense":
        if (h * w) ** 2 > _DENSE_LIMIT:
            raise ValueError(
                f"dense engine would need a {h * w}x{h * w} kernel; use the lattice engine"
            )
        k = _kernel_matrix(img, params)

        def messages(q):
            return (q.reshape(nl, -1) @ k).reshape(nl, h, w)

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
    oracle for the lattice engine, not for production use.
    """
    u, img = _check_inputs(unary, image)
    if u.shape[1] * u.shape[2] > _NAIVE_MAX_PIXELS:
        raise ValueError(f"naive engine is limited to {_NAIVE_MAX_PIXELS} pixels, got {u.shape[1:]}")
    return mean_field(unary, image, params, method="dense", trace=trace)
