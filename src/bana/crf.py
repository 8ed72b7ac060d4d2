"""Per-class unary scores and fully-connected CRF mean-field inference.

The unary stack combines max-normalized class evidence maps (restricted to
the boxes of each class) with the background attention map, upsampled to
image resolution. Inference runs synchronous mean-field updates under a
Potts model whose pairwise kernel is the usual pair of Gaussians:

    k(i, j) = w1 * exp(-|p_i - p_j|^2 / (2 ta^2) - |I_i - I_j|^2 / (2 tb^2))
            + w2 * exp(-|p_i - p_j|^2 / (2 tg^2))

Messages come from one engine, built once per image. The bilateral term is
a Gaussian filter on a 5-D permutohedral lattice (Adams, Baek & Davis 2010;
Kraehenbuehl & Koltun 2011) over position and colour, so an iteration costs
O(HW) whatever the bandwidths. Its output is rescaled to the exact Gaussian
sums on a fixed-size pixel sample and its self term removed. It is an
approximation: the tests bound its label agreement with and marginal
distance from the exact O((HW)^2) pairwise sums over the full kernel matrix
on synthetic-corpus images. That dense oracle lives beside the tests, in
``tests/conftest.py``. The spatial term is exact: the product of two 1-D
Gaussian matrices, G_y @ Q @ G_x, less the self term, taken over the
matrices' bands (weights below e^-50 are left out).

Inference is deterministic: fixed iteration count, no randomness. Each
update is a per-pixel softmax in which the marginals below e^-600 of their
pixel's largest are set to 0, so no marginal is subnormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_CLASSES, BoxSet, as_attention_map, bilinear_resize, box_interior_mask

# Pixels whose exact Gaussian sums calibrate the bilateral lattice: a fixed
# count, so the calibration costs O(HW) at any image size.
_CALIBRATION_PIXELS = 64
# The lattice filter reaches about 5 bandwidths (measured), so a feature step
# of one intensity level or pixel is capped at 8 bandwidths: pixels that differ
# there stay out of each other's reach, and the integer lattice keys stay small.
_MAX_FEATURE_STEP = 8.0
# Rows per block of the spatial term's banded matrix products. On one core,
# with theta_gamma = 3 at 256^2 and 512^2, blocks of 32 or 64 rows took a
# tenth of the dense product's time and blocks of 128 four times as long as 64.
_SPATIAL_BLOCK = 64
# Points per block of the lattice's simplices and of its slice, and float64
# values per block of each blur direction (8192 vertices at L = 4): blocks
# bound the temporaries, and smaller ones measured slower.
_LATTICE_POINTS = 2048
_BLUR_VALUES = 1 << 15
# The ranges of the kernel weights and bandwidths, inside which float64 holds
# the kernels' arithmetic. Past them 2 theta^2 underflows to 0 or overflows, or
# a weighted message sum overflows, and the marginals turn NaN. Past the
# bandwidth bounds the Gaussians change no further anyway: below, they are 0
# off the diagonal; above, 1 everywhere.
_WEIGHT_RANGE = (0.0, 1e100)
_BANDWIDTH_RANGE = (1e-100, 1e100)
# Unary scores are floored here before the negative log, so that a zero score
# still costs a finite energy.
_UNARY_FLOOR = 1e-5
# A marginal whose log is this far or further below its pixel's largest is set
# to exactly 0 (e^-600 < 2.7e-261). Left to exp, the smallest ones underflow
# into subnormals, whose arithmetic is many times slower on x86; under
# CrfParams() they doubled each iteration's time. No label depends on them.
_LOG_MARGINAL_FLOOR = -600.0


@dataclass
class CrfParams:
    """Pairwise kernel weights/bandwidths and mean-field settings."""

    w1: float = 4.0
    w2: float = 3.0
    theta_alpha: float = 49.0
    theta_beta: float = 5.0
    theta_gamma: float = 3.0
    iterations: int = 10

    def __post_init__(self) -> None:
        # Each message starts with the field name: PipelineConfig prefixes "crf_".
        for name in ("w1", "w2", "theta_alpha", "theta_beta", "theta_gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            low, high = _WEIGHT_RANGE if name.startswith("w") else _BANDWIDTH_RANGE
            if not low <= value <= high:
                raise ValueError(f"{name} must be in [{low:g}, {high:g}], got {value}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


def build_unary(
    cams: dict[int, np.ndarray],
    attention: np.ndarray,
    boxes: BoxSet,
    num_classes: int,
    tau: float,
) -> np.ndarray:
    """(L+1, H, W) unary scores in [0, 1] at image resolution.

    Channel c >= 1 is the class evidence map divided by its global maximum,
    upsampled bilinearly, then zeroed outside the union of class-c boxes
    (membership tested at image resolution). Channel 0 comes from the
    attention map: thresholded at ``tau`` when 0 < tau <= 1 (label mode),
    or used raw when ``tau`` is 0.
    """
    a = as_attention_map(attention)
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    h, w = boxes.image_height, boxes.image_width
    unary = np.zeros((num_classes + 1, h, w), dtype=np.float64)

    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    bg = a if tau == 0.0 else (a >= tau).astype(np.float64)
    unary[0] = bilinear_resize(bg, h, w)

    for c, cam_c in cams.items():
        if not (1 <= c <= num_classes):
            raise ValueError(f"cam class id {c} outside [1, {num_classes}]")
        cam_c = np.asarray(cam_c, dtype=np.float64)
        if cam_c.shape != a.shape:
            raise ValueError(f"cam for class {c} has shape {cam_c.shape}, attention is {a.shape}")
        peak = cam_c.max()
        # Written so that NaN and +-inf fail too.
        if not (cam_c.min() >= 0.0 and peak < math.inf):
            raise ValueError(f"cam for class {c} has negative or non-finite values")
        class_boxes = boxes.boxes_of_class(c)
        if peak <= 0.0 or not class_boxes:
            continue
        mask = box_interior_mask(BoxSet(w, h, class_boxes), h, w)
        unary[c] = bilinear_resize(cam_c / peak, h, w) * mask
    return unary


def _unary_potentials(unary: np.ndarray) -> np.ndarray:
    # Scores -> energies: floor, normalize per pixel, negative log.
    scores = np.maximum(unary, _UNARY_FLOOR)
    return -np.log(scores / scores.sum(axis=0, keepdims=True))


def _update(psi: np.ndarray, msg: np.ndarray) -> np.ndarray:
    # Potts mean-field step; the constant sum_j k(i,j) cancels in the
    # per-pixel normalization, leaving Q ~ exp(-psi + msg). A per-pixel
    # softmax whose entries at or below the floor are clipped before the
    # exponential, so none underflows, and then set to 0.
    z = msg - psi
    z -= z.max(axis=0, keepdims=True)
    low = z <= _LOG_MARGINAL_FLOOR
    np.maximum(z, _LOG_MARGINAL_FLOOR, out=z)
    e = np.exp(z, out=z)
    e[low] = 0.0
    return e / e.sum(axis=0, keepdims=True)


def _pixel_features(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(HW, 2) pixel positions (row, column) and (HW, 3) colours, float64."""
    h, w, _ = image.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    return np.stack([ys.ravel(), xs.ravel()], axis=1), image.reshape(h * w, 3).astype(np.float64)


def _enclosing_simplices(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of n points' enclosing simplex on the permutohedral lattice of
    (n, d) features, as (n, d+1) arrays: its remainder-0 vertex, the rank of
    each coordinate and the barycentric weights of its vertices by remainder."""
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
    rows = np.arange(n)[:, None]
    rank = np.empty((n, d + 1), dtype=np.int64)
    rank[rows, np.argsort(-residual, axis=1, kind="stable")] = np.arange(d + 1)
    rank += np.rint(rem0.sum(axis=1) / (d + 1)).astype(np.int64)[:, None]
    shift = (rank < 0).astype(np.int64) - (rank > d)
    rank += shift * (d + 1)
    rem0 = rem0.astype(np.int64) + shift * (d + 1)
    # Barycentric weights of the simplex vertices, by remainder: vertex k's is
    # the offset ranked d - k less the one ranked d - k + 1, vertex 0's 1 plus
    # the offset ranked d less the one ranked 0.
    by_rank = np.empty((n, d + 1))
    by_rank[rows, d - rank] = (elevated - rem0) / (d + 1)
    bary = np.empty((n, d + 1))
    bary[:, 1:] = by_rank[:, 1:] - by_rank[:, :-1]
    bary[:, 0] = by_rank[:, 0] + (1.0 + (0.0 - by_rank[:, d]))
    return rem0, rank, bary


def _vertex_codes(rem0: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d+1) int64 codes of each simplex's vertices, by remainder, and
    the code strides of the first d coordinates."""
    n, d = rank.shape[0], rank.shape[1] - 1
    # Vertex r of a simplex has every coordinate = r (mod d+1): its code packs
    # r and the quotients of its first d coordinates mixed-radix into one
    # int64, with room for two blur steps beyond the points. Vertex r takes
    # the remainder-0 vertex's quotients, less one on the coordinates ranked
    # above d - r, so its code is vertex 0's plus r, less the strides of the r
    # top-ranked coordinates (coordinate d has no stride).
    quot = rem0[:, :d] // (d + 1)
    low = (quot - (rank[:, :d] > 0)).min(axis=0) - 2
    radix = quot.max(axis=0) + 2 - low + 1
    if (d + 1) * float(np.prod(radix.astype(np.float64))) >= 2.0**62:
        raise ValueError("lattice keys do not fit 64 bits; the features span too many bandwidths")
    stride = (d + 1) * np.cumprod(np.concatenate(([1], radix[:-1])))
    stride_by_rank = np.zeros((n, d + 1), dtype=np.int64)
    stride_by_rank[np.arange(n)[:, None], rank[:, :d]] = stride
    codes = np.arange(d + 1) + ((quot - low) @ stride)[:, None]
    codes[:, 1:] -= np.cumsum(stride_by_rank[:, :0:-1], axis=1)
    return codes, stride


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of an integer array and the count of each. On a
    lattice's few thousand codes a sort beats ``np.unique``'s hash table."""
    return _runs(np.sort(a, axis=None))


def _runs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted 1-D array and the length of each run."""
    starts = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    return s[starts], np.diff(starts, append=s.size)


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

    A step ahead takes a key of remainder r to remainder r - 1 (0 to d) and
    adds one constant per direction, so a class's keys one step ahead are
    sorted along each direction and looked up among the class below's, about
    m / (d+1) keys. ``neighbours[j]`` holds direction j's next vertex of each
    vertex, then its previous one (m, an always-zero slot, where there is
    none), so that one gather fetches both. The tables are int32.
    """

    def __init__(self, features: np.ndarray) -> None:
        # The set-up's peak memory shows in the labels stage's peak RSS, so
        # the simplices are found block by block and every temporary is freed
        # as soon as it is used up (the helpers' locals on return, the large
        # arrays here by ``del``). The int32 tables hold indices up to 2m, and
        # m <= n (d+1) (d+2): n (d+1) occupied vertices and at most one more
        # per pair of their 2 (d+1) neighbours.
        n, d = features.shape
        if 2 * n * (d + 1) * (d + 2) >= 2**31:
            raise ValueError(f"lattice vertex indices may not fit 32 bits: {n} points are too many")
        rem0, rank = np.empty((n, d + 1), dtype=np.int64), np.empty((n, d + 1), dtype=np.int64)
        self.weights = np.empty((n, d + 1))
        for s in range(0, n, _LATTICE_POINTS):
            rows = slice(s, s + _LATTICE_POINTS)
            rem0[rows], rank[rows], self.weights[rows] = _enclosing_simplices(features[rows])
        codes, stride = _vertex_codes(rem0, rank)
        del rem0, rank
        # A blur step along direction j adds d+1 to coordinate j (j < d) and
        # subtracts 1 from all: r drops by one, or wraps from 0 to d while
        # every quotient drops by one.
        step = (np.append(stride, 0) - 1)[:, None]
        wrap = d + 1 - stride.sum()
        # One argsort of the points' codes gives the occupied vertices and,
        # once the vertex set is known, every point's vertex indices.
        order = np.argsort(codes, axis=None)
        occupied, counts = _runs(codes.ravel()[order])
        del codes
        rem = occupied % (d + 1)
        near = np.empty((2, d + 1, occupied.size), dtype=np.int64)  # the codes a step ahead and a step behind
        np.add(occupied + np.where(rem == 0, wrap, 0), step, out=near[0])
        np.subtract(occupied - np.where(rem == d, wrap, 0), step, out=near[1])
        near.reshape(-1).sort()  # in place
        near, hits = _runs(near.reshape(-1))
        # A stable sort merges the two sorted runs.
        vertices = _runs(np.sort(np.concatenate([occupied, near[hits >= 2]]), kind="stable"))[0]
        del near, hits
        self.size = m = vertices.size
        self.index = np.empty((n, d + 1), dtype=np.int32)
        self.index.ravel()[order] = np.repeat(np.searchsorted(vertices, occupied).astype(np.int32), counts)
        del order, occupied, counts, rem
        table = np.full((d + 1, 2 * m + 1), m, dtype=np.int32)
        remainder = vertices % (d + 1)
        members = [np.flatnonzero(remainder == r) for r in range(d + 1)]
        for r, source in enumerate(members):
            below = members[r - 1]
            target = vertices[source] + step + (wrap if r == 0 else 0)
            k = below[np.minimum(np.searchsorted(vertices[below], target), below.size - 1)]
            k[vertices[k] != target] = m
            table[:, source] = k
        # The step ahead is one-to-one within each direction, so one scatter
        # per row inverts it; the missing neighbours all land in column 2m.
        ids = np.arange(m, dtype=np.int32)
        for row in table:
            row[m + row[:m]] = ids
        self.neighbours = table[:, : 2 * m]

    def blur(self, values: np.ndarray) -> np.ndarray:
        """(n, L) values -> (n, L) filtered values."""
        m, (n, L) = self.size, values.shape
        lat = np.zeros((m + 1, L))
        # np.bincount and np.take cast int32 indices to intp on every call, so
        # the splat casts the vertex indices once for all L channels.
        flat, weights = self.index.astype(np.intp).ravel(), self.weights.ravel()
        for l in range(L):  # each point's value once per vertex of its simplex
            spread = np.repeat(values[:, l], self.index.shape[1])
            spread *= weights
            lat[:m, l] = np.bincount(flat, weights=spread, minlength=m)
        del flat, spread  # each large buffer is freed before the next is made
        # (next + previous) / 4 + x / 2 per direction, into a second buffer,
        # one block of vertices at a time: the next values are gathered into
        # the block itself, the previous ones into a block-sized buffer. Every
        # index is in [0, m], so "clip" clips none; unlike "raise", it fills
        # ``out`` as is.
        out = np.empty((m + 1, L))
        out[m] = 0.0
        size = _BLUR_VALUES // L
        gathered = np.empty(min(m, size) * L)
        for both in self.neighbours:
            for s in range(0, m, size):
                rows = slice(s, min(m, s + size))
                block, behind = out[rows], gathered[: L * (rows.stop - s)].reshape(-1, L)
                lat.take(both[rows], axis=0, out=block, mode="clip")
                lat.take(both[m + s : m + rows.stop], axis=0, out=behind, mode="clip")
                block += behind
                block *= 0.25
                np.multiply(lat[rows], 0.5, out=behind)
                block += behind
            lat, out = out, lat
        del out, gathered, block, behind
        sliced = np.empty((n, L))
        for s in range(0, n, _LATTICE_POINTS):  # each point's d+1 vertex values, weighted
            rows = slice(s, s + _LATTICE_POINTS)
            np.einsum("nrl,nr->nl", lat.take(self.index[rows], axis=0), self.weights[rows], out=sliced[rows])
        return sliced


def _lattice_term(features: np.ndarray) -> tuple[_Lattice, float]:
    """The lattice over ``features`` and the factor c of its ``blur``, by the
    median ratio to the exact Gaussian sums over a fixed, spread-out sample."""
    lattice = _Lattice(features)
    n = features.shape[0]
    count = min(_CALIBRATION_PIXELS, n)
    sample = _distinct((np.arange(count) * ((math.sqrt(5.0) - 1.0) / 2.0) * n).astype(np.int64) % n)[0]
    approx = lattice.blur(np.ones((n, 1)))[sample, 0]
    norms = (features**2).sum(axis=1)
    # In blocks, to hold a quarter of the (sample, n) distances at a time, in
    # two buffers that every block reuses: fresh ones of this size would be
    # mapped and faulted in again on each call.
    exact, dist, dots = [], np.empty((-(-sample.size // 4), n)), np.empty((-(-sample.size // 4), n))
    for rows in np.array_split(sample, 4):
        d2, g = dist[: rows.size], dots[: rows.size]
        np.add(norms[rows, None], norms, out=d2)
        d2 -= np.matmul(2.0 * features[rows], features.T, out=g)
        np.maximum(d2, 0.0, out=d2)
        d2 *= -0.5
        exact.append(np.exp(d2, out=d2).sum(axis=1))
    return lattice, _median(approx / np.concatenate(exact))


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, to the bit: the mean of its middle pair."""
    r, k = np.sort(x), x.size
    return float(0.5 * (r[(k - 1) // 2] + r[k // 2]))


def _gaussian_band(size: int, theta: float) -> list[tuple[slice, slice, np.ndarray]]:
    """The 1-D Gaussian matrix exp(-(a - b)^2 / (2 theta^2)) over ``size``
    positions as (rows, columns, block) pieces that cover its band. Weights
    more than 10 theta off the diagonal, below e^-50, are left out."""
    a = np.arange(size, dtype=np.float64)
    reach = math.ceil(min(10.0 * theta, size))
    pieces = []
    for s in range(0, size, _SPATIAL_BLOCK):
        rows = slice(s, min(size, s + _SPATIAL_BLOCK))
        cols = slice(max(0, s - reach), min(size, s + _SPATIAL_BLOCK + reach))
        pieces.append((rows, cols, np.exp(-np.subtract.outer(a[rows], a[cols]) ** 2 / (2.0 * theta**2))))
    return pieces


def _lattice_messages(image: np.ndarray, params: CrfParams):
    h, w, _ = image.shape
    bilateral = None
    if params.w1 > 0.0:
        pos, col = _pixel_features(image)
        features = np.hstack([
            pos * min(1.0 / params.theta_alpha, _MAX_FEATURE_STEP),
            col * min(1.0 / params.theta_beta, _MAX_FEATURE_STEP),
        ])
        del pos, col
        lattice, c = _lattice_term(features)
        bilateral = params.w1 / c, lattice
    # The spatial Gaussian factors into one over rows and one over columns.
    g_y, g_x = (_gaussian_band(size, params.theta_gamma) for size in (h, w))

    def messages(q):
        # sum_{j != i} k(i, j) q_j: each term's sums minus its self term. The
        # lattice blurs before ``msg`` is made, which keeps it out of the peak.
        if bilateral is not None:
            gain, lattice = bilateral
            flat = q.reshape(q.shape[0], -1).T
            term = (gain * lattice.blur(flat) - params.w1 * flat).T.reshape(q.shape)
        msg = np.zeros_like(q)
        if bilateral is not None:
            msg += term
        if params.w2 > 0.0:
            # G_y @ q @ G_x, block by block; both matrices are symmetric.
            by_rows = np.empty_like(q)
            for rows, cols, g in g_y:
                by_rows[:, rows] = g @ q[:, cols]
            spatial = np.empty_like(q)
            for rows, cols, g in g_x:
                spatial[:, :, rows] = by_rows[:, :, cols] @ g.T
            msg += params.w2 * (spatial - q)
        return msg

    return messages


def mean_field(unary: np.ndarray, image: np.ndarray, params: CrfParams) -> tuple[np.ndarray, np.ndarray]:
    """Run mean-field inference; returns (uint8 label map, final marginals).

    The marginals start as the softmax of the negated potentials and take
    ``params.iterations`` deterministic updates. Marginals below e^-600 of
    their pixel's largest are set to 0.
    """
    u = np.asarray(unary, dtype=np.float64)
    img = np.asarray(image)
    if u.ndim != 3 or not 1 <= u.shape[0] - 1 <= MAX_CLASSES:
        raise ValueError(f"unary must be (L+1, H, W) with 1 <= L <= {MAX_CLASSES}, got {u.shape}")
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("image must be uint8 with shape (H, W, 3)")
    if img.shape[:2] != u.shape[1:]:
        raise ValueError(f"image {img.shape[:2]} and unary {u.shape[1:]} resolutions differ")
    if not (u.min() >= 0.0 and u.max() <= 1.0):  # written so that NaN fails too
        raise ValueError("unary scores must lie in [0, 1]")
    psi = _unary_potentials(u)
    messages = _lattice_messages(img, params)
    q = _update(psi, np.zeros_like(psi))  # softmax of negated potentials
    for _ in range(params.iterations):
        q = _update(psi, messages(q))
    return q.argmax(axis=0).astype(np.uint8), q
