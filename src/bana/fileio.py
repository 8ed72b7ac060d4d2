"""Bit-exact file formats shared by every pipeline stage.

* ``.btf`` tensors: magic ``BTF1``, u32 little-endian rank, that many u32
  little-endian dims, then row-major 32-bit little-endian IEEE-754 floats.
* label maps: binary PGM (``P5``), maxval 255, one byte per pixel.
* RGB images: binary PPM (``P6``), maxval 255. One reader serves both PNM
  formats, so their header rule (``#`` comments, one whitespace byte after
  maxval) and payload-size check are the same.
* boxes: a JSON object ``{"width", "height", "boxes": [{"class", "xmin",
  "ymin", "xmax", "ymax"}, ...]}``. Every JSON input (boxes, configs, head
  sidecars, corpus manifests) is parsed by :func:`read_json`.

Writers emit canonical bytes so that write -> read -> write round-trips are
byte-identical; readers report malformed input with the file offset, and a
label past the class range by its row and column. Every writer checks its
value first and then makes the file's missing parent directories, so a
directory exists only once a file has been written into it, and a rejected
value makes none.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .core import BBox, BoxSet, validate_label_map

_BTF_MAGIC = b"BTF1"
_MAX_RANK = 8


class FileFormatError(ValueError):
    """Raised when a data file is malformed; the message says where."""


def _atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    # Write-then-rename keeps partially written files out of the pipeline.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | os.PathLike, text: str) -> None:
    """Atomically write ASCII text (reports, CSV logs, config echoes)."""
    _atomic_write_bytes(path, text.encode("ascii"))


# ---------------------------------------------------------------------------
# .btf tensors
# ---------------------------------------------------------------------------


def write_tensor(path: str | os.PathLike, arr: np.ndarray) -> None:
    """Write an array as a .btf tensor (float32, little-endian, row-major)."""
    with np.errstate(over="ignore"):  # values past float32 range become inf, refused below
        a = np.ascontiguousarray(arr, dtype="<f4")
    if a.ndim < 1 or a.ndim > _MAX_RANK:
        raise ValueError(f"tensor rank must be in 1..{_MAX_RANK}, got {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: refusing to write non-finite tensor values (as float32)")
    header = _BTF_MAGIC + np.asarray([a.ndim] + list(a.shape), dtype="<u4").tobytes()
    _atomic_write_bytes(path, header + a.tobytes())


def read_tensor(path: str | os.PathLike, expected_rank: int | None = None) -> np.ndarray:
    """Read a .btf tensor; returns float32 with the stored shape."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FileFormatError(f"{path}: truncated header, expected 4 magic bytes at offset 0")
    if data[:4] != _BTF_MAGIC:
        raise FileFormatError(f"{path}: bad magic {data[:4]!r} at offset 0, expected {_BTF_MAGIC!r}")
    if len(data) < 8:
        raise FileFormatError(f"{path}: truncated header, expected u32 rank at offset 4")
    rank = int(np.frombuffer(data, dtype="<u4", count=1, offset=4)[0])
    if rank < 1 or rank > _MAX_RANK:
        raise FileFormatError(f"{path}: rank {rank} at offset 4 outside 1..{_MAX_RANK}")
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise FileFormatError(f"{path}: truncated header, expected {rank} u32 dims at offset 8")
    dims = np.frombuffer(data, dtype="<u4", count=rank, offset=8).tolist()  # Python ints: no overflow
    for i, d in enumerate(dims):
        if d < 1:
            raise FileFormatError(f"{path}: dimension {i} is {d} at offset {8 + 4 * i}, must be >= 1")
    if expected_rank is not None and rank != expected_rank:
        raise FileFormatError(f"{path}: rank {rank}, expected {expected_rank}")
    count = math.prod(dims)
    expected = count * 4
    actual = len(data) - dims_end
    if actual != expected:
        raise FileFormatError(
            f"{path}: expected {expected} payload bytes at offset {dims_end}, found {actual}"
        )
    a = np.frombuffer(data, dtype="<f4", count=count, offset=dims_end).reshape(tuple(dims))
    if not np.all(np.isfinite(a)):
        bad = int(np.flatnonzero(~np.isfinite(a.ravel()))[0])
        raise FileFormatError(f"{path}: non-finite value at offset {dims_end + 4 * bad}")
    return a.copy()


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------


def _read_pnm(path: str | os.PathLike, magic: bytes, depth: int) -> np.ndarray:
    """Read a binary PGM (depth 1) or PPM (depth 3) into (H, W, depth) uint8
    pixels. Width, height and maxval (255) have at most 9 digits each, and
    whitespace or ``#`` comments to the end of the line separate them."""
    data = Path(path).read_bytes()
    if data[:2] != magic:
        raise FileFormatError(f"{path}: bad magic {data[:2]!r} at offset 0, expected {magic!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit() or len(token) > 9:  # int() refuses over 4300 digits
            raise FileFormatError(f"{path}: expected integer header field of at most 9 digits at offset {start}")
        fields.append(int(token))
    if pos >= len(data):
        raise FileFormatError(f"{path}: missing whitespace after maxval at offset {pos}")
    pos += 1  # exactly one whitespace byte separates the header from pixels
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}: image dimensions {w}x{h} must be >= 1")
    if maxval != 255:
        raise FileFormatError(f"{path}: maxval {maxval}, only 255 is supported")
    expected = w * h * depth
    actual = len(data) - pos
    if actual != expected:
        raise FileFormatError(f"{path}: expected {expected} pixel bytes at offset {pos}, found {actual}")
    return np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos).reshape(h, w, depth)


def write_label_map(path: str | os.PathLike, labels: np.ndarray) -> None:
    """Write an (H, W) uint8 label map as binary PGM."""
    y = validate_label_map(labels)
    h, w = y.shape
    _atomic_write_bytes(path, b"P5\n%d %d\n255\n" % (w, h) + y.tobytes())


def read_label_map(path: str | os.PathLike, num_classes: int | None = None) -> np.ndarray:
    """Read a binary PGM label map, checked by ``core.validate_label_map``.

    With ``num_classes=L``, a value in (L, 255) is reported by its row and
    column: labels are class indices 0..L or the IGNORE marker 255.
    """
    y = _read_pnm(path, b"P5", 1)[:, :, 0]
    try:
        return validate_label_map(y, num_classes).copy()
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from e


def write_image(path: str | os.PathLike, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM."""
    img = np.asarray(rgb)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must have shape (H, W, 3), got {img.shape}")
    if img.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got {img.dtype}")
    h, w, _ = img.shape
    _atomic_write_bytes(path, b"P6\n%d %d\n255\n" % (w, h) + img.tobytes())


def read_image(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PPM image into an (H, W, 3) uint8 array."""
    return _read_pnm(path, b"P6", 3).copy()


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def read_json(path: str | os.PathLike, required: dict[str, tuple[type, ...]] | None = None) -> dict:
    """Read an ASCII JSON object; each ``required`` key must be present with a
    value whose type() is one of its types (so bool, a subclass of int, is not
    an int)."""
    try:
        obj = json.loads(Path(path).read_text("ascii"))
    except (ValueError, RecursionError) as e:  # ValueError covers JSON and decoding errors
        raise FileFormatError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    for key, kinds in (required or {}).items():
        if key not in obj:
            raise FileFormatError(f"{path}: missing required key '{key}'")
        if type(obj[key]) not in kinds:
            raise FileFormatError(f"{path}: '{key}' has the wrong type: {obj[key]!r}")
    return obj


def write_boxes(path: str | os.PathLike, boxes: BoxSet) -> None:
    obj = {
        "width": boxes.image_width,
        "height": boxes.image_height,
        "boxes": [
            {"class": b.class_id, "xmin": b.xmin, "ymin": b.ymin, "xmax": b.xmax, "ymax": b.ymax}
            for b in boxes.boxes
        ],
    }
    _atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii"))


def read_boxes(path: str | os.PathLike) -> BoxSet:
    obj = read_json(path, {"width": (int,), "height": (int,), "boxes": (list,)})
    parsed = []
    for i, rec in enumerate(obj["boxes"]):
        if not isinstance(rec, dict):
            raise FileFormatError(f"{path}: boxes[{i}] must be an object")
        try:
            vals = {k: rec[k] for k in ("class", "xmin", "ymin", "xmax", "ymax")}
        except KeyError as e:
            raise FileFormatError(f"{path}: boxes[{i}] missing key {e.args[0]!r}") from e
        if not all(type(v) is int for v in vals.values()):
            raise FileFormatError(f"{path}: boxes[{i}] fields must be integers")
        try:
            parsed.append(BBox(vals["class"], vals["xmin"], vals["ymin"], vals["xmax"], vals["ymax"]))
        except ValueError as e:
            raise FileFormatError(f"{path}: boxes[{i}]: {e}") from e
    try:
        return BoxSet(image_width=obj["width"], image_height=obj["height"], boxes=parsed)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from e
