"""Output checks for one measured pipeline run, independent of the package's readers.

An operation is one stage call, one stage's artifact, or one image's three
label maps. A stage call that raised fails; so does an artifact that is
missing or invalid, and an image whose label maps cannot be read, do not
match the image's shape, or hold a value outside ``0..L`` and 255.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

IGNORE = 255
_PNM = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s")
# Artifact each stage must leave behind; eval's metrics.json is checked in full.
STAGE_ARTIFACTS = {"train-head": "head/classifier.btf", "labels": "filling_rate.csv", "nal-train": "seg/seg_head.btf"}
_SCORE_KEYS = ("miou", "per_class_iou", "pixel_accuracy")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def read_pnm(path: Path, magic: bytes) -> tuple[int, int, bytes]:
    """(width, height, pixel bytes) of a binary PGM/PPM with maxval 255."""
    data = path.read_bytes()
    m = _PNM.match(data)
    if m is None or m.group(1) != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file with maxval 255")
    w, h = int(m.group(2)), int(m.group(3))
    pixels = data[m.end():]
    if len(pixels) != w * h * (3 if magic == b"P6" else 1):
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for a {w}x{h} image")
    return w, h, pixels


def label_problem(corpus: Path, out: Path, image_id: str, num_classes: int) -> str | None:
    """Why the image's crf/ret/fused label maps are invalid, or None."""
    try:
        shape = read_pnm(corpus / "images" / f"{image_id}.ppm", b"P6")[:2]
        for kind in ("crf", "ret", "fused"):
            path = out / "labels" / kind / f"{image_id}.pgm"
            w, h, pixels = read_pnm(path, b"P5")
            if (w, h) != shape:
                return f"{path}: {w}x{h} label map for a {shape[0]}x{shape[1]} image"
            bad = {v for v in set(pixels) if v > num_classes and v != IGNORE}
            if bad:
                return f"{path}: label values {sorted(bad)} outside 0..{num_classes} and {IGNORE}"
    except (OSError, ValueError) as e:
        return str(e)
    return None


def _score_problem(score, where: str) -> str | None:
    if not isinstance(score, dict) or any(k not in score for k in _SCORE_KEYS):
        return f"metrics.json: {where} lacks one of {_SCORE_KEYS}"
    for key in ("miou", "pixel_accuracy"):
        v = score[key]
        if not isinstance(v, float) or not 0.0 <= v <= 1.0:
            return f"metrics.json: {where}.{key} = {v!r} is not in [0, 1]"
    return None


def metrics_problem(out: Path, miou_floor: float | None) -> str | None:
    """Why metrics.json is invalid (keys, ranges, the fused-mIoU floor), or None."""
    try:
        report = json.loads((out / "metrics.json").read_text("ascii"))
        pseudo = report["pseudo_labels"]
        checks = [_score_problem(pseudo[k], f"pseudo_labels.{k}") for k in ("crf", "ret", "fused_claimed")]
        checks.append(_score_problem(report["segmentation"], "segmentation"))
        coverage = pseudo["fused_coverage"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"metrics.json: {type(e).__name__}: {e}"
    problem = next((c for c in checks if c is not None), None)
    if problem is not None:
        return problem
    if not isinstance(coverage, float) or not 0.0 < coverage <= 1.0:
        return f"metrics.json: fused_coverage = {coverage!r} is not in (0, 1]"
    fused = pseudo["fused_claimed"]["miou"]
    if miou_floor is not None and fused < miou_floor:
        return f"metrics.json: fused mIoU {fused:.4f} is below the acceptance floor {miou_floor}"
    return None


def check_outputs(
    corpus: Path,
    out: Path,
    ids: list[str],
    num_classes: int,
    calls: list[tuple[str, str | None]],
    miou_floor: float | None,
) -> Outcome:
    """Count the operations of one measured run and those that failed.

    ``calls`` holds every stage call made, as (stage, the exception it
    raised or None). Each stage's artifact and each image's label maps are
    checked once, after the last call.
    """
    outcome = Outcome()
    for _, error in calls:
        outcome.record(error)
    stages = dict(calls)
    for stage in stages:
        if stage == "eval":
            outcome.record(metrics_problem(out, miou_floor))
        else:
            outcome.record(None if (out / STAGE_ARTIFACTS[stage]).is_file() else f"{stage}: no {STAGE_ARTIFACTS[stage]}")
    if "labels" in stages:
        for image_id in ids:
            outcome.record(label_problem(corpus, out, image_id, num_classes))
    return outcome
