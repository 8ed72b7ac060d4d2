"""Synthetic corpus: determinism, geometry guarantees, feature separation."""

import json

import numpy as np
import pytest

from bana import fileio
from bana.synth import synth_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "corpus"
    manifest = synth_corpus(out, seed=3, num_images=8, size=32, num_classes=3)
    return out, manifest


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_corpus(a, seed=5, num_images=3, size=32)
        synth_corpus(b, seed=5, num_images=3, size=32)
        for rel in ("meta.json", "images/0001.ppm", "gt/0002.pgm", "boxes/0000.json", "features/0001.btf"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_corpus(a, seed=5, num_images=2, size=32)
        synth_corpus(b, seed=6, num_images=2, size=32)
        assert (a / "gt/0000.pgm").read_bytes() != (b / "gt/0000.pgm").read_bytes()


class TestGeometry:
    def test_boxes_are_tight_and_disjoint(self, corpus):
        out, manifest = corpus
        for image_id in manifest["ids"]:
            gt = fileio.read_label_map(out / "gt" / f"{image_id}.pgm", manifest["num_classes"])
            boxes = fileio.read_boxes(out / "boxes" / f"{image_id}.json")
            covered = np.zeros_like(gt, dtype=np.int32)
            for b in boxes.boxes:
                covered[b.slices()] += 1
                patch = gt[b.slices()]
                assert np.any(patch == b.class_id)
                # rows/columns touching the box border carry the shape
                assert np.any(patch[0] == b.class_id) or np.any(patch[:, 0] == b.class_id)
            assert covered.max() <= 1  # boxes never overlap
            assert np.all(gt[covered == 0] == 0)  # foreground only inside boxes

    def test_every_foreground_pixel_is_inside_its_class_box(self, corpus):
        out, manifest = corpus
        for image_id in manifest["ids"]:
            gt = fileio.read_label_map(out / "gt" / f"{image_id}.pgm", manifest["num_classes"])
            boxes = fileio.read_boxes(out / "boxes" / f"{image_id}.json")
            claimed = np.zeros_like(gt, dtype=bool)
            for b in boxes.boxes:
                inside = np.zeros_like(gt, dtype=bool)
                inside[b.slices()] = True
                claimed |= inside & (gt == b.class_id)
            assert np.array_equal(claimed, gt > 0)


class TestFeatures:
    def test_same_class_cosine_exceeds_cross_class(self, corpus):
        out, manifest = corpus
        stride = manifest["feat_stride"]
        same, cross = [], []
        for image_id in manifest["ids"]:
            f = fileio.read_tensor(out / "features" / f"{image_id}.btf", expected_rank=3).astype(np.float64)
            gt = fileio.read_label_map(out / "gt" / f"{image_id}.pgm", manifest["num_classes"])
            cell_label = gt[stride // 2 :: stride, stride // 2 :: stride]
            flat = f.reshape(f.shape[0], -1)
            fhat = flat / np.linalg.norm(flat, axis=0, keepdims=True)
            sims = fhat.T @ fhat
            lab = cell_label.ravel()
            same_mask = lab[:, None] == lab[None, :]
            off_diag = ~np.eye(lab.size, dtype=bool)
            same.append(sims[same_mask & off_diag].mean())
            cross_vals = sims[~same_mask]
            if cross_vals.size:
                cross.append(cross_vals.mean())
        assert np.mean(same) > np.mean(cross) + 0.3

    def test_feature_shape_matches_manifest(self, corpus):
        out, manifest = corpus
        f = fileio.read_tensor(out / "features" / "0000.btf", expected_rank=3)
        assert f.shape == (
            manifest["feat_dim"],
            manifest["size"] // manifest["feat_stride"],
            manifest["size"] // manifest["feat_stride"],
        )


class TestGuards:
    def test_size_cap(self, tmp_path):
        with pytest.raises(ValueError, match="128"):
            synth_corpus(tmp_path / "c", size=256)

    def test_too_small_size_rejected_before_writing(self, tmp_path):
        # A disk drawn in a 2x2 slot can be empty.
        with pytest.raises(ValueError, match=r"^size must be in \[8, 128\], got 4"):
            synth_corpus(tmp_path / "c", num_images=4, size=4)
        assert not (tmp_path / "c").exists()

    def test_smallest_size_writes_a_full_corpus(self, tmp_path):
        manifest = synth_corpus(tmp_path / "c", seed=0, num_images=20, size=8)
        for image_id in manifest["ids"]:
            boxes = fileio.read_boxes(tmp_path / "c" / "boxes" / f"{image_id}.json")
            assert 1 <= len(boxes.boxes) <= 3

    @pytest.mark.parametrize("setting, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"num_classes": 0}, "num_classes must be >= 1, got 0"),
        ({"num_classes": 8}, "feature dim 8 must be >= num_classes \\+ 1"),
    ], ids=["negative-seed", "no-classes", "more-classes-than-feature-dims"])
    def test_bad_setting_rejected_by_name_before_writing(self, tmp_path, setting, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            synth_corpus(tmp_path / "c", num_images=2, size=16, **setting)
        assert not (tmp_path / "c").exists()

    def test_stride_must_divide_size(self, tmp_path):
        with pytest.raises(ValueError, match="multiple"):
            synth_corpus(tmp_path / "c", size=30, feat_stride=4)

    def test_manifest_round_trip(self, corpus):
        out, manifest = corpus
        assert json.loads((out / "meta.json").read_text("ascii")) == manifest
