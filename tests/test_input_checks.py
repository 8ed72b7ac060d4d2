"""The outside-input checks that no other test reaches: one row per ``raise``, each with its message."""

import json
import re

import numpy as np
import pytest

from bana import fileio, pipeline
from bana.bgattn import bap_pool, extract_queries
from bana.clshead import ClassifierHead
from bana.core import BBox, BoxSet, as_feature_map, bilinear_resize, nearest_resize, resize_boxes, validate_label_map
from bana.crf import CrfParams, build_unary, mean_field
from bana.nal import confidence_map, prepare_seg_sample
from bana.pseudolabel import extract_prototypes, filling_rate, fuse_labels, retrieval_labels

F = np.ones((2, 3, 3))  # a 2-channel 3x3 feature map
Y = np.zeros((2, 2), dtype=np.uint8)  # a label map of another grid
A = np.zeros((2, 2))  # an attention map


def _boxes_file(tmp, records):
    path = tmp / "boxes.json"
    path.write_text(json.dumps({"width": 4, "height": 4, "boxes": records}))
    return path


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda tmp: extract_queries(F, np.ones((3, 3)), 0), "grid_size must be >= 1, got 0",
                 id="bgattn.extract_queries-grid"),
    pytest.param(lambda tmp: extract_queries(F, np.ones((3, 4)), 1),
                 "mask shape (3, 4) does not match feature grid (3, 3)", id="bgattn.extract_queries-mask"),
    pytest.param(lambda tmp: bap_pool(F, np.zeros((3, 4)), BBox(1, 0, 0, 2, 2)),
                 "attention shape (3, 4) does not match feature grid (3, 3)", id="bgattn.bap_pool-attention"),
    pytest.param(lambda tmp: bap_pool(F, np.zeros((3, 3)), BBox(1, 0, 0, 4, 2)), "exceeds the 3x3 feature grid",
                 id="bgattn.bap_pool-box"),
    pytest.param(lambda tmp: BoxSet(0, 4), "image dimensions must be >= 1", id="core.BoxSet-dims"),
    pytest.param(lambda tmp: resize_boxes(BoxSet(4, 4), 0, 2), "feature grid dimensions must be >= 1",
                 id="core.resize_boxes-grid"),
    pytest.param(lambda tmp: as_feature_map(np.ones((2, 3))), "feature map must have shape (C, H, W), got (2, 3)",
                 id="core.as_feature_map-rank"),
    pytest.param(lambda tmp: as_feature_map(np.full((1, 1, 1), np.nan)), "feature map contains non-finite values",
                 id="core.as_feature_map-finite"),
    pytest.param(lambda tmp: validate_label_map(np.zeros((2, 2, 2), dtype=np.uint8)),
                 "label map must have shape (H, W), got (2, 2, 2)", id="core.validate_label_map-rank"),
    pytest.param(lambda tmp: bilinear_resize(A, 0, 2), "output dimensions must be >= 1",
                 id="core.bilinear_resize-dims"),
    pytest.param(lambda tmp: nearest_resize(Y, 2, 0), "output dimensions must be >= 1",
                 id="core.nearest_resize-dims"),
    pytest.param(lambda tmp: bilinear_resize(np.zeros(4), 2, 2), "expected (H, W) or (C, H, W), got (4,)",
                 id="core.bilinear_resize-rank"),
    pytest.param(lambda tmp: build_unary({}, np.zeros(4), BoxSet(4, 4), 1, 0.5), "attention must be (h, w), got (4,)",
                 id="crf.build_unary-attention"),
    pytest.param(lambda tmp: build_unary({}, A, BoxSet(4, 4), 0, 0.5), "num_classes must be >= 1",
                 id="crf.build_unary-classes"),
    pytest.param(lambda tmp: build_unary({}, A, BoxSet(4, 4), 1, 1.5), "tau must be in [0, 1], got 1.5",
                 id="crf.build_unary-tau"),
    pytest.param(lambda tmp: build_unary({2: A}, A, BoxSet(4, 4), 1, 0.5), "cam class id 2 outside [1, 1]",
                 id="crf.build_unary-cam-class"),
    pytest.param(lambda tmp: mean_field(np.full((2, 2, 2), 0.5), np.zeros((2, 2, 3), np.float32), CrfParams()),
                 "image must be uint8 with shape (H, W, 3)", id="crf.mean_field-image"),
    pytest.param(lambda tmp: fileio.write_tensor(tmp / "t.btf", np.zeros((1,) * 9)),
                 "tensor rank must be in 1..8, got 9", id="fileio.write_tensor-rank"),
    pytest.param(lambda tmp: fileio.write_image(tmp / "i.ppm", A), "image must have shape (H, W, 3), got (2, 2)",
                 id="fileio.write_image-shape"),
    pytest.param(lambda tmp: fileio.write_image(tmp / "i.ppm", np.zeros((2, 2, 3), np.float32)),
                 "image must be uint8, got float32", id="fileio.write_image-dtype"),
    pytest.param(lambda tmp: fileio.read_boxes(_boxes_file(tmp, [1])), "boxes.json: boxes[0] must be an object",
                 id="fileio.read_boxes-record"),
    pytest.param(lambda tmp: prepare_seg_sample(F, fuse_labels(Y, Y)),
                 "fused labels (2, 2) do not match feature grid (3, 3)", id="nal.prepare_seg_sample-grid"),
    pytest.param(lambda tmp: confidence_map(F, Y, 7.0), "labels (2, 2) do not match correlation maps (3, 3)",
                 id="nal.confidence_map-grid"),
    pytest.param(lambda tmp: pipeline.nal_train(tmp, tmp, tmp, ["0000"], 1, confidence_every=-1),
                 "confidence_every must be >= 0, got -1", id="pipeline.nal_train-confidence-every"),
    pytest.param(lambda tmp: extract_prototypes(F, Y), "labels (2, 2) do not match feature grid (3, 3)",
                 id="pseudolabel.extract_prototypes-grid"),
    pytest.param(lambda tmp: retrieval_labels(F, {1: np.ones(3)}, 3, 3),
                 "prototype dim 3 does not match feature channels 2", id="pseudolabel.retrieval_labels-dim"),
    pytest.param(lambda tmp: filling_rate(Y, BoxSet(4, 4)), "labels (2, 2) do not match box frame (4, 4)",
                 id="pseudolabel.filling_rate-frame"),
    pytest.param(lambda tmp: ClassifierHead(weights=np.array([[0.0, np.nan], [0.0, 0.0]])),
                 "weights contain non-finite values", id="clshead.ClassifierHead-finite"),
])
def test_input_check_raises_its_message(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
    assert not (tmp_path / "t.btf").exists() and not (tmp_path / "i.ppm").exists()
