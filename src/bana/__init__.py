"""Pixel-level pseudo segmentation labels from bounding-box annotations.

The package turns per-image feature maps plus class-labeled boxes into
dense pseudo labels and trains classifier heads on them:

* :mod:`bana.core`        -- domain types, box geometry, map resizing;
* :mod:`bana.fileio`      -- bit-exact tensor/label/image/box file formats;
* :mod:`bana.bgattn`      -- background queries, attention, weighted pooling;
* :mod:`bana.clshead`     -- softmax heads, manual gradients, evidence maps;
* :mod:`bana.crf`         -- unary construction and mean-field inference;
* :mod:`bana.pseudolabel` -- prototype retrieval, fusion, filling rates;
* :mod:`bana.nal`         -- the noise-aware loss and segmentation training;
* :mod:`bana.metrics`     -- confusion matrices, IoU, pixel accuracy;
* :mod:`bana.synth`       -- deterministic synthetic corpora;
* :mod:`bana.pipeline`    -- the end-to-end staged pipeline;
* :mod:`bana.cli`         -- the ``bana`` command.
"""

from .core import IGNORE, BBox, BoxSet, build_background_mask, resize_boxes
from .bgattn import attention_map, bap_pool, extract_queries
from .clshead import ClassifierHead, cam, ce_loss_and_grad, init_head, logits, sgd_train
from .crf import CrfParams, build_unary, mean_field
from .pseudolabel import FusedLabels, extract_prototypes, filling_rate, fuse_labels, retrieval_labels
from .nal import confidence_map, correlation_maps, nal_loss_and_grad, prepare_seg_sample, train_seg_head
from .metrics import confusion, miou, pixel_accuracy
from .pipeline import PipelineConfig, run_pipeline
from .synth import synth_corpus

__version__ = "0.1.0"

__all__ = [
    "IGNORE",
    "BBox",
    "BoxSet",
    "build_background_mask",
    "resize_boxes",
    "attention_map",
    "bap_pool",
    "extract_queries",
    "ClassifierHead",
    "cam",
    "ce_loss_and_grad",
    "init_head",
    "logits",
    "sgd_train",
    "CrfParams",
    "build_unary",
    "mean_field",
    "FusedLabels",
    "extract_prototypes",
    "filling_rate",
    "fuse_labels",
    "retrieval_labels",
    "confidence_map",
    "correlation_maps",
    "nal_loss_and_grad",
    "prepare_seg_sample",
    "train_seg_head",
    "confusion",
    "miou",
    "pixel_accuracy",
    "PipelineConfig",
    "run_pipeline",
    "synth_corpus",
    "__version__",
]
