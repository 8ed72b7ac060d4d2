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

from . import bgattn, clshead, core, crf, fileio, metrics, nal, pipeline, pseudolabel, synth
