#!/usr/bin/env python3
"""Generating pixel-level pseudo labels for one image.

Two label maps are produced and cross-checked:

* CRF labels: class evidence maps + the background attention map form a
  unary score stack; fully-connected mean-field inference with a
  color-sensitive pairwise kernel snaps the result to image edges.
* retrieval labels: mean features of each CRF class act as prototypes and
  every pixel takes the class of its nearest prototype (by cosine).

Where the two maps agree we trust the label; where they disagree the fused
map says IGNORE. Artifacts are written to demo_out/.
"""

from pathlib import Path

import numpy as np

from bana import fileio
from bana.clshead import cam, init_head, sgd_train
from bana.core import nearest_resize
from bana.crf import CrfParams, build_unary, mean_field
from bana.pipeline import collect_training_samples
from bana.pseudolabel import extract_prototypes, filling_rate, fuse_labels, retrieval_labels
from bana.bgattn import attention_map, extract_queries
from bana.core import build_background_mask, resize_boxes
from bana.synth import synth_corpus

out_dir = Path(__file__).resolve().parent / "demo_out"
out_dir.mkdir(exist_ok=True)

# --- a small corpus and a classification head trained on it -----------------
corpus = out_dir / "corpus"
synth_corpus(corpus, seed=4, num_images=8, size=64, num_classes=3)

xs, ys = [], []
for p in sorted((corpus / "features").glob("*.btf")):
    f = fileio.read_tensor(p, expected_rank=3)
    b = fileio.read_boxes(corpus / "boxes" / (p.stem + ".json"))
    x, y = collect_training_samples(f, b, grid_size=4)
    xs.append(x)
    ys.append(y)
head, losses = sgd_train(
    init_head(3, 8, seed=0),
    np.concatenate(xs),
    np.concatenate(ys),
    epochs=40,
    lr=0.2,
    seed=0,
)
print(f"classification head trained: loss {losses[0]:.3f} -> {losses[-1]:.3f}")

# --- pseudo labels for one image --------------------------------------------
image_id = "0003"
features = fileio.read_tensor(corpus / "features" / f"{image_id}.btf", expected_rank=3)
boxes = fileio.read_boxes(corpus / "boxes" / f"{image_id}.json")
image = fileio.read_image(corpus / "images" / f"{image_id}.ppm")
gt = fileio.read_label_map(corpus / "gt" / f"{image_id}.pgm", 3)
fh, fw = features.shape[1:]

resized = resize_boxes(boxes, fh, fw)
mask = build_background_mask(resized, fh, fw)
attn = attention_map(features, extract_queries(features, mask, 1), resized)

evidence = {c: cam(features, head, c) for c in boxes.class_ids()}
print(f"classes in this image: {boxes.class_ids()}")

# label mode: only near-certain background (attention >= 0.99) votes for it
unary = build_unary(evidence, attn, boxes, num_classes=3, tau=0.99)
params = CrfParams(theta_alpha=5.0, theta_beta=12.0, theta_gamma=3.0, iterations=5)
y_crf, marginals = mean_field(unary, image, params)

protos = extract_prototypes(features, nearest_resize(y_crf, fh, fw))
y_ret = retrieval_labels(features, protos, 64, 64)
fused = fuse_labels(y_crf, y_ret)


def miou_vs_gt(labels):
    from bana.metrics import confusion, miou

    if (labels == 255).any():  # scoring skips pixels the map declines to label
        return miou(confusion(gt, labels, 3))[0]
    return miou(confusion(labels, gt, 3))[0]


print(f"\nCRF labels        mIoU vs ground truth: {miou_vs_gt(y_crf):.3f}")
print(f"retrieval labels  mIoU vs ground truth: {miou_vs_gt(y_ret):.3f}")
print(f"fused (claimed px) mIoU:                {miou_vs_gt(fused.fused):.3f}")
print(f"fused coverage: {(fused.fused != 255).mean():.1%} of pixels kept")

rates = filling_rate(fused.fused, boxes)
for b, r in zip(boxes.boxes, rates):
    print(f"  box class {b.class_id}: filling rate {r:.2f}")

for name, arr in [("crf", y_crf), ("ret", y_ret), ("fused", fused.fused)]:
    fileio.write_label_map(out_dir / f"{image_id}_{name}.pgm", arr)
fileio.write_tensor(out_dir / f"{image_id}_attention.btf", attn.astype(np.float32))
print(f"\nlabel maps and attention written to {out_dir}/")
