#!/usr/bin/env python3
"""From boxes to foreground features, step by step.

A bounding box mixes object and background pixels. The trick for telling
them apart without pixel labels: background looks alike across an image, so
pixels inside a box that resemble the *outside* of the boxes are probably
background. This script walks the whole chain on one tiny synthetic image:

    background mask -> grid queries -> attention map -> weighted pooling
"""

import numpy as np

from bana.bgattn import attention_map, bap_pool, extract_queries
from bana.core import BBox, BoxSet, build_background_mask

rng = np.random.default_rng(0)

# --- a toy feature map: background direction vs. object direction ----------
# 8x8 grid, 4 channels; the "object" occupies a 4x3 block inside the box.
C, H, W = 4, 8, 8
bg_dir = np.array([1.0, 0.0, 0.0, 0.0])
obj_dir = np.array([0.0, 1.0, 0.0, 0.0])

features = np.tile(bg_dir[:, None, None], (1, H, W))
features[:, 2:6, 3:6] = obj_dir[:, None, None]
features += rng.normal(0.0, 0.15, size=features.shape)

# The annotated box is sloppy: it includes a one-cell background margin.
boxes = BoxSet(W, H, [BBox(1, 2, 1, 7, 7)])

# --- definite background and grid queries ----------------------------------
mask = build_background_mask(boxes, H, W)
print(f"definite background covers {mask.mean():.0%} of the grid")

queries = extract_queries(features, mask, grid_size=2)
print(f"grid 2x2 -> {len(queries)} valid cells (cells buried in boxes would be skipped)")

# --- the attention map ------------------------------------------------------
attn = attention_map(features, queries, boxes)
print("\nattention map (1.0 = certainly background):")
for row in attn:
    print("  " + " ".join(f"{v:4.2f}" for v in row))

inside_obj = attn[2:6, 3:6].mean()
inside_margin = attn[1:7, 2:3].mean()
print(f"\nmean attention on true object pixels:      {inside_obj:.2f}")
print(f"mean attention on the box's bg margin:     {inside_margin:.2f}")

# --- pooling: attention-weighted vs. plain ---------------------------------
box = boxes.boxes[0]
pooled = bap_pool(features, attn, box)
gap = features[:, box.ymin : box.ymax, box.xmin : box.xmax].mean(axis=(1, 2))


def cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


print("\ncosine similarity of the pooled box feature to the true object direction:")
print(f"  attention-weighted pooling: {cos(pooled, obj_dir):.3f}")
print(f"  plain average pooling:      {cos(gap, obj_dir):.3f}")
print("\nweighting by 1 - attention pushes the descriptor toward the object,")
print("even though most of the box area is background.")
