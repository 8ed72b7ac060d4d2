"""Four-stage pipeline over a directory corpus, plus controlled experiments.

Stages (each resumable on its own, reading earlier artifacts from disk):

1. ``train-head``: pool per-box foreground features and background queries
   from every image and fit the (L+1)-way classification head.
2. ``labels``: per image, build the attention map and class evidence maps,
   run CRF inference for the first pseudo-label map, retrieve a second one
   from class prototypes, and fuse them (disagreements become IGNORE).
3. ``nal-train``: train a cosine segmentation head on the fused labels with
   the noise-aware loss.
4. ``eval``: score pseudo labels and segmentation predictions against
   ground truth (when the corpus has one) into metrics.json.

Each stage has one implementation (``train_head``, ``generate_labels_for_image``,
``nal_train``, ``label_confusion``) taking explicit inputs; the ``run_*_stage``
functions feed it from a config and the ``bana`` subcommands from their flags.
Every stage is deterministic under a fixed config: rerunning produces
byte-identical artifacts. Per-image work is independent, so the labels
stage can fan out over a worker pool without changing any output.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import clshead, fileio, metrics, nal
from .bgattn import attention_map, bap_pool, extract_queries
from .clshead import ClassifierHead, cam, init_head, sgd_train
from .core import IGNORE, BoxSet, build_background_mask, nearest_resize, resize_boxes
from .crf import CrfParams, build_unary, mean_field
from .pseudolabel import FusedLabels, extract_prototypes, filling_rate, fuse_labels, retrieval_labels

STAGES = ("train-head", "labels", "nal-train", "eval")


class PipelineError(ValueError):
    """A stage cannot run: missing inputs or broken stage order."""


@dataclass
class PipelineConfig:
    """Paths, stage toggles, and every numeric knob of the pipeline.

    The CRF defaults here are sized for small synthetic corpora; the
    stand-alone ``bana crf`` command keeps the conventional full-image
    defaults of :class:`~bana.crf.CrfParams`.
    """

    corpus_dir: str
    out_dir: str
    stages: list[str] = field(default_factory=lambda: list(STAGES))
    num_classes: int | None = None
    seed: int = 0
    jobs: int = 1
    # classification head (stage 1)
    grid_size_train: int = 4
    head_epochs: int = 60
    head_lr: float = 0.2
    head_lr_drop_epoch: int | None = 40
    head_batch_size: int = 32
    head_mode: str = "dot"
    head_scale: float = 15.0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    # pseudo labels (stage 2)
    grid_size_label: int = 1
    attn_threshold: float = 0.99
    crf_w1: float = 4.0
    crf_w2: float = 3.0
    crf_theta_alpha: float = 5.0
    crf_theta_beta: float = 12.0
    crf_theta_gamma: float = 3.0
    crf_iterations: int = 5
    crf_unary_floor: float = 1e-5
    dump_attention: bool = False
    # noise-aware training (stage 3)
    gamma: float = 7.0
    lam: float = 0.1
    seg_epochs: int = 30
    seg_lr: float = 0.05
    seg_scale: float = 15.0
    dump_confidence_every: int = 0

    def __post_init__(self) -> None:
        bad = [s for s in self.stages if s not in STAGES]
        if bad:
            raise ValueError(f"unknown stages {bad}; valid stages are {list(STAGES)}")
        self.stages = [s for s in STAGES if s in self.stages]
        if self.grid_size_train < 1 or self.grid_size_label < 1:
            raise ValueError("grid sizes must be >= 1")
        if not (0.0 <= self.attn_threshold <= 1.0):
            raise ValueError("attn_threshold must lie in [0, 1]")
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.head_epochs < 1 or self.seg_epochs < 1:
            raise ValueError("head_epochs and seg_epochs must be >= 1")

    def crf_params(self) -> CrfParams:
        return CrfParams(
            w1=self.crf_w1,
            w2=self.crf_w2,
            theta_alpha=self.crf_theta_alpha,
            theta_beta=self.crf_theta_beta,
            theta_gamma=self.crf_theta_gamma,
            iterations=self.crf_iterations,
            unary_floor=self.crf_unary_floor,
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text("ascii")))


# ---------------------------------------------------------------------------
# corpus access
# ---------------------------------------------------------------------------


def _require(path: Path, stage: str, what: str) -> Path:
    if not path.exists():
        raise PipelineError(f"stage '{stage}': missing {what} at {path}")
    return path


def stage_ids(directory: Path, suffix: str, stage: str) -> list[str]:
    ids = sorted(p.stem for p in _require(directory, stage, "input directory").glob("*" + suffix))
    if not ids:
        raise PipelineError(f"stage '{stage}': no {suffix} files under {directory}")
    return ids


def box_class_ids(boxes_dir: Path, ids: list[str]) -> Iterator[int]:
    for image_id in ids:
        yield from (b.class_id for b in fileio.read_boxes(boxes_dir / f"{image_id}.json").boxes)


def label_class_ids(labels_dir: Path, ids: list[str]) -> Iterator[int]:
    for image_id in ids:
        y = fileio.read_label_map(labels_dir / f"{image_id}.pgm")
        yield from np.unique(y[y != IGNORE]).tolist()


def resolve_num_classes(num_classes: int | None, meta: Path | None, class_ids: Iterable[int]) -> int:
    """The number of object classes L, by one rule for every caller: an explicit
    ``num_classes``, else the one recorded in the corpus ``meta`` file when given
    and present, else the highest id in ``class_ids`` (consumed only then)."""
    if num_classes is not None:
        return num_classes
    if meta is not None and meta.exists():
        return int(json.loads(meta.read_text("ascii"))["num_classes"])
    top = max(class_ids, default=0)
    if top < 1:
        raise PipelineError("cannot infer num_classes: no object class in the annotations; give it explicitly")
    return top


def _corpus_num_classes(cfg: PipelineConfig, corpus: Path, ids: list[str]) -> int:
    return resolve_num_classes(cfg.num_classes, corpus / "meta.json", box_class_ids(corpus / "boxes", ids))


# ---------------------------------------------------------------------------
# stage 1: classification head
# ---------------------------------------------------------------------------


def collect_training_samples(
    features: np.ndarray, boxes: BoxSet, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-box pooled foreground features (box class) and background queries
    (class 0) of one image, as an (n, C), (n,) pair."""
    fh, fw = features.shape[1], features.shape[2]
    resized = resize_boxes(boxes, fh, fw)
    mask = build_background_mask(resized, fh, fw)
    queries = extract_queries(features, mask, grid_size)
    attn = attention_map(features, queries, resized)
    vecs, targets = [], []
    for b in resized.boxes:
        vecs.append(bap_pool(features, attn, b).vector)
        targets.append(b.class_id)
    for q in queries.vectors:
        vecs.append(q)
        targets.append(0)
    if not vecs:
        return np.zeros((0, features.shape[0])), np.zeros((0,), dtype=np.intp)
    return np.stack(vecs), np.asarray(targets, dtype=np.intp)


def train_head(features_dir: Path, boxes_dir: Path, ids: list[str], num_classes: int, *, grid_size: int,
               mode: str = "dot", scale: float = 15.0, seed: int = 0, **sgd) -> tuple[ClassifierHead, list[float]]:
    """Stage 1: fit the (L+1)-way head on every image's pooled box features and
    background queries; returns the head and per-epoch losses. ``sgd`` holds
    the other keyword arguments of :func:`~bana.clshead.sgd_train`."""
    xs, ys = [], []
    for image_id in ids:
        f = fileio.read_tensor(features_dir / f"{image_id}.btf", expected_rank=3)
        boxes = fileio.read_boxes(_require(boxes_dir / f"{image_id}.json", "train-head", "boxes file"))
        x, y = collect_training_samples(f, boxes, grid_size)
        xs.append(x)
        ys.append(y)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    if x.shape[0] == 0:
        raise PipelineError("stage 'train-head': the corpus yielded no training samples")
    head = init_head(num_classes, x.shape[1], mode=mode, scale=scale, seed=seed)
    return sgd_train(head, x, y, seed=seed, **sgd)


def _head_schedule(cfg: PipelineConfig) -> list[float]:
    drop = cfg.head_epochs if cfg.head_lr_drop_epoch is None else cfg.head_lr_drop_epoch
    return [cfg.head_lr if e < drop else cfg.head_lr / 10.0 for e in range(cfg.head_epochs)]


def run_train_head_stage(cfg: PipelineConfig) -> Path:
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    ids = stage_ids(corpus / "features", ".btf", "train-head")
    head, _ = train_head(
        corpus / "features", corpus / "boxes", ids, _corpus_num_classes(cfg, corpus, ids),
        grid_size=cfg.grid_size_train, mode=cfg.head_mode, scale=cfg.head_scale, seed=cfg.seed,
        epochs=cfg.head_epochs, lr=_head_schedule(cfg), momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, batch_size=cfg.head_batch_size,
    )
    head_dir = out / "head"
    head_dir.mkdir(parents=True, exist_ok=True)
    path = head_dir / "classifier.btf"
    clshead.save_head(path, head)
    return path


# ---------------------------------------------------------------------------
# stage 2: pseudo labels
# ---------------------------------------------------------------------------


def generate_labels_for_image(
    features: np.ndarray,
    boxes: BoxSet,
    image: np.ndarray,
    head: ClassifierHead,
    *,
    grid_size: int = 1,
    tau: float | None = 0.99,
    crf_params: CrfParams,
) -> tuple[FusedLabels, np.ndarray, list[float]]:
    """Full label generation for one image.

    Returns the fused label bundle, the attention map (feature resolution),
    and the per-box filling rates of the fused labels.
    """
    fh, fw = features.shape[1], features.shape[2]
    resized = resize_boxes(boxes, fh, fw)
    mask = build_background_mask(resized, fh, fw)
    queries = extract_queries(features, mask, grid_size)
    attn = attention_map(features, queries, resized)
    cams = {c: cam(features, head, c) for c in boxes.class_ids()}
    unary = build_unary(cams, attn, boxes, head.num_classes, tau)
    y_crf, _ = mean_field(unary, image, crf_params)
    protos = extract_prototypes(features, nearest_resize(y_crf, fh, fw))
    if protos:
        y_ret = retrieval_labels(features, protos, y_crf.shape[0], y_crf.shape[1])
    else:
        y_ret = y_crf.copy()  # degenerate: no prototypes, fusion falls back
    fused = fuse_labels(y_crf, y_ret)
    rates = filling_rate(fused.fused, boxes)
    return fused, attn, rates


def _labels_worker(job: tuple) -> tuple[str, list[tuple[int, float]]]:
    cfg, image_id = job
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    f = fileio.read_tensor(corpus / "features" / f"{image_id}.btf", expected_rank=3)
    boxes = fileio.read_boxes(corpus / "boxes" / f"{image_id}.json")
    image = fileio.read_image(corpus / "images" / f"{image_id}.ppm")
    head = clshead.load_head(out / "head" / "classifier.btf")
    fused, attn, rates = generate_labels_for_image(
        f, boxes, image, head, grid_size=cfg.grid_size_label, tau=cfg.attn_threshold, crf_params=cfg.crf_params()
    )
    fileio.write_label_map(out / "labels" / "crf" / f"{image_id}.pgm", fused.y_crf)
    fileio.write_label_map(out / "labels" / "ret" / f"{image_id}.pgm", fused.y_ret)
    fileio.write_label_map(out / "labels" / "fused" / f"{image_id}.pgm", fused.fused)
    if cfg.dump_attention:
        fileio.write_tensor(out / "attention" / f"{image_id}.btf", attn.astype(np.float32))
    return image_id, [(b.class_id, r) for b, r in zip(boxes.boxes, rates)]


def run_labels_stage(cfg: PipelineConfig) -> Path:
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    ids = stage_ids(corpus / "features", ".btf", "labels")
    _require(out / "head" / "classifier.btf", "labels", "classifier head (run train-head first)")
    for sub in ("crf", "ret", "fused"):
        (out / "labels" / sub).mkdir(parents=True, exist_ok=True)
    if cfg.dump_attention:
        (out / "attention").mkdir(parents=True, exist_ok=True)
    for image_id in ids:
        _require(corpus / "boxes" / f"{image_id}.json", "labels", "boxes file")
        _require(corpus / "images" / f"{image_id}.ppm", "labels", "image file")

    jobs = [(cfg, image_id) for image_id in ids]
    if cfg.jobs > 1:
        # Imported here: it costs more to import than this whole module.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(cfg.jobs) as pool:
                results = list(pool.map(_labels_worker, jobs))
        except BrokenProcessPool as e:
            raise PipelineError(f"stage 'labels': a worker process died ({e})") from e
    else:
        results = [_labels_worker(j) for j in jobs]

    lines = ["image,box_index,class,filling_rate"]
    for image_id, rates in sorted(results):
        for box_index, (class_id, rate) in enumerate(rates):
            lines.append(f"{image_id},{box_index},{class_id},{rate:.6f}")
    csv_path = out / "filling_rate.csv"
    fileio.write_text(csv_path, "\n".join(lines) + "\n")
    return csv_path


# ---------------------------------------------------------------------------
# stage 3: noise-aware segmentation head
# ---------------------------------------------------------------------------


def _load_seg_samples(
    features_dir: Path, crf_dir: Path, ret_dir: Path, ids: list[str], num_classes: int
) -> list[tuple[np.ndarray, FusedLabels]]:
    samples = []
    for image_id in ids:
        f = fileio.read_tensor(features_dir / f"{image_id}.btf", expected_rank=3)
        y_crf = fileio.read_label_map(
            _require(crf_dir / f"{image_id}.pgm", "nal-train", "CRF labels (run the labels stage first)"),
            num_classes,
        )
        y_ret = fileio.read_label_map(
            _require(ret_dir / f"{image_id}.pgm", "nal-train", "retrieval labels"), num_classes
        )
        fh, fw = f.shape[1], f.shape[2]
        samples.append((f, fuse_labels(nearest_resize(y_crf, fh, fw), nearest_resize(y_ret, fh, fw))))
    return samples


def nal_train(features_dir: Path, crf_dir: Path, ret_dir: Path, ids: list[str], num_classes: int, *,
              confidence_dir: Path | None = None, confidence_every: int = 0,
              **settings) -> tuple[ClassifierHead, list[float]]:
    """Stage 3: train the cosine segmentation head on the fused labels with the
    noise-aware loss; returns the head and per-epoch losses. ``settings`` holds
    the keyword arguments of :func:`~bana.nal.train_seg_head`. Each image's
    confidence map goes to ``confidence_dir`` at epochs 0, N, 2N, ... for
    ``confidence_every`` N >= 1; N = 0 writes none."""
    samples = _load_seg_samples(features_dir, crf_dir, ret_dir, ids, num_classes)
    hook = None
    if confidence_dir is not None and confidence_every > 0:
        confidence_dir.mkdir(parents=True, exist_ok=True)

        def hook(epoch, index, sigma):
            if epoch % confidence_every == 0:
                fileio.write_tensor(confidence_dir / f"{ids[index]}_epoch{epoch:03d}.btf", sigma.astype(np.float32))

    return nal.train_seg_head(samples, num_classes, confidence_hook=hook, **settings)


def _seg_settings(cfg: PipelineConfig) -> dict:
    return dict(gamma=cfg.gamma, lam=cfg.lam, epochs=cfg.seg_epochs, lr=cfg.seg_lr, momentum=cfg.momentum,
                weight_decay=cfg.weight_decay, seed=cfg.seed, scale=cfg.seg_scale)


def write_loss_csv(path: str | Path, losses: list[float]) -> None:
    lines = ["epoch,loss"] + [f"{e},{v:.12g}" for e, v in enumerate(losses)]
    fileio.write_text(path, "\n".join(lines) + "\n")


def run_nal_train_stage(cfg: PipelineConfig) -> Path:
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    ids = stage_ids(corpus / "features", ".btf", "nal-train")
    head, losses = nal_train(
        corpus / "features", out / "labels" / "crf", out / "labels" / "ret", ids,
        _corpus_num_classes(cfg, corpus, ids), confidence_dir=out / "confidence",
        confidence_every=cfg.dump_confidence_every, **_seg_settings(cfg),
    )
    seg_dir = out / "seg"
    seg_dir.mkdir(parents=True, exist_ok=True)
    path = seg_dir / "seg_head.btf"
    clshead.save_head(path, head)
    write_loss_csv(seg_dir / "nal_loss.csv", losses)
    return path


# ---------------------------------------------------------------------------
# stage 4: evaluation
# ---------------------------------------------------------------------------


def label_confusion(pred_dir: Path, ref_dir: Path, ids: list[str], num_classes: int) -> np.ndarray:
    """Stage 4's scoring: the confusion matrix of the label maps in
    ``pred_dir`` against those in ``ref_dir``, summed over ``ids``."""
    n = num_classes + 1
    cm = np.zeros((n, n), dtype=np.int64)
    for image_id in ids:
        pred = fileio.read_label_map(pred_dir / f"{image_id}.pgm", num_classes)
        ref = fileio.read_label_map(ref_dir / f"{image_id}.pgm", num_classes)
        cm += metrics.confusion(pred, ref, num_classes)
    return cm


def run_eval_stage(cfg: PipelineConfig) -> Path:
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    ids = stage_ids(corpus / "features", ".btf", "eval")
    num_classes = _corpus_num_classes(cfg, corpus, ids)
    gt_dir = _require(corpus / "gt", "eval", "ground-truth directory")

    labels_dir = out / "labels"
    have_labels = (labels_dir / "crf").exists()
    seg_head_path = out / "seg" / "seg_head.btf"
    have_seg = seg_head_path.exists()
    if not have_labels and not have_seg:
        raise PipelineError("stage 'eval': nothing to evaluate; run the labels or nal-train stage first")
    for image_id in ids:
        _require(gt_dir / f"{image_id}.pgm", "eval", "ground-truth map")

    report: dict = {}
    if have_labels:
        crf = label_confusion(labels_dir / "crf", gt_dir, ids, num_classes)
        # Per-class IoU is symmetric in the two maps, so scoring the fused map
        # as the "reference" skips exactly its IGNORE pixels.
        fused = label_confusion(gt_dir, labels_dir / "fused", ids, num_classes)
        # The ground truth holds no IGNORE pixel (it was accepted as the
        # prediction just above), so the CRF matrix counts every pixel.
        total = int(crf.sum())
        report["pseudo_labels"] = {
            "crf": metrics.score(crf),
            "ret": metrics.score(label_confusion(labels_dir / "ret", gt_dir, ids, num_classes)),
            "fused_claimed": metrics.score(fused),
            "fused_coverage": 1.0 - (total - int(fused.sum())) / total,
        }
    if have_seg:
        seg_head = clshead.load_head(seg_head_path)
        (out / "preds").mkdir(parents=True, exist_ok=True)
        for image_id in ids:
            f = fileio.read_tensor(corpus / "features" / f"{image_id}.btf", expected_rank=3)
            h, w = fileio.read_label_map(gt_dir / f"{image_id}.pgm").shape
            fileio.write_label_map(out / "preds" / f"{image_id}.pgm", nal.predict_labels(f, seg_head, h, w))
        report["segmentation"] = metrics.score(label_confusion(out / "preds", gt_dir, ids, num_classes))
    path = out / "metrics.json"
    fileio.write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run the configured stages in order; returns artifact paths."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_text(out / "config.json", cfg.to_json())
    artifacts: dict = {}
    runners = {
        "train-head": run_train_head_stage,
        "labels": run_labels_stage,
        "nal-train": run_nal_train_stage,
        "eval": run_eval_stage,
    }
    for stage in cfg.stages:
        artifacts[stage] = str(runners[stage](cfg))
    return artifacts


# ---------------------------------------------------------------------------
# controlled noise-injection experiment
# ---------------------------------------------------------------------------


def inject_disagreement_noise(
    fused: FusedLabels,
    *,
    disputed_class: int,
    noise_frac: float,
    num_classes: int,
    rng: np.random.Generator,
) -> FusedLabels:
    """Manufacture a disputed-label regime on one image.

    Every agreed pixel of ``disputed_class`` is moved into the disagreement
    region (the retrieval map is flipped to background there), mimicking a
    label source that contests entire objects. Then ``noise_frac`` of all
    disagreement pixels get a corrupted CRF label -- a wrong class that
    still differs from the retrieval label, so the pixel stays disputed.
    """
    y_crf = fused.y_crf.copy()
    y_ret = fused.y_ret.copy()
    move = fused.agree & (y_crf == disputed_class)
    y_ret[move] = 0 if disputed_class != 0 else 1

    disagree = y_crf != y_ret
    idx = np.flatnonzero(disagree.ravel())
    n_corrupt = int(round(noise_frac * idx.size))
    if n_corrupt > 0:
        chosen = rng.choice(idx, size=n_corrupt, replace=False)
        flat_crf, flat_ret = y_crf.ravel(), y_ret.ravel()
        for p in chosen:
            options = [c for c in range(num_classes + 1) if c != flat_crf[p] and c != flat_ret[p]]
            if options:  # with a single object class there is no third label
                flat_crf[p] = options[int(rng.integers(len(options)))]
        y_crf = flat_crf.reshape(y_crf.shape)
    return fuse_labels(y_crf, y_ret)


def noise_robustness_experiment(
    cfg: PipelineConfig,
    *,
    noise_frac: float = 0.2,
    disputed_class: int | None = None,
    variants: tuple[str, ...] = ("nal", "ignore", "plain"),
) -> dict:
    """Train the segmentation head under injected label noise, three ways.

    * ``nal``    -- the noise-aware loss (confidence-weighted disagreements);
    * ``ignore`` -- lam = 0, i.e. disagreement pixels contribute nothing;
    * ``plain``  -- ordinary cross-entropy on the (noisy) CRF labels
      everywhere, with no fusion and no weighting.

    All variants share the seed, the init, and the same corrupted labels;
    returns their scores (:func:`bana.metrics.score`) against the clean
    ground truth, evaluated at image resolution.
    """
    corpus, labels_dir = Path(cfg.corpus_dir), Path(cfg.out_dir) / "labels"
    ids = stage_ids(corpus / "features", ".btf", "nal-train")
    num_classes = _corpus_num_classes(cfg, corpus, ids)
    samples = _load_seg_samples(corpus / "features", labels_dir / "crf", labels_dir / "ret", ids, num_classes)
    if disputed_class is None:
        disputed_class = num_classes

    noisy = []
    for i, (f, fused) in enumerate(samples):
        rng = np.random.default_rng([cfg.seed, 7700 + i])
        noisy.append((f, inject_disagreement_noise(
            fused, disputed_class=disputed_class, noise_frac=noise_frac,
            num_classes=num_classes, rng=rng,
        )))

    def train(sample_list, lam):
        return nal.train_seg_head(sample_list, num_classes, **{**_seg_settings(cfg), "lam": lam})[0]

    heads = {}
    if "nal" in variants:
        heads["nal"] = train(noisy, cfg.lam)
    if "ignore" in variants:
        heads["ignore"] = train(noisy, 0.0)
    if "plain" in variants:
        # Same noisy CRF labels, but treated as fully trusted everywhere.
        plain = [(f, fuse_labels(fl.y_crf, fl.y_crf)) for f, fl in noisy]
        heads["plain"] = train(plain, 0.0)

    result = {"disputed_class": disputed_class, "noise_frac": noise_frac}
    n = num_classes + 1
    for name, head in heads.items():
        cm = np.zeros((n, n), dtype=np.int64)
        for image_id, (f, _) in zip(ids, noisy):
            gt = fileio.read_label_map(corpus / "gt" / f"{image_id}.pgm", num_classes)
            pred = nal.predict_labels(f, head, gt.shape[0], gt.shape[1])
            cm += metrics.confusion(pred, gt, num_classes)
        result[name] = metrics.score(cm)
    return result
