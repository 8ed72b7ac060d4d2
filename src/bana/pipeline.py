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
stage can fan out over a worker pool without changing any output. A stage
writes only once all of its work has succeeded, so one that fails writes
nothing; ``run_pipeline`` first writes ``config.json``, the run's record.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import clshead, fileio, metrics, nal
from .bgattn import attention_map, bap_pool, extract_queries
from .clshead import ClassifierHead, cam, init_head, sgd_train
from .core import IGNORE, MAX_CLASSES, BoxSet, build_background_mask, label_classes, nearest_resize, resize_boxes
from .crf import CrfParams, build_unary, mean_field
from .pseudolabel import FusedLabels, extract_prototypes, filling_rate, fuse_labels, retrieval_labels

STAGES = ("train-head", "labels", "nal-train", "eval")
# The share of disputed pixels whose CRF label the noise experiment corrupts.
NOISE_FRAC = 0.2


# The JSON types each config field's annotation accepts, compared by type() so
# that true/false (bool, a subclass of int) are not numbers. An int is a float.
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,), "list[str]": (list,)}


class PipelineError(ValueError):
    """A stage cannot run: missing inputs or broken stage order."""


@dataclass
class PipelineConfig:
    """Paths, stage toggles, and every numeric setting a run may vary; the
    fixed ones are module constants (``clshead.LR_DROP_EPOCH``, ``clshead.MOMENTUM``, ...).

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
    # pseudo labels (stage 2)
    grid_size_label: int = 1
    attn_threshold: float = 0.99
    crf_w1: float = 4.0
    crf_w2: float = 3.0
    crf_theta_alpha: float = 5.0
    crf_theta_beta: float = 12.0
    crf_theta_gamma: float = 3.0
    crf_iterations: int = 5
    dump_attention: bool = False
    # noise-aware training (stage 3)
    gamma: float = 7.0
    lam: float = 0.1
    seg_epochs: int = 30
    seg_lr: float = 0.05
    dump_confidence_every: int = 0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")  # "int | None": None allowed
            if value is None and optional:
                continue
            if type(value) not in _JSON_TYPES[kind] or (kind == "list[str]" and any(type(v) is not str for v in value)):
                raise ValueError(f"config key '{f.name}' must be {kind}{' or null' if optional else ''}, got {value!r}")
            # Compared as Python numbers: NaN, the infinities and JSON ints past float range fail.
            if kind == "float" and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value}")
        bad = [s for s in self.stages if s not in STAGES]
        if bad:
            raise ValueError(f"unknown stages {bad}; valid stages are {list(STAGES)}")
        self.stages = [s for s in STAGES if s in self.stages]
        for rule, ok, keys in (
            (f"in [1, {MAX_CLASSES}]", lambda v: 1 <= v <= MAX_CLASSES, ("num_classes",)),
            (">= 1", lambda v: v >= 1, ("jobs", "grid_size_train", "head_epochs", "grid_size_label", "gamma",
                                        "seg_epochs")),
            (">= 0", lambda v: v >= 0, ("seed", "lam", "dump_confidence_every")),
            ("> 0", lambda v: v > 0, ("head_lr", "seg_lr")),
            ("in [0, 1]", lambda v: 0 <= v <= 1, ("attn_threshold",)),
        ):
            for key in keys:
                value = getattr(self, key)
                if value is not None and not ok(value):  # None: num_classes unset
                    raise ValueError(f"{key} must be {rule}, got {value!r}")
        # CrfParams checks the CRF settings; its messages start with the field
        # name, which the prefix turns into the config key.
        try:
            self.crf_params()
        except ValueError as e:
            raise ValueError(f"crf_{e}") from None

    def crf_params(self) -> CrfParams:
        """The CrfParams whose field ``x`` is this config's ``crf_x``."""
        return CrfParams(**{f.name: getattr(self, f"crf_{f.name}") for f in dataclasses.fields(CrfParams)})

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k in ("corpus_dir", "out_dir") if k not in d]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(fileio.read_json(path))


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
        yield from label_classes(y)


def resolve_num_classes(num_classes: int | None, meta: Path | None, class_ids: Iterable[int]) -> int:
    """The number of object classes L, by one rule for every caller: an explicit
    ``num_classes``, else the one recorded in the corpus ``meta`` file when given
    and present, else the highest id in ``class_ids`` (consumed only then)."""
    if num_classes is not None:
        return num_classes
    if meta is not None and meta.exists():
        n = fileio.read_json(meta, {"num_classes": (int,)})["num_classes"]
        if not 1 <= n <= MAX_CLASSES:
            raise fileio.FileFormatError(f"{meta}: num_classes must be in [1, {MAX_CLASSES}], got {n}")
        return n
    top = max(class_ids, default=0)
    if top < 1:
        raise PipelineError("cannot infer num_classes: no object class in the annotations; give it explicitly")
    return top


def _corpus_num_classes(cfg: PipelineConfig, corpus: Path, ids: list[str]) -> int:
    return resolve_num_classes(cfg.num_classes, corpus / "meta.json", box_class_ids(corpus / "boxes", ids))


# ---------------------------------------------------------------------------
# stage 1: classification head
# ---------------------------------------------------------------------------


def _background_attention(features: np.ndarray, boxes: BoxSet, grid_size: int) -> tuple[BoxSet, np.ndarray, np.ndarray]:
    """The boxes resized to the feature grid, the background queries and the
    attention map of one image, shared by stages 1 and 2."""
    fh, fw = features.shape[1], features.shape[2]
    resized = resize_boxes(boxes, fh, fw)
    queries = extract_queries(features, build_background_mask(resized, fh, fw), grid_size)
    return resized, queries, attention_map(features, queries, resized)


def collect_training_samples(
    features: np.ndarray, boxes: BoxSet, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-box pooled foreground features (box class) and background queries
    (class 0) of one image, as an (n, C), (n,) pair. Never empty: every box
    pools a vector, and an image without boxes gives background queries."""
    resized, queries, attn = _background_attention(features, boxes, grid_size)
    vecs = [bap_pool(features, attn, b) for b in resized.boxes] + list(queries)
    targets = [b.class_id for b in resized.boxes] + [0] * len(queries)
    return np.stack(vecs), np.asarray(targets, dtype=np.intp)


def train_head(features_dir: Path, boxes_dir: Path, ids: list[str], num_classes: int, *, grid_size: int,
               epochs: int, lr: float, seed: int) -> tuple[ClassifierHead, list[float]]:
    """Stage 1: fit the (L+1)-way head on every image's pooled box features and
    background queries with :func:`~bana.clshead.sgd_train` for ``epochs`` epochs
    at rate ``lr``, which that function drops tenfold from epoch
    ``clshead.LR_DROP_EPOCH`` on; returns the head and per-epoch losses."""
    xs, ys = [], []
    for image_id in ids:
        f = fileio.read_tensor(features_dir / f"{image_id}.btf", expected_rank=3)
        path = _require(boxes_dir / f"{image_id}.json", "train-head", "boxes file")
        boxes = fileio.read_boxes(path)
        top = max((b.class_id for b in boxes.boxes), default=0)
        if top > num_classes:
            raise PipelineError(f"stage 'train-head': box class {top} in {path} is past the {num_classes} classes")
        x, y = collect_training_samples(f, boxes, grid_size)
        if xs and x.shape[1] != xs[0].shape[1]:
            raise PipelineError(f"stage 'train-head': image {image_id} has {x.shape[1]} feature channels, "
                                f"image {ids[0]} has {xs[0].shape[1]}")
        xs.append(x)
        ys.append(y)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    head = init_head(num_classes, x.shape[1], seed=seed)
    return sgd_train(head, x, y, epochs=epochs, lr=lr, seed=seed)


def run_train_head_stage(cfg: PipelineConfig) -> Path:
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    ids = stage_ids(corpus / "features", ".btf", "train-head")
    head, _ = train_head(
        corpus / "features", corpus / "boxes", ids, _corpus_num_classes(cfg, corpus, ids),
        grid_size=cfg.grid_size_train, epochs=cfg.head_epochs, lr=cfg.head_lr, seed=cfg.seed,
    )
    path = out / "head" / "classifier.btf"
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
    grid_size: int,
    tau: float,
    crf_params: CrfParams,
) -> tuple[FusedLabels, np.ndarray, list[float]]:
    """Full label generation for one image.

    Returns the fused label bundle, the attention map (feature resolution),
    and the per-box filling rates of the fused labels. A head that is not a
    dot head, a boxes frame other than the image's size, or a box class past
    the head's, is rejected before any map is built.
    """
    if image.shape[:2] != (boxes.image_height, boxes.image_width):
        raise ValueError(f"boxes frame {boxes.image_width}x{boxes.image_height} does not match the "
                         f"{image.shape[1]}x{image.shape[0]} image (width x height)")
    if head.mode != "dot":  # cam checks it too, but only for an image with boxes
        raise ValueError(f"class evidence maps need a dot head (the classification head), got a {head.mode!r} head")
    class_ids = boxes.class_ids()
    if class_ids and class_ids[-1] > head.num_classes:
        raise ValueError(f"box class {class_ids[-1]} is past the head's {head.num_classes} classes")
    _, _, attn = _background_attention(features, boxes, grid_size)
    cams = {c: cam(features, head, c) for c in class_ids}
    unary = build_unary(cams, attn, boxes, head.num_classes, tau)
    y_crf, _ = mean_field(unary, image, crf_params)
    # y_crf is an argmax, never IGNORE, so there is at least one prototype.
    protos = extract_prototypes(features, nearest_resize(y_crf, features.shape[1], features.shape[2]))
    y_ret = retrieval_labels(features, protos, y_crf.shape[0], y_crf.shape[1])
    fused = fuse_labels(y_crf, y_ret)
    rates = filling_rate(fused.fused, boxes)
    return fused, attn, rates


def _labels_worker(job: tuple) -> tuple[str, FusedLabels, np.ndarray, list[tuple[int, float]]]:
    cfg, image_id = job
    corpus = Path(cfg.corpus_dir)
    f = fileio.read_tensor(corpus / "features" / f"{image_id}.btf", expected_rank=3)
    boxes = fileio.read_boxes(_require(corpus / "boxes" / f"{image_id}.json", "labels", "boxes file"))
    image = fileio.read_image(_require(corpus / "images" / f"{image_id}.ppm", "labels", "image file"))
    head = clshead.load_head(Path(cfg.out_dir) / "head" / "classifier.btf")
    fused, attn, rates = generate_labels_for_image(
        f, boxes, image, head, grid_size=cfg.grid_size_label, tau=cfg.attn_threshold, crf_params=cfg.crf_params()
    )
    return image_id, fused, attn, [(b.class_id, r) for b, r in zip(boxes.boxes, rates)]


def run_labels_stage(cfg: PipelineConfig) -> Path:
    corpus, out = Path(cfg.corpus_dir), Path(cfg.out_dir)
    ids = stage_ids(corpus / "features", ".btf", "labels")
    _require(out / "head" / "classifier.btf", "labels", "classifier head (run train-head first)")
    jobs = [(cfg, image_id) for image_id in ids]
    if cfg.jobs > 1:
        # Imported here: it costs more to import than this whole module.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(min(cfg.jobs, len(ids))) as pool:
                results = list(pool.map(_labels_worker, jobs))
        except BrokenProcessPool as e:
            raise PipelineError(f"stage 'labels': a worker process died ({e})") from e
    else:
        results = [_labels_worker(j) for j in jobs]

    lines = ["image,box_index,class,filling_rate"]
    for image_id, fused, attn, rates in results:  # in ids order, as pool.map returns them
        for kind, y in (("crf", fused.y_crf), ("ret", fused.y_ret), ("fused", fused.fused)):
            fileio.write_label_map(out / "labels" / kind / f"{image_id}.pgm", y)
        if cfg.dump_attention:
            fileio.write_tensor(out / "attention" / f"{image_id}.btf", attn)
        lines += [f"{image_id},{i},{class_id},{rate:.6f}" for i, (class_id, rate) in enumerate(rates)]
    csv_path = out / "filling_rate.csv"
    fileio.write_text(csv_path, "\n".join(lines) + "\n")
    return csv_path


# ---------------------------------------------------------------------------
# stage 3: noise-aware segmentation head
# ---------------------------------------------------------------------------


def _load_seg_samples(
    features_dir: Path, crf_dir: Path, ret_dir: Path, ids: list[str], num_classes: int
) -> list[tuple[np.ndarray, FusedLabels]]:
    """Each image's features and fused labels, its two label maps resized to
    the feature grid; maps of different shapes are an input error."""
    samples = []
    for image_id in ids:
        f = fileio.read_tensor(features_dir / f"{image_id}.btf", expected_rank=3)
        crf_path = _require(crf_dir / f"{image_id}.pgm", "nal-train", "CRF labels (run the labels stage first)")
        ret_path = _require(ret_dir / f"{image_id}.pgm", "nal-train", "retrieval labels")
        y_crf = fileio.read_label_map(crf_path, num_classes)
        y_ret = fileio.read_label_map(ret_path, num_classes)
        if y_crf.shape != y_ret.shape:
            raise PipelineError(
                f"stage 'nal-train': label maps differ in shape: {crf_path} is {y_crf.shape[1]}x{y_crf.shape[0]}, "
                f"{ret_path} is {y_ret.shape[1]}x{y_ret.shape[0]} (width x height)"
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
    ``confidence_every`` N >= 1, once training has succeeded; N = 0 writes none."""
    if confidence_every < 0:
        raise ValueError(f"confidence_every must be >= 0, got {confidence_every}")
    samples = _load_seg_samples(features_dir, crf_dir, ret_dir, ids, num_classes)
    hook, dumps = None, []
    if confidence_dir is not None and confidence_every > 0:
        def hook(epoch, index, sigma):
            if epoch % confidence_every == 0:
                dumps.append((confidence_dir / f"{ids[index]}_epoch{epoch:03d}.btf", sigma))

    trained = nal.train_seg_head(samples, num_classes, confidence_hook=hook, **settings)
    for path, sigma in dumps:
        fileio.write_tensor(path, sigma)
    return trained


def _seg_settings(cfg: PipelineConfig) -> dict:
    return dict(gamma=cfg.gamma, lam=cfg.lam, epochs=cfg.seg_epochs, lr=cfg.seg_lr, seed=cfg.seed)


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
    path = seg_dir / "seg_head.btf"
    clshead.save_head(path, head)
    write_loss_csv(seg_dir / "nal_loss.csv", losses)
    return path


# ---------------------------------------------------------------------------
# stage 4: evaluation
# ---------------------------------------------------------------------------


def label_confusion(pred_dir: Path, ref_dir: Path, ids: list[str], num_classes: int, *,
                    claimed_only: bool = False) -> np.ndarray:
    """Stage 4's scoring: the confusion matrix of the label maps in
    ``pred_dir`` against those in ``ref_dir``, summed over ``ids``. With
    ``claimed_only`` the predictions' IGNORE pixels are left out as well."""
    n = num_classes + 1
    cm = np.zeros((n, n), dtype=np.int64)
    for image_id in ids:
        pred_path, ref_path = pred_dir / f"{image_id}.pgm", ref_dir / f"{image_id}.pgm"
        pred = fileio.read_label_map(pred_path, num_classes)
        ref = fileio.read_label_map(ref_path, num_classes)
        if claimed_only:
            ref = np.where(pred == IGNORE, IGNORE, ref)
            pred = np.where(pred == IGNORE, 0, pred)
        try:
            cm += metrics.confusion(pred, ref, num_classes)
        except ValueError as e:  # shapes that differ, or IGNORE in the prediction
            raise ValueError(f"{pred_path} against {ref_path}: {e}") from None
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
        # The CRF map labels every pixel, so its matrix counts every pixel the
        # ground truth labels; the fused one only those both maps label.
        crf = label_confusion(labels_dir / "crf", gt_dir, ids, num_classes)
        fused = label_confusion(labels_dir / "fused", gt_dir, ids, num_classes, claimed_only=True)
        total = int(crf.sum())
        report["pseudo_labels"] = {
            "crf": metrics.score(crf),
            "ret": metrics.score(label_confusion(labels_dir / "ret", gt_dir, ids, num_classes)),
            "fused_claimed": metrics.score(fused),
            "fused_coverage": 1.0 - (total - int(fused.sum())) / total,
        }
    if have_seg:
        seg_head = clshead.load_head(seg_head_path)
        preds = []
        for image_id in ids:  # each map's classes checked here, so scoring cannot fail once preds/ is written
            f = fileio.read_tensor(corpus / "features" / f"{image_id}.btf", expected_rank=3)
            h, w = fileio.read_label_map(gt_dir / f"{image_id}.pgm", num_classes).shape
            preds.append(nal.predict_labels(f, seg_head, h, w))
        for image_id, pred in zip(ids, preds):
            fileio.write_label_map(out / "preds" / f"{image_id}.pgm", pred)
        report["segmentation"] = metrics.score(label_confusion(out / "preds", gt_dir, ids, num_classes))
    path = out / "metrics.json"
    fileio.write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run the configured stages in order; returns artifact paths."""
    fileio.write_text(Path(cfg.out_dir) / "config.json", cfg.to_json())
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


def inject_disagreement_noise(fused: FusedLabels, *, num_classes: int, rng: np.random.Generator) -> FusedLabels:
    """Manufacture a disputed-label regime on one image.

    Every agreed pixel of the highest class, L = ``num_classes``, is moved
    into the disagreement region (the retrieval map is flipped to background
    there), mimicking a label source that contests entire objects. Then
    ``NOISE_FRAC`` of all disagreement pixels get a corrupted CRF label -- a
    wrong class that still differs from the retrieval label, so the pixel
    stays disputed.
    """
    y_crf = fused.y_crf.copy()
    y_ret = fused.y_ret.copy()
    y_ret[fused.agree & (y_crf == num_classes)] = 0

    idx = np.flatnonzero((y_crf != y_ret).ravel())
    n_corrupt = int(round(NOISE_FRAC * idx.size))
    if n_corrupt > 0:
        chosen = rng.choice(idx, size=n_corrupt, replace=False)
        flat_crf, flat_ret = y_crf.ravel(), y_ret.ravel()
        for p in chosen:
            options = [c for c in range(num_classes + 1) if c != flat_crf[p] and c != flat_ret[p]]
            if options:  # with a single object class there is no third label
                flat_crf[p] = options[int(rng.integers(len(options)))]
        y_crf = flat_crf.reshape(y_crf.shape)
    return fuse_labels(y_crf, y_ret)


def noise_robustness_experiment(cfg: PipelineConfig) -> dict:
    """Train the segmentation head under injected label noise, three ways.

    * ``nal``    -- the noise-aware loss (confidence-weighted disagreements);
    * ``ignore`` -- lam = 0, i.e. disagreement pixels contribute nothing;
    * ``plain``  -- ordinary cross-entropy on the (noisy) CRF labels
      everywhere, with no fusion and no weighting.

    All variants share the seed, the init, and the same corrupted labels
    (:func:`inject_disagreement_noise`, whose disputed class is the highest
    one, L); returns their scores (:func:`bana.metrics.score`) against the
    clean ground truth, evaluated at image resolution.
    """
    corpus, labels_dir = Path(cfg.corpus_dir), Path(cfg.out_dir) / "labels"
    ids = stage_ids(corpus / "features", ".btf", "nal-train")
    num_classes = _corpus_num_classes(cfg, corpus, ids)
    samples = _load_seg_samples(corpus / "features", labels_dir / "crf", labels_dir / "ret", ids, num_classes)

    noisy = [
        (f, inject_disagreement_noise(fused, num_classes=num_classes, rng=np.random.default_rng([cfg.seed, 7700 + i])))
        for i, (f, fused) in enumerate(samples)
    ]
    # plain: the same noisy CRF labels, but treated as fully trusted everywhere.
    plain = [(f, fuse_labels(fl.y_crf, fl.y_crf)) for f, fl in noisy]
    gts = [fileio.read_label_map(corpus / "gt" / f"{image_id}.pgm", num_classes) for image_id in ids]
    result = {"disputed_class": num_classes, "noise_frac": NOISE_FRAC}
    for name, train_samples, lam in (("nal", noisy, cfg.lam), ("ignore", noisy, 0.0), ("plain", plain, 0.0)):
        head = nal.train_seg_head(train_samples, num_classes, **{**_seg_settings(cfg), "lam": lam})[0]
        cm = sum(metrics.confusion(nal.predict_labels(f, head, *gt.shape), gt, num_classes)
                 for (f, _), gt in zip(noisy, gts))
        result[name] = metrics.score(cm)
    return result
