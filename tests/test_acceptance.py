"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The shared fixtures build a 50-image synthetic corpus (seed 0) and
run the full pipeline twice with an identical config, so the end-to-end and
determinism criteria share the heavy work.

The SHA-256 of every file the first of those runs writes, and of one more
run at the paper's CRF setting, is pinned in ``golden/acceptance.json`` with
that of each image's CRF marginals, so a refactor that drifts one byte fails
here. Regenerate that manifest with

    PYTHONPATH=src python tests/test_acceptance.py

and say in CHANGES.md which files changed and why.
"""

import dataclasses
import hashlib
import itertools
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_mean_field, finite_difference_grad, max_relative_error, random_head

from bana import clshead, fileio, metrics, nal, pipeline
from bana.bgattn import attention_map, bap_pool, extract_queries
from bana.clshead import ClassifierHead, ce_loss_and_grad
from bana.core import BBox, BoxSet, IGNORE, build_background_mask
from bana.crf import CrfParams, mean_field
from bana.nal import confidence_map, correlation_maps, nal_loss_and_grad, prepare_seg_sample
from bana.pipeline import PipelineConfig, noise_robustness_experiment, run_pipeline
from bana.pseudolabel import filling_rate, fuse_labels, retrieval_labels
from bana.synth import synth_corpus


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "corpus"
    synth_corpus(out, seed=0, num_images=50, size=64, num_classes=3)
    return out


GOLDEN = Path(__file__).resolve().parent / "golden" / "acceptance.json"
# The runs the manifest pins: the config defaults and the paper's CRF setting,
# each with the attention and confidence dumps on.
GOLDEN_RUNS = {
    "defaults": {},
    "paper_crf": {"crf_theta_alpha": 49.0, "crf_theta_beta": 5.0, "crf_iterations": 10},
}
DUMPS = {"dump_attention": True, "dump_confidence_every": 7}


def _golden_config(corpus_dir: Path, out: Path, run: str) -> PipelineConfig:
    return PipelineConfig(corpus_dir=str(corpus_dir), out_dir=str(out), seed=0, **DUMPS, **GOLDEN_RUNS[run])


def _snapshot(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_run(cfg: PipelineConfig) -> dict[str, dict[str, str]]:
    """Run the pipeline; returns the SHA-256 of every file it writes but
    ``config.json`` (which holds the output path), and of each image's CRF
    marginals. Only the CRF's argmax reaches a file, so a drift too small to
    flip a label shows in the marginals alone."""
    marginals = []

    def keep(unary, image, params):
        labels, q = mean_field(unary, image, params)
        marginals.append(_sha256(q.tobytes()))
        return labels, q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "mean_field", keep)
        run_pipeline(cfg)
    ids = pipeline.stage_ids(Path(cfg.corpus_dir) / "features", ".btf", "labels")  # the order of a serial run
    files = {name: _sha256(data) for name, data in _snapshot(Path(cfg.out_dir)).items() if name != "config.json"}
    return {"files": files, "crf_marginals": dict(zip(ids, marginals, strict=True))}


def _golden_manifest(runs: dict[str, dict], noise: dict) -> dict:
    """The golden runs' digests with the noise experiment's scores and the numpy version."""
    return {"numpy": np.__version__, "runs": runs, "noise_robustness_experiment": json.loads(json.dumps(noise))}


def _flat_digests(manifest: dict) -> dict[str, str]:
    return {f"{run} {part} {name}": digest for run, parts in manifest["runs"].items()
            for part, digests in parts.items() for name, digest in digests.items()}


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory, corpus_dir):
    """Two runs of the identical config into the same directory; the first
    is the manifest's defaults run."""
    out = tmp_path_factory.mktemp("acceptance_out") / "run"
    cfg = _golden_config(corpus_dir, out, "defaults")
    t0 = time.perf_counter()
    digests = _golden_run(cfg)
    first_elapsed = time.perf_counter() - t0
    first = _snapshot(out)
    run_pipeline(cfg)
    second = _snapshot(out)
    return {"cfg": cfg, "out": out, "first": first, "second": second, "elapsed": first_elapsed, "digests": digests}


@pytest.fixture(scope="module")
def noise_result(pipeline_runs):
    """The noise-injection experiment on the defaults run, and its seconds."""
    t0 = time.perf_counter()
    result = noise_robustness_experiment(pipeline_runs["cfg"])
    return result, time.perf_counter() - t0


def test_criterion_1_gap_degeneration():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        f = rng.normal(size=(c, h, w))
        x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
        box = BBox(1, x0, y0, int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1)))
        pooled = bap_pool(f, np.zeros((h, w)), box)
        mean = f[:, box.ymin : box.ymax, box.xmin : box.xmax].mean(axis=(1, 2))
        rel = np.abs(pooled - mean).max() / max(np.abs(mean).max(), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(1, "GAP degeneration", worst <= 1e-6 and elapsed < 1.0,
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_attention_invariants():
    rng = np.random.default_rng(1)
    ok = True
    worst_scale_diff = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 6))
        h, w = int(rng.integers(3, 14)), int(rng.integers(3, 14))
        f = rng.normal(size=(c, h, w))
        x0, y0 = int(rng.integers(0, w - 1)), int(rng.integers(0, h - 1))
        boxes = BoxSet(w, h, [BBox(1, x0, y0, int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1)))])
        mask = build_background_mask(boxes, h, w)
        a = attention_map(f, extract_queries(f, mask, int(rng.integers(1, 5))), boxes)
        ok &= a.min() >= 0.0 and a.max() <= 1.0
        ok &= bool(np.all(a[mask.astype(bool)] == 1.0))
        alpha = float(rng.uniform(0.05, 20.0))
        g = alpha * f
        a2 = attention_map(g, extract_queries(g, mask, 2), boxes)
        a1 = attention_map(f, extract_queries(f, mask, 2), boxes)
        worst_scale_diff = max(worst_scale_diff, float(np.abs(a1 - a2).max()))
    ok &= worst_scale_diff <= 1e-6
    _report(2, "attention invariants", ok, f"max scale-invariance diff {worst_scale_diff:.2e}")


def test_criterion_3_gradient_oracles(monkeypatch):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst_ce = 0.0
    for _ in range(100):
        mode = "dot" if rng.random() < 0.5 else "cosine"
        head = random_head(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)), mode)
        n = int(rng.integers(1, 6))
        x = rng.normal(size=(n, head.dim))
        t = rng.integers(0, head.num_classes + 1, size=n)
        _, grad = ce_loss_and_grad(head, x, t)

        def ce_of(w):
            return ce_loss_and_grad(ClassifierHead(weights=w, mode=mode, scale=head.scale), x, t)[0]

        worst_ce = max(worst_ce, max_relative_error(grad, finite_difference_grad(ce_of, head.weights)))

    worst_nal = 0.0
    for _ in range(100):
        num_classes = int(rng.integers(1, 4))
        head = random_head(rng, num_classes, 3, "cosine")
        f = rng.normal(size=(3, 4, 5))
        y_crf = rng.integers(0, num_classes + 1, size=(4, 5)).astype(np.uint8)
        y_ret = y_crf.copy()
        flip = rng.random((4, 5)) < 0.4
        y_ret[flip] = (y_ret[flip] + 1) % (num_classes + 1)
        fused = fuse_labels(y_crf, y_ret)
        # the gradient treats confidence as a constant; pin it for the probe
        sigma = confidence_map(correlation_maps(f, head), fused.y_crf, 7.0)
        monkeypatch.setattr(nal, "confidence_map", lambda *a: sigma)
        _, grad = nal_loss_and_grad(prepare_seg_sample(f, fused), head, gamma=7.0, lam=0.1)

        def nal_of(w):
            h = ClassifierHead(weights=w, mode="cosine", scale=head.scale)
            return nal_loss_and_grad(prepare_seg_sample(f, fused), h, gamma=7.0, lam=0.1)[0].total

        worst_nal = max(worst_nal, max_relative_error(grad, finite_difference_grad(nal_of, head.weights)))

    elapsed = time.perf_counter() - t0
    ok = worst_ce <= 1e-4 and worst_nal <= 1e-4 and elapsed < 30.0
    _report(3, "gradient oracles", ok,
            f"ce max rel err {worst_ce:.2e}, nal max rel err {worst_nal:.2e}, {elapsed:.1f}s")


def test_criterion_4_confidence_map():
    rng = np.random.default_rng(3)
    ok = True
    # sigma == 1 exactly when the label attains the per-pixel maximum
    d = rng.uniform(0.0, 2.0, size=(4, 10, 10))
    y_max = d.argmax(axis=0).astype(np.uint8)
    ok &= bool(np.all(confidence_map(d, y_max, 7.0) == 1.0))
    y_off = ((y_max + 1) % 4).astype(np.uint8)
    sigma_off = confidence_map(d, y_off, 7.0)
    ok &= bool(np.all(sigma_off < 1.0))
    # exact value at ratio one half, damping 7
    d2 = np.zeros((2, 1, 1))
    d2[:, 0, 0] = [1.0, 2.0]
    val = confidence_map(d2, np.zeros((1, 1), dtype=np.uint8), 7.0)[0, 0]
    ok &= abs(val - 0.0078125) <= 1e-12
    # pointwise non-increasing in the damping parameter
    y = rng.integers(0, 4, size=(10, 10)).astype(np.uint8)
    sweep = [confidence_map(d, y, g) for g in (1.0, 3.0, 7.0, 15.0)]
    for lo, hi in zip(sweep[1:], sweep[:-1]):
        ok &= bool(np.all(lo <= hi + 1e-15))
    _report(4, "confidence map", ok, f"sigma(0.5, 7) = {val:.10f}")


def _labels_stage_crf_inputs(cfg, ids, monkeypatch):
    """The (unary, image) pairs the labels stage hands to mean_field."""
    seen = []

    def keep(unary, image, params):
        seen.append((unary, image))
        return mean_field(unary, image, params)

    monkeypatch.setattr(pipeline, "mean_field", keep)
    corpus = Path(cfg.corpus_dir)
    head = clshead.load_head(Path(cfg.out_dir) / "head" / "classifier.btf")
    for image_id in ids:
        pipeline.generate_labels_for_image(
            fileio.read_tensor(corpus / "features" / f"{image_id}.btf", expected_rank=3),
            fileio.read_boxes(corpus / "boxes" / f"{image_id}.json"),
            fileio.read_image(corpus / "images" / f"{image_id}.ppm"),
            head, grid_size=cfg.grid_size_label, tau=cfg.attn_threshold, crf_params=cfg.crf_params(),
        )
    return seen


def test_criterion_5_crf_correctness(pipeline_runs, monkeypatch):
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    ok = True
    # (a) zero pairwise weights reduce inference to the unary argmax
    for _ in range(5):
        h, w = int(rng.integers(4, 20)), int(rng.integers(4, 20))
        unary = rng.uniform(0.05, 1.0, size=(int(rng.integers(2, 5)), h, w))
        image = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        labels, _ = mean_field(unary, image, CrfParams(w1=0.0, w2=0.0, iterations=4))
        ok &= bool(np.array_equal(labels, unary.argmax(axis=0)))
    # (b) the lattice engine against the dense oracle on the first four corpus
    # images (64x64) with the labels stage's unaries, under the pipeline's and
    # the stand-alone CRF defaults: labels agree on >= 99.5% of every image's
    # pixels, and the marginals differ by <= 5e-3 on average. Random-noise
    # images are left out: every pixel's colour is far from the others', so the
    # lattice's vertices are sparse and its error is at its largest.
    # With w1 = 0 only the spatial term is left, which the lattice engine
    # computes exactly: there the marginals match dense's to 1e-10.
    cfg = pipeline_runs["cfg"]
    worst_agree, worst_dq, spatial_dq = 1.0, 0.0, 0.0
    for unary, image in _labels_stage_crf_inputs(cfg, ["0000", "0001", "0002", "0003"], monkeypatch):
        for params in (cfg.crf_params(), CrfParams()):
            y_lat, q_lat = mean_field(unary, image, params)
            y_ref, q_ref = dense_mean_field(unary, image, params)
            worst_agree = min(worst_agree, float((y_lat == y_ref).mean()))
            worst_dq = max(worst_dq, float(np.abs(q_lat - q_ref).mean()))
            spatial = dataclasses.replace(params, w1=0.0)
            _, q_lat = mean_field(unary, image, spatial)
            _, q_ref = dense_mean_field(unary, image, spatial)
            spatial_dq = max(spatial_dq, float(np.abs(q_lat - q_ref).max()))
    ok &= worst_agree >= 0.995 and worst_dq <= 5e-3 and spatial_dq <= 1e-10
    # (c) marginals are a valid distribution after every iteration
    unary = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    image = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
    for k in range(9):  # mean-field is deterministic: k iterations give the k-th iterate
        _, q = mean_field(unary, image, CrfParams(theta_alpha=4.0, iterations=k))
        ok &= bool(np.abs(q.sum(axis=0) - 1.0).max() <= 1e-5) and q.min() >= 0.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(5, "CRF correctness", ok,
            f"lattice vs dense: agreement >= {worst_agree:.4f}, mean |dQ| <= {worst_dq:.1e}, "
            f"spatial-only max |dQ| {spatial_dq:.1e}, {elapsed:.1f}s")


def test_criterion_6_retrieval_labels():
    rng = np.random.default_rng(5)
    dirs, _ = np.linalg.qr(rng.normal(size=(8, 4)))
    mu = dirs.T
    assign = rng.integers(0, 4, size=(12, 12))
    f = (mu[assign] + rng.normal(0, 0.08, size=(12, 12, 8))).transpose(2, 0, 1)
    protos = {c: mu[c] for c in range(4)}
    y = retrieval_labels(f, protos, 12, 12)
    oracle = np.empty((12, 12), dtype=np.uint8)
    for r in range(12):
        for c in range(12):
            v = f[:, r, c]
            sims = [float(v @ mu[k]) / (np.linalg.norm(v) * np.linalg.norm(mu[k])) for k in range(4)]
            oracle[r, c] = int(np.argmax(sims))
    exact = np.array_equal(y, oracle)
    scaled = {c: float(rng.uniform(0.2, 9.0)) * v for c, v in protos.items()}
    invariant = np.array_equal(y, retrieval_labels(3.3 * f, scaled, 12, 12))
    _report(6, "retrieval labels", exact and invariant,
            f"oracle match {exact}, rescaling invariance {invariant}")


def test_criterion_7_end_to_end_pipeline(pipeline_runs, noise_result):
    report = json.loads(pipeline_runs["first"]["metrics.json"].decode())
    fused_miou = report["pseudo_labels"]["fused_claimed"]["miou"]
    result, noise_s = noise_result
    elapsed = pipeline_runs["elapsed"] + noise_s
    margin = result["nal"]["miou"] - result["ignore"]["miou"]
    ok = fused_miou >= 0.85 and margin > 0.0 and elapsed < 300.0
    _report(7, "end-to-end synthetic pipeline", ok,
            f"fused mIoU {fused_miou:.3f}, NAL {result['nal']['miou']:.3f} vs "
            f"ignore {result['ignore']['miou']:.3f} (margin {margin:+.3f}), {elapsed:.0f}s")


def test_criterion_8_metrics():
    ok = True
    # hand-built 7/12 case
    pred = np.array([[0, 1, 1, 1]], dtype=np.uint8)
    ref = np.array([[0, 0, 1, 1]], dtype=np.uint8)
    value, per_class = metrics.miou(metrics.confusion(pred, ref, 1))
    ok &= abs(value - 7.0 / 12.0) < 1e-12
    ok &= abs(per_class[0] - 0.5) < 1e-12 and abs(per_class[1] - 2.0 / 3.0) < 1e-12
    # brute-force oracle over every 2-class labeling of 3 pixels
    for p in itertools.product([0, 1], repeat=3):
        for r in itertools.product([0, 1], repeat=3):
            cm = metrics.confusion(np.array([p], dtype=np.uint8), np.array([r], dtype=np.uint8), 1)
            got = metrics.miou(cm)[0]
            expected = []
            for c in (0, 1):
                ps = {i for i, v in enumerate(p) if v == c}
                rs = {i for i, v in enumerate(r) if v == c}
                if ps | rs:
                    expected.append(len(ps & rs) / len(ps | rs))
            ok &= abs(got - float(np.mean(expected))) < 1e-12
    # filling rate equals a per-pixel counting oracle exactly
    rng = np.random.default_rng(6)
    for _ in range(50):
        y = rng.integers(0, 4, size=(9, 9)).astype(np.uint8)
        y[rng.random((9, 9)) < 0.15] = IGNORE
        x0, y0 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        box = BBox(int(rng.integers(1, 4)), x0, y0,
                   int(rng.integers(x0 + 1, 10)), int(rng.integers(y0 + 1, 10)))
        (rate,) = filling_rate(y, BoxSet(9, 9, [box]))
        hits = sum(
            int(y[yy, xx] == box.class_id)
            for yy in range(box.ymin, box.ymax)
            for xx in range(box.xmin, box.xmax)
        )
        ok &= rate == hits / ((box.xmax - box.xmin) * (box.ymax - box.ymin))
    _report(8, "metrics", ok, f"7/12 case -> {value:.10f}")


def test_criterion_9_determinism(pipeline_runs):
    first, second = pipeline_runs["first"], pipeline_runs["second"]
    same_names = set(first) == set(second)
    differing = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not differing
    _report(9, "determinism", ok,
            f"{len(first)} files compared, differing: {differing[:3] if differing else 'none'}")


def test_artifacts_match_the_golden_manifest(tmp_path, corpus_dir, pipeline_runs, noise_result):
    golden = json.loads(GOLDEN.read_text())
    assert golden["numpy"] == np.__version__, (
        f"{GOLDEN.name} was made under numpy {golden['numpy']}, this is numpy {np.__version__}: "
        "regenerate it under this version (see the module docstring)")
    paper_crf = _golden_run(_golden_config(corpus_dir, tmp_path, "paper_crf"))
    got = _golden_manifest({"defaults": pipeline_runs["digests"], "paper_crf": paper_crf}, noise_result[0])
    want, have = _flat_digests(golden), _flat_digests(got)
    differing = sorted(name for name in want.keys() | have.keys() if want.get(name) != have.get(name))
    assert not differing, f"{len(differing)} digests differ from {GOLDEN.name}, first {differing[:5]}"
    assert got["noise_robustness_experiment"] == golden["noise_robustness_experiment"]


if __name__ == "__main__":
    # Writes the golden manifest from this tree; see the module docstring.
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        synth_corpus(corpus, seed=0, num_images=50, size=64, num_classes=3)
        configs = {run: _golden_config(corpus, Path(tmp) / run, run) for run in GOLDEN_RUNS}
        runs = {run: _golden_run(cfg) for run, cfg in configs.items()}
        noise = noise_robustness_experiment(configs["defaults"])
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(_golden_manifest(runs, noise), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
