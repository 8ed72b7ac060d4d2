"""Pipeline config round trips, stage wiring, determinism, noise experiment."""

import ast
import concurrent.futures
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bana import clshead, fileio, metrics, pipeline
from bana.core import IGNORE
from bana.pipeline import (
    PipelineConfig,
    PipelineError,
    collect_training_samples,
    inject_disagreement_noise,
    run_pipeline,
)
from bana.pseudolabel import fuse_labels
from bana.synth import synth_corpus


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini") / "corpus"
    synth_corpus(out, seed=1, num_images=5, size=48, num_classes=3)
    return out


def _cfg(corpus, out, **kw):
    base = dict(corpus_dir=str(corpus), out_dir=str(out), head_epochs=30, seg_epochs=12)
    base.update(kw)
    return PipelineConfig(**base)


class TestConfig:
    def test_default_hyperparameters(self):
        cfg = PipelineConfig(corpus_dir="c", out_dir="o")
        assert cfg.grid_size_train == 4
        assert cfg.grid_size_label == 1
        assert cfg.attn_threshold == 0.99
        assert cfg.gamma == 7.0
        assert cfg.lam == 0.1
        assert clshead.MOMENTUM == 0.9
        assert clshead.WEIGHT_DECAY == 5e-4

    def test_json_round_trip_unchanged(self, tmp_path):
        cfg = PipelineConfig(corpus_dir="c", out_dir="o", seed=7, crf_theta_alpha=9.0, stages=["labels"])
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        again = PipelineConfig.from_json_file(path)
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            PipelineConfig.from_dict({"corpus_dir": "c", "out_dir": "o", "typo_key": 1})

    @pytest.mark.parametrize("key", ["head_lr_drop_epoch", "head_batch_size", "momentum", "weight_decay",
                                     "seg_scale", "crf_unary_floor"])
    def test_fixed_settings_are_not_config_keys(self, key):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            PipelineConfig.from_dict({"corpus_dir": "c", "out_dir": "o", key: 1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("jobs", "2"),
            ("jobs", True),
            ("jobs", 2.0),
            ("crf_theta_alpha", "5"),
            ("crf_theta_alpha", False),
            ("seed", None),
            ("crf_w1", None),
            ("out_dir", 1),
            ("dump_attention", 1),
            ("stages", "labels"),
            ("stages", ["labels", 2]),
        ],
    )
    def test_wrong_type_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            PipelineConfig.from_dict({"corpus_dir": "c", "out_dir": "o", key: value})

    @pytest.mark.parametrize("key, value", [("jobs", "2"), ("stages", "labels"), ("seed", 1.5)])
    def test_wrong_type_from_python_rejected(self, key, value):
        # The rule from_dict applies to JSON holds for a config built in Python or by replace().
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            PipelineConfig(corpus_dir="c", out_dir="o", **{key: value})
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            dataclasses.replace(PipelineConfig(corpus_dir="c", out_dir="o"), **{key: value})

    def test_int_as_float_and_null_for_optional_ints_accepted(self):
        cfg = PipelineConfig.from_dict(
            {"corpus_dir": "c", "out_dir": "o", "crf_theta_alpha": 5, "num_classes": None}
        )
        assert cfg.crf_theta_alpha == 5 and cfg.num_classes is None

    @pytest.mark.parametrize("d", [[], {"corpus_dir": "c"}])
    def test_malformed_config_rejected(self, d):
        with pytest.raises(ValueError, match="config"):
            PipelineConfig.from_dict(d)

    def test_stage_names_validated_and_ordered(self):
        cfg = PipelineConfig(corpus_dir="c", out_dir="o", stages=["eval", "labels"])
        assert cfg.stages == ["labels", "eval"]
        with pytest.raises(ValueError, match="unknown stages"):
            PipelineConfig(corpus_dir="c", out_dir="o", stages=["nope"])

    def test_range_checks(self):
        with pytest.raises(ValueError):
            PipelineConfig(corpus_dir="c", out_dir="o", gamma=0.5)
        with pytest.raises(ValueError):
            PipelineConfig(corpus_dir="c", out_dir="o", attn_threshold=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(corpus_dir="c", out_dir="o", jobs=0)
        with pytest.raises(ValueError, match="epochs"):
            PipelineConfig(corpus_dir="c", out_dir="o", head_epochs=0)
        with pytest.raises(ValueError, match="epochs"):
            PipelineConfig(corpus_dir="c", out_dir="o", seg_epochs=0)

    @pytest.mark.parametrize("key, value", [
        ("num_classes", 0), ("num_classes", 255), ("seed", -1), ("jobs", 0), ("grid_size_train", 0),
        ("grid_size_label", 0), ("head_epochs", 0), ("seg_epochs", 0), ("head_lr", 0.0), ("seg_lr", -1.0),
        ("attn_threshold", 1.5), ("gamma", 0.5), ("lam", -0.1), ("dump_confidence_every", -1),
    ])
    def test_range_error_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            PipelineConfig(corpus_dir="c", out_dir="o", **{key: value})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["gamma", "lam", "head_lr", "seg_lr", "crf_w1", "crf_w2",
                                     "crf_theta_alpha", "crf_theta_beta", "crf_theta_gamma"])
    def test_non_finite_rejected(self, key, literal):
        # Python's json reads these literals as floats.
        d = json.loads(f'{{"corpus_dir": "c", "out_dir": "o", "{key}": {literal}}}')
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            PipelineConfig.from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("crf_theta_alpha", 0.0), ("crf_theta_beta", -1.0), ("crf_theta_gamma", 0.0),
        ("crf_w1", -0.5), ("crf_w2", -0.5), ("crf_iterations", -1),
    ])
    def test_crf_ranges_checked_when_built(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            PipelineConfig(corpus_dir="c", out_dir="o", **{key: value})


class TestStages:
    def test_full_run_emits_all_artifacts(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(_cfg(mini_corpus, out))
        assert (out / "head" / "classifier.btf").exists()
        assert (out / "labels" / "crf" / "0000.pgm").exists()
        assert (out / "labels" / "ret" / "0000.pgm").exists()
        assert (out / "labels" / "fused" / "0000.pgm").exists()
        assert (out / "filling_rate.csv").exists()
        assert (out / "seg" / "seg_head.btf").exists()
        assert (out / "seg" / "nal_loss.csv").exists()
        assert (out / "preds" / "0000.pgm").exists()
        report = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= report["pseudo_labels"]["fused_claimed"]["miou"] <= 1.0
        assert "segmentation" in report

    def test_labels_stage_requires_head(self, mini_corpus, tmp_path):
        cfg = _cfg(mini_corpus, tmp_path / "out", stages=["labels"])
        with pytest.raises(PipelineError, match="stage 'labels'.*train-head"):
            run_pipeline(cfg)

    def test_labels_stage_alone_writes_only_label_artifacts(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(_cfg(mini_corpus, out, stages=["train-head"]))
        run_pipeline(_cfg(mini_corpus, out, stages=["labels"]))
        assert (out / "labels" / "fused" / "0000.pgm").exists()
        assert not (out / "seg").exists()
        assert not (out / "metrics.json").exists()

    def test_eval_without_anything_to_score(self, mini_corpus, tmp_path):
        cfg = _cfg(mini_corpus, tmp_path / "out", stages=["eval"])
        with pytest.raises(PipelineError, match="nothing to evaluate"):
            run_pipeline(cfg)

    def test_missing_corpus_reports_stage_and_path(self, tmp_path):
        cfg = _cfg(tmp_path / "nowhere", tmp_path / "out")
        with pytest.raises(PipelineError, match="stage 'train-head'.*features"):
            run_pipeline(cfg)

    def test_optional_dumps(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(
            _cfg(mini_corpus, out, seg_epochs=4, dump_attention=True, dump_confidence_every=2)
        )
        attn = fileio.read_tensor(out / "attention" / "0000.btf", expected_rank=2)
        assert attn.shape == (12, 12)
        assert 0.0 <= attn.min() and attn.max() <= 1.0
        conf_files = sorted((out / "confidence").glob("0000_epoch*.btf"))
        assert [p.name for p in conf_files] == ["0000_epoch000.btf", "0000_epoch002.btf"]

    def test_void_ground_truth_is_left_out_of_every_score(self, tmp_path):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        manifest = synth_corpus(corpus, seed=3, num_images=4, size=32, num_classes=3)
        for image_id in manifest["ids"]:
            gt = fileio.read_label_map(corpus / "gt" / f"{image_id}.pgm")
            gt[0] = IGNORE  # a void top row, as PASCAL VOC marks object borders
            fileio.write_label_map(corpus / "gt" / f"{image_id}.pgm", gt)
        run_pipeline(_cfg(corpus, out, head_epochs=10, seg_epochs=3))
        report = json.loads((out / "metrics.json").read_text())

        # The oracle scores the rows below the void one, where the ground truth labels every pixel.
        def rows(directory):
            return [fileio.read_label_map(directory / f"{image_id}.pgm")[1:] for image_id in manifest["ids"]]

        def scored(preds, refs):
            return metrics.score(sum(metrics.confusion(p, r, 3) for p, r in zip(preds, refs)))

        gts, fused = rows(corpus / "gt"), rows(out / "labels" / "fused")
        assert report["pseudo_labels"]["crf"] == scored(rows(out / "labels" / "crf"), gts)
        assert report["pseudo_labels"]["ret"] == scored(rows(out / "labels" / "ret"), gts)
        # IoU and accuracy are symmetric, and a reference's IGNORE pixels are skipped.
        assert report["pseudo_labels"]["fused_claimed"] == scored(gts, fused)
        claimed = sum(int((y != IGNORE).sum()) for y in fused)
        assert report["pseudo_labels"]["fused_coverage"] == pytest.approx(claimed / sum(g.size for g in gts))
        assert report["segmentation"] == scored(rows(out / "preds"), gts)

    def test_filling_rate_csv_is_well_formed(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(_cfg(mini_corpus, out, stages=["train-head", "labels"]))
        lines = (out / "filling_rate.csv").read_text().strip().splitlines()
        assert lines[0] == "image,box_index,class,filling_rate"
        for line in lines[1:]:
            image_id, box_index, class_id, rate = line.split(",")
            assert 0.0 <= float(rate) <= 1.0
            assert int(class_id) >= 1


class TestFailedStageWritesNothing:
    """A stage writes only once all of its work has succeeded."""

    @pytest.mark.parametrize("stage, settings, cut, message", [
        ("labels", dict(jobs=1, dump_attention=True), "corpus/features/0002.btf", "payload bytes"),
        ("labels", dict(jobs=2, dump_attention=True), "corpus/features/0002.btf", "payload bytes"),
        ("eval", {}, "corpus/features/0002.btf", "payload bytes"),
        ("nal-train", {}, "out/labels/crf/0002.pgm", "pixel bytes"),
        ("nal-train", dict(seg_lr=1e300, dump_confidence_every=1), None, "training diverged"),
    ])
    def test_failed_stage_leaves_out_as_it_was(self, tmp_path, stage, settings, cut, message):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        synth_corpus(corpus, seed=3, num_images=3, size=32, num_classes=3)  # every image has disputed pixels
        earlier = list(pipeline.STAGES[:pipeline.STAGES.index(stage)])
        run_pipeline(_cfg(corpus, out, stages=earlier, head_epochs=5, seg_epochs=2))
        if cut:
            (tmp_path / cut).write_bytes((tmp_path / cut).read_bytes()[:-4])

        def snapshot():  # every path under out/, with the bytes of each file
            return {p.relative_to(out): p.is_file() and p.read_bytes() for p in out.rglob("*")
                    if p.name != "config.json"}

        before = snapshot()
        with pytest.raises(ValueError, match=message):
            run_pipeline(_cfg(corpus, out, stages=[stage], head_epochs=5, seg_epochs=2, **settings))
        assert snapshot() == before

    def test_labels_worker_writes_nothing(self):
        # The pool's task returns its results; only run_labels_stage writes them.
        tree = ast.parse(inspect.getsource(pipeline._labels_worker))
        called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "fileio.read_tensor" in called
        assert not [name for name in called if name.startswith("fileio.write_")]


class TestDeterminism:
    @staticmethod
    def _assert_same_files(out_a, out_b):
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "config.json":
                continue  # embeds the differing out_dir by design
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_two_runs_byte_identical(self, mini_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(_cfg(mini_corpus, out_a))
        run_pipeline(_cfg(mini_corpus, out_b))
        self._assert_same_files(out_a, out_b)

    def test_worker_pool_does_not_change_outputs(self, mini_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(_cfg(mini_corpus, out_a, stages=["train-head", "labels"], jobs=1))
        run_pipeline(_cfg(mini_corpus, out_b, stages=["train-head", "labels"], jobs=2))
        self._assert_same_files(out_a, out_b)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_labels_stage_bytes_do_not_depend_on_the_start_method(self, mini_corpus, tmp_path, method):
        # Workers started afresh must rebuild everything from the job they are
        # sent, with nothing inherited from the parent's memory.
        reference, pooled = tmp_path / "reference", tmp_path / "pooled"
        run_pipeline(_cfg(mini_corpus, reference, stages=["train-head", "labels"], jobs=1))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_cfg(mini_corpus, pooled, stages=["train-head", "labels"], jobs=2).to_json())
        child = (
            "import multiprocessing, sys\n"
            "from bana.pipeline import PipelineConfig, run_pipeline\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "run_pipeline(PipelineConfig.from_json_file(sys.argv[2]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", child, method, str(cfg_path)], env=env, check=True, timeout=60)
        rels = sorted(p.relative_to(reference) for p in (reference / "labels").rglob("*") if p.is_file())
        assert rels == sorted(p.relative_to(pooled) for p in (pooled / "labels").rglob("*") if p.is_file())
        for rel in rels + [Path("filling_rate.csv")]:
            assert (reference / rel).read_bytes() == (pooled / rel).read_bytes(), rel

    def test_pool_never_starts_more_workers_than_images(self, tmp_path, monkeypatch):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        synth_corpus(corpus, seed=1, num_images=2, size=32, num_classes=3)
        run_pipeline(_cfg(corpus, out, stages=["train-head"], head_epochs=5))
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        run_pipeline(_cfg(corpus, out, stages=["labels"], jobs=64))
        assert started == [2]
        assert sorted(p.name for p in (out / "labels" / "fused").glob("*.pgm")) == ["0000.pgm", "0001.pgm"]

    def test_killed_run_reruns_to_the_same_bytes(self, tmp_path):
        corpus, killed, reference = tmp_path / "corpus", tmp_path / "killed", tmp_path / "reference"
        synth_corpus(corpus, seed=4, num_images=12, size=48, num_classes=3)
        # jobs=1: the labels stage runs in the killed process, so no pool worker outlives it.
        cfg = _cfg(corpus, killed, seg_epochs=3, jobs=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        argv = [sys.executable, "-m", "bana.cli", "run", "--config", str(cfg_path)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30.0
        while not any((killed / "labels" / "crf").glob("*.pgm")) and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.001)
        run.kill()
        assert run.wait(timeout=10) == -9, "the run ended before the kill"
        assert subprocess.run(argv, env=env, capture_output=True, timeout=60).returncode == 0
        assert list(killed.rglob("*.tmp")) == []
        run_pipeline(dataclasses.replace(cfg, out_dir=str(reference)))
        files = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
        assert sorted(p.relative_to(killed) for p in killed.rglob("*") if p.is_file()) == files
        for rel in files:
            if rel.name != "config.json":  # embeds the out_dir
                assert (killed / rel).read_bytes() == (reference / rel).read_bytes(), rel

    def test_dead_worker_raises_instead_of_hanging(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(_cfg(mini_corpus, out, stages=["train-head"]))
        cfg = _cfg(mini_corpus, out, stages=["labels"], jobs=2)
        # The stage runs in a child interpreter, so a hang fails the test on
        # the timeout instead of stalling the suite.
        script = (
            "import os, sys\n"
            "from bana import pipeline\n"
            "def die(job):\n"
            "    os._exit(3)\n"
            "pipeline._labels_worker = die\n"
            "cfg = pipeline.PipelineConfig.from_json_file(sys.argv[1])\n"
            "try:\n"
            "    pipeline.run_labels_stage(cfg)\n"
            "except pipeline.PipelineError as e:\n"
            "    print(e)\n"
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", script, str(cfg_path)], capture_output=True, text=True,
                              timeout=30, env=env)
        assert done.returncode == 0, done.stderr
        assert "stage 'labels'" in done.stdout and "worker process died" in done.stdout
        assert time.perf_counter() - t0 < 20.0


class TestSampleCollection:
    def test_every_box_and_query_becomes_a_sample(self, mini_corpus):
        image_id = "0000"
        f = fileio.read_tensor(mini_corpus / "features" / f"{image_id}.btf", expected_rank=3)
        boxes = fileio.read_boxes(mini_corpus / "boxes" / f"{image_id}.json")
        x, y = collect_training_samples(f, boxes, grid_size=4)
        n_boxes = len(boxes.boxes)
        assert (y >= 1).sum() == n_boxes
        assert (y == 0).sum() == x.shape[0] - n_boxes
        assert 1 <= (y == 0).sum() <= 16


class TestNoiseInjection:
    def test_disputed_class_leaves_agreement_region(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=(16, 16)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        noisy = inject_disagreement_noise(fused, num_classes=3, rng=np.random.default_rng(1))
        assert not np.any(noisy.fused[noisy.agree] == 3)
        assert np.any(noisy.y_crf[~noisy.agree] == 3)

    def test_noise_fraction_of_disagreement_is_corrupted(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=(20, 20)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        noisy = inject_disagreement_noise(fused, num_classes=3, rng=np.random.default_rng(3))
        moved = int((y == 3).sum())
        corrupted = int((noisy.y_crf != y)[~noisy.agree].sum())
        assert corrupted == round(0.2 * moved)
        # corrupted pixels stay inside the disagreement region
        assert np.all(noisy.y_crf[~noisy.agree] != noisy.y_ret[~noisy.agree])
