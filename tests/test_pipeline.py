"""Pipeline config round trips, stage wiring, determinism, noise experiment."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bana import fileio
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
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4

    def test_json_round_trip_unchanged(self, tmp_path):
        cfg = PipelineConfig(corpus_dir="c", out_dir="o", seed=7, crf_theta_alpha=9.0, stages=["labels"])
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        again = PipelineConfig.from_json_file(path)
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            PipelineConfig.from_dict({"corpus_dir": "c", "out_dir": "o", "typo_key": 1})

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

    def test_filling_rate_csv_is_well_formed(self, mini_corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(_cfg(mini_corpus, out, stages=["train-head", "labels"]))
        lines = (out / "filling_rate.csv").read_text().strip().splitlines()
        assert lines[0] == "image,box_index,class,filling_rate"
        for line in lines[1:]:
            image_id, box_index, class_id, rate = line.split(",")
            assert 0.0 <= float(rate) <= 1.0
            assert int(class_id) >= 1


class TestDeterminism:
    def test_two_runs_byte_identical(self, mini_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(_cfg(mini_corpus, out_a))
        run_pipeline(_cfg(mini_corpus, out_b))
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "config.json":
                continue  # embeds the differing out_dir by design
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_worker_pool_does_not_change_outputs(self, mini_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(_cfg(mini_corpus, out_a, stages=["train-head", "labels"], jobs=1))
        run_pipeline(_cfg(mini_corpus, out_b, stages=["train-head", "labels"], jobs=2))
        for rel in ("labels/crf/0003.pgm", "labels/fused/0002.pgm", "filling_rate.csv"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


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
        noisy = inject_disagreement_noise(
            fused, disputed_class=3, noise_frac=0.2, num_classes=3, rng=np.random.default_rng(1)
        )
        assert not np.any(noisy.fused[noisy.agree] == 3)
        assert np.any(noisy.y_crf[noisy.disagree] == 3)

    def test_noise_fraction_of_disagreement_is_corrupted(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=(20, 20)).astype(np.uint8)
        fused = fuse_labels(y, y.copy())
        noisy = inject_disagreement_noise(
            fused, disputed_class=3, noise_frac=0.2, num_classes=3, rng=np.random.default_rng(3)
        )
        moved = int((y == 3).sum())
        corrupted = int((noisy.y_crf != y)[noisy.disagree].sum())
        assert corrupted == round(0.2 * moved)
        # corrupted pixels stay inside the disagreement region
        assert np.all(noisy.y_crf[noisy.disagree] != noisy.y_ret[noisy.disagree])
