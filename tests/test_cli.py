"""The bana command: subcommands, exit codes, artifact wiring."""

import json

import numpy as np
import pytest

from bana import fileio
from bana.cli import main
from bana.pipeline import PipelineConfig, run_pipeline


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorpus") / "corpus"
    assert main(["synth", "--out", str(out), "--seed", "2", "--images", "4", "--size", "48"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_head(tmp_path_factory, corpus):
    head = tmp_path_factory.mktemp("head") / "classifier.btf"
    rc = main(
        [
            "train-head",
            "--features-dir", str(corpus / "features"),
            "--boxes-dir", str(corpus / "boxes"),
            "--out", str(head),
            "--grid-size", "4",
            "--epochs", "30",
            "--seed", "0",
        ]
    )
    assert rc == 0
    return head


class TestSynth:
    def test_writes_manifest(self, corpus):
        manifest = json.loads((corpus / "meta.json").read_text())
        assert len(manifest["ids"]) == 4


class TestTrainHead:
    def test_head_is_loadable(self, trained_head):
        from bana.clshead import load_head

        head = load_head(trained_head)
        assert head.num_classes == 3

    def test_missing_features_dir_is_input_error(self, tmp_path):
        rc = main(
            [
                "train-head",
                "--features-dir", str(tmp_path / "none"),
                "--boxes-dir", str(tmp_path),
                "--out", str(tmp_path / "h.btf"),
            ]
        )
        assert rc == 1


class TestLabels:
    def test_single_image_labels(self, corpus, trained_head, tmp_path):
        rc = main(
            [
                "labels",
                "--features", str(corpus / "features" / "0000.btf"),
                "--boxes", str(corpus / "boxes" / "0000.json"),
                "--image", str(corpus / "images" / "0000.ppm"),
                "--head", str(trained_head),
                "--out-crf", str(tmp_path / "crf.pgm"),
                "--out-ret", str(tmp_path / "ret.pgm"),
                "--out-fused", str(tmp_path / "fused.pgm"),
                "--out-attention", str(tmp_path / "attn.btf"),
                "--filling-rate-csv", str(tmp_path / "fill.csv"),
                "--theta-alpha", "5", "--theta-beta", "12", "--iters", "5",
            ]
        )
        assert rc == 0
        fused = fileio.read_label_map(tmp_path / "fused.pgm", 3)
        assert fused.shape == (48, 48)
        attn = fileio.read_tensor(tmp_path / "attn.btf", expected_rank=2)
        assert attn.shape == (12, 12)
        assert (tmp_path / "fill.csv").read_text().startswith("box_index,class,filling_rate")


    @pytest.mark.parametrize(
        "field, value",
        [("num_classes", None), ("dim", None), ("mode", None), ("scale", None),
         ("num_classes", "3"), ("dim", True), ("mode", 1), ("scale", False)],
    )
    def test_bad_head_sidecar_is_input_error(self, corpus, trained_head, tmp_path, field, value):
        head = tmp_path / "head.btf"
        head.write_bytes(trained_head.read_bytes())
        meta = json.loads(trained_head.with_suffix(".btf.json").read_text())
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        head.with_suffix(".btf.json").write_text(json.dumps(meta))
        rc = main(
            [
                "labels",
                "--features", str(corpus / "features" / "0000.btf"),
                "--boxes", str(corpus / "boxes" / "0000.json"),
                "--image", str(corpus / "images" / "0000.ppm"),
                "--head", str(head),
                "--out-crf", str(tmp_path / "crf.pgm"),
                "--out-ret", str(tmp_path / "ret.pgm"),
                "--out-fused", str(tmp_path / "fused.pgm"),
            ]
        )
        assert rc == 1


class TestCrf:
    def test_runs_on_unary_stack(self, corpus, tmp_path):
        rng = np.random.default_rng(0)
        unary = rng.uniform(0.0, 1.0, size=(3, 16, 16)).astype(np.float32)
        fileio.write_tensor(tmp_path / "u.btf", unary)
        image = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        fileio.write_image(tmp_path / "i.ppm", image)
        rc = main(
            [
                "crf",
                "--unary", str(tmp_path / "u.btf"),
                "--image", str(tmp_path / "i.ppm"),
                "--out", str(tmp_path / "y.pgm"),
                "--marginals", str(tmp_path / "q.btf"),
                "--iters", "3",
            ]
        )
        assert rc == 0
        labels = fileio.read_label_map(tmp_path / "y.pgm", 2)
        q = fileio.read_tensor(tmp_path / "q.btf", expected_rank=3)
        assert labels.shape == (16, 16) and q.shape == (3, 16, 16)
        np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-4)

    def test_malformed_unary_is_input_error(self, tmp_path):
        (tmp_path / "u.btf").write_bytes(b"garbage")
        fileio.write_image(tmp_path / "i.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        rc = main(
            ["crf", "--unary", str(tmp_path / "u.btf"), "--image", str(tmp_path / "i.ppm"),
             "--out", str(tmp_path / "y.pgm")]
        )
        assert rc == 1


class TestRunAndEval:
    def test_config_driven_run_and_eval(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig(
            corpus_dir=str(corpus), out_dir=str(out), head_epochs=25, seg_epochs=10
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.json").exists()

        report_path = tmp_path / "eval.json"
        rc = main(
            [
                "eval",
                "--pred-dir", str(out / "preds"),
                "--ref-dir", str(corpus / "gt"),
                "--classes", "3",
                "--out", str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"miou", "per_class_iou", "pixel_accuracy"}

    def test_subcommands_match_pipeline_stages(self, corpus, tmp_path):
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(
            corpus_dir=str(corpus), out_dir=str(out), head_epochs=25, head_lr_drop_epoch=None, seg_epochs=10
        ))
        rc = main(
            [
                "train-head",
                "--features-dir", str(corpus / "features"),
                "--boxes-dir", str(corpus / "boxes"),
                "--out", str(tmp_path / "head.btf"),
                "--grid-size", "4", "--epochs", "25", "--lr", "0.2", "--seed", "0",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "nal-train",
                "--features-dir", str(corpus / "features"),
                "--labels-crf-dir", str(out / "labels" / "crf"),
                "--labels-ret-dir", str(out / "labels" / "ret"),
                "--out-head", str(tmp_path / "seg.btf"),
                "--gamma", "7", "--lambda", "0.1", "--epochs", "10", "--lr", "0.05", "--seed", "0",
                "--loss-csv", str(tmp_path / "loss.csv"),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "eval",
                "--pred-dir", str(out / "preds"),
                "--ref-dir", str(corpus / "gt"),
                "--classes", "3",
                "--out", str(tmp_path / "eval.json"),
            ]
        )
        assert rc == 0
        for cli_file, stage_file in [
            ("head.btf", "head/classifier.btf"),
            ("head.btf.json", "head/classifier.btf.json"),
            ("seg.btf", "seg/seg_head.btf"),
            ("seg.btf.json", "seg/seg_head.btf.json"),
            ("loss.csv", "seg/nal_loss.csv"),
        ]:
            assert (tmp_path / cli_file).read_bytes() == (out / stage_file).read_bytes(), cli_file
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report == json.loads((out / "metrics.json").read_text())["segmentation"]

    def test_nal_train_subcommand(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = PipelineConfig(
            corpus_dir=str(corpus), out_dir=str(out), head_epochs=25,
            stages=["train-head", "labels"],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert main(["run", "--config", str(cfg_path)]) == 0
        rc = main(
            [
                "nal-train",
                "--features-dir", str(corpus / "features"),
                "--labels-crf-dir", str(out / "labels" / "crf"),
                "--labels-ret-dir", str(out / "labels" / "ret"),
                "--out-head", str(tmp_path / "seg.btf"),
                "--epochs", "5",
                "--loss-csv", str(tmp_path / "loss.csv"),
                "--dump-confidence-dir", str(tmp_path / "conf"),
                "--dump-confidence-every", "2",
            ]
        )
        assert rc == 0
        assert (tmp_path / "loss.csv").read_text().startswith("epoch,loss")
        dumps = sorted(p.name for p in (tmp_path / "conf").glob("*.btf"))
        assert dumps and dumps[0].endswith("epoch000.btf")
        sigma = fileio.read_tensor(tmp_path / "conf" / dumps[0], expected_rank=2)
        assert 0.0 <= sigma.min() and sigma.max() <= 1.0

        # Zero epochs is a bad flag for both training subcommands, not a crash.
        nal_args = [
            "nal-train",
            "--features-dir", str(corpus / "features"),
            "--labels-crf-dir", str(out / "labels" / "crf"),
            "--labels-ret-dir", str(out / "labels" / "ret"),
            "--out-head", str(tmp_path / "seg0.btf"),
        ]
        head_args = [
            "train-head",
            "--features-dir", str(corpus / "features"),
            "--boxes-dir", str(corpus / "boxes"),
            "--out", str(tmp_path / "head0.btf"),
        ]
        capsys.readouterr()
        for args in (nal_args, head_args):
            assert main(args + ["--epochs", "0"]) == 1
            assert "--epochs" in capsys.readouterr().err

    def test_bad_config_is_input_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"corpus_dir": "x", "out_dir": "y", "bogus": 1}')
        assert main(["run", "--config", str(cfg_path)]) == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--nope"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["eval", "--pred-dir", str(tmp_path / "void"), "--ref-dir", str(tmp_path), "--classes", "1"]
        )
        assert rc == 1
