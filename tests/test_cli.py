"""The bana command: subcommands, exit codes, artifact wiring."""

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bana import fileio
from bana.cli import _CRF_FLAGS, _crf_params, build_parser, main
from bana.crf import CrfParams
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

    def test_more_than_254_classes_writes_nothing(self, tmp_path, capsys):
        # Class 300 would wrap to 44 in the uint8 label map.
        unary = np.zeros((301, 8, 8), dtype=np.float32)
        unary[300] = 1.0
        fileio.write_tensor(tmp_path / "u.btf", unary)
        fileio.write_image(tmp_path / "i.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        rc = main(["crf", "--unary", str(tmp_path / "u.btf"), "--image", str(tmp_path / "i.ppm"),
                   "--out", str(tmp_path / "y.pgm"), "--marginals", str(tmp_path / "q.btf")])
        assert rc == 1 and "input error" in capsys.readouterr().err
        assert not (tmp_path / "y.pgm").exists() and not (tmp_path / "q.btf").exists()


def _float_texts():
    """Flag values: floats of either sign from 1e-320 to 1e308, positive ones
    twice as often and many of them ordinary, then specials and non-numbers."""
    powers = st.integers(-320, 308).map(lambda e: float(f"1e{e}"))
    magnitude = st.floats(1e-3, 1e3) | st.floats(1e-320, 1e308) | powers
    positive = magnitude.map(repr)
    junk = st.sampled_from(["0", "-0.0", "nan", "inf", "-inf", "1e309", "", "3x", "0x10"]) | st.text(max_size=4)
    return st.one_of(positive, positive, magnitude.map(lambda v: repr(-v)), junk)


@st.composite
def _crf_runs(draw):
    # One unary in five has a single channel, which the command must reject.
    channels = 1 if draw(st.integers(0, 4)) == 0 else draw(st.integers(2, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    unary = draw(st.lists(st.floats(0.0, 1.0, width=32), min_size=channels * h * w, max_size=channels * h * w))
    image = draw(st.lists(st.integers(0, 255), min_size=3 * h * w, max_size=3 * h * w))
    flags = [f"--iters={draw(st.integers(0, 5))}"]
    # Up to two of the float flags per run, the rest at their defaults, so that many runs get through.
    float_flags = [flag for flag in _CRF_FLAGS if flag != "--iters"]
    flags += [f"{flag}={draw(_float_texts())}"
              for flag in draw(st.lists(st.sampled_from(float_flags), max_size=2, unique=True))]
    return (np.array(unary, dtype=np.float32).reshape(channels, h, w),
            np.array(image, dtype=np.uint8).reshape(h, w, 3), flags)


def _flat_run(*flags):
    return np.full((3, 2, 2), 0.5, dtype=np.float32), np.zeros((2, 2, 3), dtype=np.uint8), list(flags)


@settings(max_examples=150, deadline=None)
@given(_crf_runs())
@example(_flat_run("--w1=1e308"))  # NaN marginals, after the label map was written
@example(_flat_run("--w2=1e308"))
@example(_flat_run("--theta-gamma=1e-200"))
@example(_flat_run("--theta-gamma=1e308"))  # OverflowError, exit 2
def test_crf_command_writes_valid_outputs_or_exits_1_with_none(run):
    unary, image, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fileio.write_tensor(tmp / "u.btf", unary)
        fileio.write_image(tmp / "i.ppm", image)
        out, marginals = tmp / "y.pgm", tmp / "q.btf"
        rc = main(["crf", "--unary", str(tmp / "u.btf"), "--image", str(tmp / "i.ppm"),
                   "--out", str(out), "--marginals", str(marginals)] + flags)
        assert rc in (0, 1), flags
        if rc == 1:
            assert not out.exists() and not marginals.exists(), flags
        else:
            q = fileio.read_tensor(marginals, expected_rank=3)
            labels = fileio.read_label_map(out)
            assert np.all(np.isfinite(q)) and q.shape == unary.shape, flags
            assert labels.shape == unary.shape[1:] and labels.max() < unary.shape[0], flags


@st.composite
def _int_texts(draw, typical):
    """Flag values: ints from ``typical`` three times in five, else any int or short text."""
    kind = draw(st.sampled_from(["typical", "typical", "typical", "int", "text"]))
    return draw(st.text(max_size=4)) if kind == "text" else str(draw(typical if kind == "typical" else st.integers()))


@st.composite
def _synth_runs(draw):
    images = draw(st.integers(1, 3))
    flags = [f"--images={images}"]
    for flag, typical in [("--size", st.integers(1, 34).map(lambda k: 4 * k)), ("--seed", st.integers(-2, 2**64)),
                          ("--classes", st.integers(1, 9))]:
        if draw(st.booleans()):  # else the flag keeps its default
            flags.append(f"{flag}={draw(_int_texts(typical))}")
    return images, flags


@settings(max_examples=100, deadline=None)
@given(_synth_runs())
@example((2, ["--images=2", "--size=4"]))  # an empty disk in a 2x2 slot, after the directories were made
@example((2, ["--images=2", "--seed=-1"]))  # numpy's seed error, after the directories were made
@example((1, ["--images=1", "--classes=8"]))  # more classes than feature dimensions
def test_synth_command_writes_a_readable_corpus_or_exits_1_with_none(run):
    images, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "corpus"
        rc = main(["synth", "--out", str(out)] + flags)
        assert rc in (0, 1), flags
        if rc == 1:
            assert not out.exists(), flags
            return
        meta = fileio.read_json(out / "meta.json", {"ids": (list,), "num_classes": (int,), "size": (int,),
                                                    "feat_stride": (int,)})
        size, cells = meta["size"], meta["size"] // meta["feat_stride"]
        assert len(meta["ids"]) == images, flags
        for sub, suffix in [("images", ".ppm"), ("gt", ".pgm"), ("boxes", ".json"), ("features", ".btf")]:
            assert sorted(p.name for p in (out / sub).iterdir()) == [i + suffix for i in meta["ids"]], flags
        for image_id in meta["ids"]:
            assert fileio.read_image(out / "images" / f"{image_id}.ppm").shape == (size, size, 3), flags
            assert fileio.read_label_map(out / "gt" / f"{image_id}.pgm", meta["num_classes"]).shape == (size, size)
            boxes = fileio.read_boxes(out / "boxes" / f"{image_id}.json")
            assert (boxes.image_width, boxes.image_height) == (size, size) and boxes.boxes, flags
            assert max(boxes.class_ids()) <= meta["num_classes"], flags
            f = fileio.read_tensor(out / "features" / f"{image_id}.btf", expected_rank=3)
            assert f.shape[1:] == (cells, cells), flags


def _pgm(h, w, values):
    return b"P5\n%d %d\n255\n" % (w, h) + bytes(values)


@st.composite
def _label_files(draw, shape=None):
    """Bytes of a label map, valid (values 0..4 or 255) of ``shape`` or any
    small shape, truncated or garbage; returns them and the shape."""
    h, w = shape or (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    # One map in four may hold 4 and 255 as well. (sampled_from favors its first entries.)
    wide = draw(st.sampled_from([False, False, False, True]))
    values = st.sampled_from([0, 1, 2, 3, 4, 255]) if wide else st.integers(0, 3)
    valid = _pgm(h, w, draw(st.lists(values, min_size=h * w, max_size=h * w)))
    kind = draw(st.sampled_from(["valid", "valid", "valid", "truncated", "garbage"]))
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))], (h, w)
    return (valid if kind == "valid" else draw(st.binary(max_size=24))), (h, w)


@st.composite
def _eval_runs(draw):
    preds, refs = [], []
    for _ in range(draw(st.integers(1, 2))):
        pred, shape = draw(_label_files())
        preds.append(pred)
        # The reference is missing one time in ten, else it has the prediction's
        # shape or, half as often, a shape of its own.
        ref_shape = draw(st.sampled_from([shape] * 6 + ["own"] * 3 + [None]))
        refs.append(None if ref_shape is None else draw(_label_files(None if ref_shape == "own" else ref_shape))[0])
    return preds, refs, draw(_int_texts(st.sampled_from(range(6, 0, -1))))


@settings(max_examples=150, deadline=None)
@given(_eval_runs())
@example(([_pgm(2, 2, [0, 1, 2, 3])], [_pgm(2, 2, [0, 1, 2, 3])], "300"))  # past 254 classes
@example(([_pgm(2, 2, [0, 1, 255, 3])], [_pgm(2, 2, [0, 1, 2, 3])], "3"))
@example(([_pgm(2, 2, [0, 1, 2, 3])], [_pgm(2, 3, [0] * 6)], "3"))
def test_eval_command_exits_0_or_1(run):
    preds, refs, classes = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "pred").mkdir()
        (tmp / "ref").mkdir()
        for i, (pred, ref) in enumerate(zip(preds, refs)):
            (tmp / "pred" / f"{i:04d}.pgm").write_bytes(pred)
            if ref is not None:
                (tmp / "ref" / f"{i:04d}.pgm").write_bytes(ref)
        report = tmp / "report.json"
        rc = main(["eval", "--pred-dir", str(tmp / "pred"), "--ref-dir", str(tmp / "ref"),
                   f"--classes={classes}", "--out", str(report)])
        assert rc in (0, 1), run
        assert report.exists() == (rc == 0), run


class TestCrfFlags:
    REQUIRED = {
        "labels": ["--features", "f", "--boxes", "b", "--image", "i", "--head", "h",
                   "--out-crf", "c", "--out-ret", "r", "--out-fused", "u"],
        "crf": ["--unary", "u", "--image", "i", "--out", "y"],
    }

    @pytest.mark.parametrize("command", ["labels", "crf"])
    def test_defaults_and_each_flag_sets_its_own_field(self, command):
        base = [command] + self.REQUIRED[command]
        assert _crf_params(build_parser().parse_args(base)) == CrfParams()
        for flag, name, value in [("--iters", "iterations", 7), ("--w1", "w1", 1.5), ("--w2", "w2", 2.5),
                                  ("--theta-alpha", "theta_alpha", 11.0), ("--theta-beta", "theta_beta", 13.0),
                                  ("--theta-gamma", "theta_gamma", 2.0)]:
            params = _crf_params(build_parser().parse_args(base + [flag, str(value)]))
            assert params == dataclasses.replace(CrfParams(), **{name: value}), flag


class TestStageFlags:
    CONFIG_FIELDS = {
        "train-head":
            {"--grid-size": "grid_size_train", "--epochs": "head_epochs", "--lr": "head_lr", "--seed": "seed"},
        "labels": {"--grid-size": "grid_size_label", "--attn-threshold": "attn_threshold"},
        "nal-train":
            {"--gamma": "gamma", "--lambda": "lam", "--epochs": "seg_epochs", "--lr": "seg_lr", "--seed": "seed"},
    }

    @pytest.mark.parametrize("command", ["train-head", "labels", "nal-train"])
    def test_each_settings_flag_defaults_to_its_config_field(self, command):
        subcommand = build_parser()._subparsers._group_actions[0].choices[command]
        defaults = {a.option_strings[0]: a.default for a in subcommand._actions if a.option_strings}
        config = PipelineConfig(corpus_dir="c", out_dir="o")
        for flag, name in self.CONFIG_FIELDS[command].items():
            assert defaults[flag] == getattr(config, name), flag
            assert type(defaults[flag]) is type(getattr(config, name)), flag

    def test_default_flags_reproduce_the_pipeline_heads(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig(corpus_dir=str(corpus), out_dir=str(out), stages=["train-head", "labels", "nal-train"])
        run_pipeline(cfg)
        assert main(["train-head", "--features-dir", str(corpus / "features"), "--boxes-dir", str(corpus / "boxes"),
                     "--out", str(tmp_path / "head.btf")]) == 0
        assert main(["nal-train", "--features-dir", str(corpus / "features"),
                     "--labels-crf-dir", str(out / "labels" / "crf"), "--labels-ret-dir", str(out / "labels" / "ret"),
                     "--out-head", str(tmp_path / "seg.btf")]) == 0
        for cli_file, stage_file in [("head.btf", "head/classifier.btf"), ("seg.btf", "seg/seg_head.btf")]:
            assert (tmp_path / cli_file).read_bytes() == (out / stage_file).read_bytes(), cli_file


class TestRunAndEval:
    def test_config_driven_run_and_eval(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = PipelineConfig(
            corpus_dir=str(corpus), out_dir=str(out), head_epochs=25, seg_epochs=10
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.json").exists()
        # overrides and config values go through the same checks: input errors
        assert main(["run", "--config", str(cfg_path), "--jobs", "-5"]) == 1
        bad_path = tmp_path / "bad.json"
        for bad in ({"jobs": "2"}, {"crf_theta_alpha": "5"}, {"jobs": True}):
            bad_path.write_text(json.dumps({**json.loads(cfg.to_json()), **bad}))
            assert main(["run", "--config", str(bad_path)]) == 1
        # an out-of-range value is reported under its config key, before any stage runs
        for key, value in (("crf_theta_alpha", 0), ("head_epochs", 0), ("seg_lr", 0)):
            bad_path.write_text(json.dumps({**json.loads(cfg.to_json()), key: value, "out_dir": str(tmp_path / key)}))
            capsys.readouterr()
            assert main(["run", "--config", str(bad_path)]) == 1
            assert f"input error: {key} must be" in capsys.readouterr().err
            assert not (tmp_path / key).exists()

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
        # 45 head epochs on both sides, so the rate drop at epoch 40 is compared too.
        run_pipeline(PipelineConfig(
            corpus_dir=str(corpus), out_dir=str(out), head_epochs=45, seg_epochs=10, dump_attention=True,
        ))
        rc = main(
            [
                "train-head",
                "--features-dir", str(corpus / "features"),
                "--boxes-dir", str(corpus / "boxes"),
                "--out", str(tmp_path / "head.btf"),
                "--grid-size", "4", "--epochs", "45", "--lr", "0.2", "--seed", "0",
            ]
        )
        assert rc == 0
        # bana labels with the config's CRF settings, image by image.
        stage_rates = (out / "filling_rate.csv").read_text().splitlines()[1:]
        ids = json.loads((corpus / "meta.json").read_text())["ids"]
        for image_id in ids:
            rc = main(
                [
                    "labels",
                    "--features", str(corpus / "features" / f"{image_id}.btf"),
                    "--boxes", str(corpus / "boxes" / f"{image_id}.json"),
                    "--image", str(corpus / "images" / f"{image_id}.ppm"),
                    "--head", str(tmp_path / "head.btf"),
                    "--out-crf", str(tmp_path / "crf.pgm"),
                    "--out-ret", str(tmp_path / "ret.pgm"),
                    "--out-fused", str(tmp_path / "fused.pgm"),
                    "--out-attention", str(tmp_path / "attn.btf"),
                    "--filling-rate-csv", str(tmp_path / "fill.csv"),
                    "--theta-alpha", "5", "--theta-beta", "12", "--iters", "5",
                ]
            )
            assert rc == 0
            for cli_file, stage_file in [
                ("crf.pgm", f"labels/crf/{image_id}.pgm"),
                ("ret.pgm", f"labels/ret/{image_id}.pgm"),
                ("fused.pgm", f"labels/fused/{image_id}.pgm"),
                ("attn.btf", f"attention/{image_id}.btf"),
            ]:
                assert (tmp_path / cli_file).read_bytes() == (out / stage_file).read_bytes(), (image_id, cli_file)
            cli_rates = (tmp_path / "fill.csv").read_text().splitlines()[1:]
            assert [f"{image_id},{row}" for row in cli_rates] == [r for r in stage_rates if r.startswith(image_id + ",")]
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
            for lr in ("-1", "nan"):
                assert main(args + ["--lr", lr, "--epochs", "1"]) == 1
                assert "input error: lr must be finite and > 0" in capsys.readouterr().err
        # So are a lambda, a gamma or a dump stride out of range, before any training step.
        for flag, value, name in [("--lambda", "-1", "lam"), ("--lambda", "nan", "lam"), ("--lambda", "inf", "lam"),
                                  ("--gamma", "nan", "gamma"), ("--gamma", "0.5", "gamma"),
                                  ("--dump-confidence-every", "-1", "confidence_every")]:
            assert main(nal_args + [flag, value, "--epochs", "1"]) == 1
            assert f"input error: {name} must be" in capsys.readouterr().err

    def test_bad_config_is_input_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"corpus_dir": "x", "out_dir": "y", "bogus": 1}')
        assert main(["run", "--config", str(cfg_path)]) == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--nope"]) == 1

    @staticmethod
    def _required(command, tmp_path):
        """The required flags of ``command``, with synth's corpus at ``tmp_path / "c"``."""
        return {
            "synth": ["--out", str(tmp_path / "c")],
            "train-head": ["--features-dir", "f", "--boxes-dir", "b", "--out", "h.btf"],
            "nal-train": ["--features-dir", "f", "--labels-crf-dir", "c", "--labels-ret-dir", "r", "--out-head", "s.btf"],
            "eval": ["--pred-dir", "p", "--ref-dir", "r"],
        }[command]

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--images", "0"), ("synth", "--size", "0"), ("synth", "--size", "-4"), ("synth", "--classes", "0"),
        ("train-head", "--classes", "0"), ("nal-train", "--classes", "0"), ("eval", "--classes", "0"),
    ])
    def test_counts_must_be_positive(self, tmp_path, capsys, command, flag, value):
        assert main([command, *self._required(command, tmp_path), flag, value]) == 1
        assert f"usage error: argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command", ["synth", "train-head", "nal-train", "eval"])
    def test_class_counts_past_254_rejected(self, tmp_path, capsys, command):
        # Labels are bytes and 255 is IGNORE, so at most 254 object classes.
        assert main([command, *self._required(command, tmp_path), "--classes", "255"]) == 1
        assert "usage error: argument --classes: must be <= 254, got 255" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_more_than_254_classes_in_config_writes_nothing(self, corpus, tmp_path, capsys):
        cfg = PipelineConfig(corpus_dir=str(corpus), out_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**dataclasses.asdict(cfg), "num_classes": 300}))
        assert main(["run", "--config", str(path)]) == 1
        assert "input error: num_classes must be in [1, 254], got 300" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_count_reads_like_an_int_flag(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "c"), "--images", "abc"]) == 1
        assert "usage error: argument --images: invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("flag", ["--config", "--boxes", "--out-crf"])
    def test_directory_path_is_input_error(self, corpus, trained_head, tmp_path, capsys, flag):
        d = tmp_path / "d.json"
        d.mkdir()
        if flag == "--config":
            argv = ["run", "--config", str(d)]
        else:
            paths = {"--boxes": corpus / "boxes" / "0000.json", "--out-crf": tmp_path / "crf.pgm", flag: d}
            argv = [
                "labels",
                "--features", str(corpus / "features" / "0000.btf"),
                "--boxes", str(paths["--boxes"]),
                "--image", str(corpus / "images" / "0000.ppm"),
                "--head", str(trained_head),
                "--out-crf", str(paths["--out-crf"]),
                "--out-ret", str(tmp_path / "ret.pgm"),
                "--out-fused", str(tmp_path / "fused.pgm"),
            ]
        assert main(argv) == 1
        assert "input error: " in capsys.readouterr().err
        assert d.is_dir() and list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("pred, ref, message", [
        (_pgm(2, 2, [0, 1, 255, 1]), _pgm(2, 2, [0, 1, 1, 1]), "prediction contains IGNORE pixels"),
        (_pgm(2, 2, [0, 1, 1, 1]), _pgm(2, 3, [0] * 6), "prediction (2, 2) and reference (2, 3) differ in shape"),
    ], ids=["ignore-in-prediction", "shapes-differ"])
    def test_eval_scoring_error_names_both_files(self, tmp_path, capsys, pred, ref, message):
        for name, data in [("pred", pred), ("ref", ref)]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "0000.pgm").write_bytes(data)
        assert main(["eval", "--pred-dir", str(tmp_path / "pred"), "--ref-dir", str(tmp_path / "ref"),
                     "--classes", "1"]) == 1
        pred_path, ref_path = tmp_path / "pred" / "0000.pgm", tmp_path / "ref" / "0000.pgm"
        assert f"input error: {pred_path} against {ref_path}: {message}" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["eval", "--pred-dir", str(tmp_path / "void"), "--ref-dir", str(tmp_path), "--classes", "1"]
        )
        assert rc == 1


class TestMalformedJsonInputs:
    """Every JSON input, however malformed, is an input error naming its file."""

    DEEP = "[" * 100_000  # the JSON parser raises RecursionError on it

    def _labels(self, corpus, tmp_path, boxes, head):
        return main([
            "labels",
            "--features", str(corpus / "features" / "0000.btf"),
            "--boxes", str(boxes),
            "--image", str(corpus / "images" / "0000.ppm"),
            "--head", str(head),
            "--out-crf", str(tmp_path / "crf.pgm"),
            "--out-ret", str(tmp_path / "ret.pgm"),
            "--out-fused", str(tmp_path / "fused.pgm"),
        ])

    def _input_error(self, capsys, rc, path):
        assert rc == 1
        assert f"input error: {path}: " in capsys.readouterr().err

    def test_deep_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(self.DEEP)
        self._input_error(capsys, main(["run", "--config", str(path)]), path)

    def test_deep_boxes(self, corpus, trained_head, tmp_path, capsys):
        boxes = tmp_path / "boxes.json"
        boxes.write_text(self.DEEP)
        self._input_error(capsys, self._labels(corpus, tmp_path, boxes, trained_head), boxes)

    def test_deep_head_sidecar(self, corpus, trained_head, tmp_path, capsys):
        head = tmp_path / "head.btf"
        head.write_bytes(trained_head.read_bytes())
        sidecar = head.with_suffix(".btf.json")
        sidecar.write_text(self.DEEP)
        self._input_error(capsys, self._labels(corpus, tmp_path, corpus / "boxes" / "0000.json", head), sidecar)

    @pytest.mark.parametrize("text", [DEEP, "{}", "[]", '{"num_classes": "3"}', '{"num_classes": true}',
                                      '{"num_classes": 0}', '{"num_classes": 255}'],
                             ids=["deep", "empty", "list", "str", "bool", "zero", "past-254"])
    def test_bad_corpus_meta(self, corpus, tmp_path, capsys, text):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        meta = copy / "meta.json"
        meta.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(PipelineConfig(corpus_dir=str(copy), out_dir=str(tmp_path / "out"), stages=["train-head"]).to_json())
        self._input_error(capsys, main(["run", "--config", str(cfg)]), meta)
        assert not (tmp_path / "out" / "head").exists()

    def test_btf_whose_dims_wrap(self, tmp_path, capsys):
        unary = tmp_path / "u.btf"
        unary.write_bytes(b"BTF1" + np.asarray([3, 2**22, 2**21, 2**21], dtype="<u4").tobytes())
        fileio.write_image(tmp_path / "i.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        rc = main(["crf", "--unary", str(unary), "--image", str(tmp_path / "i.ppm"), "--out", str(tmp_path / "y.pgm")])
        self._input_error(capsys, rc, unary)
