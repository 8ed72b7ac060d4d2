"""The bana command: subcommands, exit codes, artifact wiring."""

import dataclasses
import functools
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bana import clshead, fileio, pipeline
from bana.cli import _CRF_FLAGS, _Output, _crf_params, build_parser, main
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


class TestMismatchedHead:
    """Labels score with the dot classification head and predictions with the
    cosine segmentation head; the other kind is an input error that writes nothing."""

    @staticmethod
    def _save(path, trained_head, **kind):
        path.parent.mkdir(parents=True, exist_ok=True)
        clshead.save_head(path, dataclasses.replace(clshead.load_head(trained_head), **kind))
        return path

    def test_labels_command_rejects_a_cosine_head(self, corpus, trained_head, tmp_path, capsys):
        head = self._save(tmp_path / "seg_head.btf", trained_head, mode="cosine")
        outputs = {flag: tmp_path / name for flag, name in [
            ("--out-crf", "crf.pgm"), ("--out-ret", "ret.pgm"), ("--out-fused", "fused.pgm"),
            ("--out-attention", "attn.btf"), ("--filling-rate-csv", "rates.csv")]}
        rc = main(["labels", "--features", str(corpus / "features" / "0000.btf"),
                   "--boxes", str(corpus / "boxes" / "0000.json"), "--image", str(corpus / "images" / "0000.ppm"),
                   "--head", str(head), *(arg for flag, path in outputs.items() for arg in (flag, str(path)))])
        assert rc == 1
        assert "need a dot head (the classification head), got a 'cosine' head" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs.values())

    def test_labels_command_rejects_a_cosine_head_for_an_image_without_boxes(self, corpus, trained_head, tmp_path,
                                                                               capsys):
        head = self._save(tmp_path / "seg_head.btf", trained_head, mode="cosine")
        boxes = tmp_path / "empty.json"
        boxes.write_text(json.dumps({"width": 48, "height": 48, "boxes": []}))
        outputs = [tmp_path / name for name in ("crf.pgm", "ret.pgm", "fused.pgm")]
        rc = main(["labels", "--features", str(corpus / "features" / "0000.btf"), "--boxes", str(boxes),
                   "--image", str(corpus / "images" / "0000.ppm"), "--head", str(head),
                   "--out-crf", str(outputs[0]), "--out-ret", str(outputs[1]), "--out-fused", str(outputs[2])])
        assert rc == 1
        assert "need a dot head (the classification head), got a 'cosine' head" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    def test_labels_command_rejects_a_head_of_another_dim_for_an_image_without_boxes(self, corpus, tmp_path,
                                                                                       capsys):
        head = tmp_path / "head.btf"
        clshead.save_head(head, clshead.ClassifierHead(weights=np.zeros((4, 5))))  # the corpus's features have 8
        boxes = tmp_path / "empty.json"
        boxes.write_text(json.dumps({"width": 48, "height": 48, "boxes": []}))
        outputs = [tmp_path / name for name in ("crf.pgm", "ret.pgm", "fused.pgm")]
        rc = main(["labels", "--features", str(corpus / "features" / "0000.btf"), "--boxes", str(boxes),
                   "--image", str(corpus / "images" / "0000.ppm"), "--head", str(head),
                   "--out-crf", str(outputs[0]), "--out-ret", str(outputs[1]), "--out-fused", str(outputs[2])])
        assert rc == 1
        assert "input error: feature channels 8 do not match head dim 5" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("kind, message", [
        ({"mode": "cosine"}, "need a dot head (the classification head), got a 'cosine' head"),
        ({"scale": -1.0}, "classifier.btf.json: scale must be positive, got -1.0"),
    ], ids=["cosine", "bad-sidecar"])
    def test_labels_stage_checks_its_head_before_any_directory(self, corpus, trained_head, tmp_path, capsys,
                                                               kind, message):
        out, cfg = tmp_path / "out", tmp_path / "cfg.json"
        head = self._save(out / "head" / "classifier.btf", trained_head, mode=kind.get("mode", "dot"))
        if "scale" in kind:  # a head object cannot hold a bad scale, so the sidecar is edited
            meta = json.loads(head.with_suffix(".btf.json").read_text())
            head.with_suffix(".btf.json").write_text(json.dumps({**meta, **kind}))
        for stages, expected in [(["labels"], message), (["eval"], "nothing to evaluate")]:
            cfg.write_text(PipelineConfig(corpus_dir=str(corpus), out_dir=str(out), stages=stages,
                                          dump_attention=True).to_json())
            assert main(["run", "--config", str(cfg)]) == 1
            assert expected in capsys.readouterr().err
            assert not (out / "labels").exists() and not (out / "attention").exists()

    def test_labels_stage_pool_rejects_a_cosine_head(self, corpus, trained_head, tmp_path, capsys):
        out, cfg = tmp_path / "out", tmp_path / "cfg.json"
        self._save(out / "head" / "classifier.btf", trained_head, mode="cosine")
        cfg.write_text(PipelineConfig(corpus_dir=str(corpus), out_dir=str(out), stages=["labels"], jobs=2).to_json())
        assert main(["run", "--config", str(cfg)]) == 1
        assert "need a dot head (the classification head), got a 'cosine' head" in capsys.readouterr().err
        assert not (out / "labels").exists()

    def test_eval_stage_rejects_a_dot_segmentation_head(self, corpus, trained_head, tmp_path, capsys):
        out, cfg = tmp_path / "out", tmp_path / "cfg.json"
        self._save(out / "seg" / "seg_head.btf", trained_head)
        cfg.write_text(PipelineConfig(corpus_dir=str(corpus), out_dir=str(out), stages=["eval"]).to_json())
        assert main(["run", "--config", str(cfg)]) == 1
        assert "need a cosine head (the segmentation head), got a 'dot' head" in capsys.readouterr().err
        assert not (out / "metrics.json").exists() and not (out / "preds").exists()


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
    return (valid if draw(st.integers(0, 4)) < 3 else draw(_damaged(valid))), (h, w)


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """``data`` cut short or, as often, a few garbage bytes in its place."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    return draw(st.binary(max_size=24))


# JSON values of the wrong type (or out of range) for nearly every field they may replace.
_JSON_JUNK = st.sampled_from([None, True, "1", 1.5, -1, 0, 2**70, 10**400, [], {}, [1], float("nan"), float("inf")])


def _slots(obj):
    """Every (container, key) pair inside a JSON value of nested dicts and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key
        yield from _slots(value)


@st.composite
def _damaged_json(draw, obj) -> bytes:
    """``obj`` as JSON with one value in it replaced by junk, or its text damaged."""
    if draw(st.booleans()):
        return draw(_damaged(json.dumps(obj).encode()))
    obj = json.loads(json.dumps(obj))
    container, key = draw(st.sampled_from(list(_slots(obj))))
    container[key] = draw(_JSON_JUNK)
    return json.dumps(obj).encode()


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


def _nal_train(tmp, images, flags):
    """Run ``bana nal-train`` on one (features, CRF map bytes, retrieval map bytes)
    triple per image under ``tmp``; returns the exit code and the head path."""
    dirs = {name: tmp / name for name in ("features", "crf", "ret")}
    for d in dirs.values():
        d.mkdir()
    for i, (features, crf, ret) in enumerate(images):
        fileio.write_tensor(dirs["features"] / f"{i:04d}.btf", features)
        (dirs["crf"] / f"{i:04d}.pgm").write_bytes(crf)
        (dirs["ret"] / f"{i:04d}.pgm").write_bytes(ret)
    head = tmp / "seg.btf"
    rc = main(["nal-train", "--features-dir", str(dirs["features"]), "--labels-crf-dir", str(dirs["crf"]),
               "--labels-ret-dir", str(dirs["ret"]), "--out-head", str(head), *flags])
    return rc, head


def _features(h, w):
    return np.random.default_rng(h * 7 + w).normal(size=(3, h, w)).astype(np.float32)


# Epochs stay small so that a run is quick: the flags take any count, and the defaults are 30 and 60.
_EPOCHS = st.sampled_from(["1", "2", "0", "-1", "", "1.5", "x"])


@st.composite
def _nal_train_runs(draw):
    images = []
    for _ in range(draw(st.integers(1, 2))):
        crf, shape = draw(_label_files())
        # The retrieval map has the CRF map's shape two times in three, else a shape of its own.
        ret_shape = draw(st.sampled_from([shape] * 2 + ["own"]))
        ret = draw(_label_files(None if ret_shape == "own" else ret_shape))[0]
        images.append((_features(draw(st.integers(1, 3)), draw(st.integers(1, 3))), crf, ret))
    flags = [f"{flag}={draw(values)}" for flag, values in [
        ("--gamma", _float_texts()), ("--lambda", _float_texts()), ("--lr", _float_texts()), ("--epochs", _EPOCHS),
        ("--classes", _int_texts(st.integers(1, 5))),
    ] if draw(st.booleans())]
    return images, flags


@settings(max_examples=100, deadline=None)
@given(_nal_train_runs())
@example(([(_features(2, 2), _pgm(4, 4, [0, 1, 2, 3] * 4), _pgm(2, 2, [0, 1, 2, 3]))], []))  # shapes differ
@example(([(_features(2, 2), _pgm(2, 2, [0, 1, 255, 3]), _pgm(2, 2, [0, 1, 2, 3]))], ["--epochs=1"]))
@example(([(_features(1, 2), _pgm(1, 4, [0, 0, 0, 0]), _pgm(1, 4, [0, 0, 0, 0]))], ["--lr=8.9e+152"]))  # overflow
@example(([(_features(1, 2), _pgm(1, 4, [0, 0, 0, 1]), _pgm(1, 4, [0, 0, 0, 0]))], ["--lambda=1.8e+154"]))
def test_nal_train_command_exits_0_or_1(run):
    images, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        rc, head = _nal_train(Path(tmp), images, flags)
        assert rc in (0, 1), run
        assert head.exists() == (rc == 0), run
        if rc == 0:  # then every map parsed, and each image's two maps have one shape
            for i in range(len(images)):
                crf, ret = (fileio.read_label_map(Path(tmp) / kind / f"{i:04d}.pgm") for kind in ("crf", "ret"))
                assert crf.shape == ret.shape, run



def _sometimes(draw, n) -> bool:
    """True about one time in ``n`` (st.integers would favor 0)."""
    return draw(st.sampled_from([False] * (n - 1) + [True]))


def _btf(arr) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        fileio.write_tensor(Path(tmp) / "t.btf", arr)
        return (Path(tmp) / "t.btf").read_bytes()


@st.composite
def _boxes(draw, width, height, max_class):
    """A boxes file's JSON object: a frame of its own one time in five, else ``width`` x ``height``,
    with up to three boxes inside it of classes 1..``max_class``."""
    if _sometimes(draw, 5):
        width, height = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        boxes.append({"class": draw(st.integers(1, max_class)), "xmin": x0, "ymin": y0,
                      "xmax": draw(st.integers(x0 + 1, width)), "ymax": draw(st.integers(y0 + 1, height))})
    return {"width": width, "height": height, "boxes": boxes}


@st.composite
def _inputs(draw, files):
    """``files`` (name -> bytes, or a JSON object) as bytes, one of them damaged half the time."""
    target = draw(st.sampled_from(list(files))) if draw(st.booleans()) else None
    out = {}
    for name, data in files.items():
        if name == target:
            out[name] = draw(_damaged_json(data) if isinstance(data, dict) else _damaged(data))
        else:
            out[name] = json.dumps(data).encode() if isinstance(data, dict) else data
    return out


def _output_paths(tmp, names, missing):
    """Each flag's output under ``tmp``, the one of flag ``missing`` under ``tmp / "nodir"``."""
    return {flag: tmp / ("nodir" if flag == missing else "") / name for flag, name in names.items()}


def _missing(draw, outputs):
    """One of the ``outputs`` flags one time in four, else None."""
    return draw(st.sampled_from(list(outputs))) if _sometimes(draw, 4) else None


@st.composite
def _train_head_runs(draw):
    channels, files = draw(st.integers(1, 3)), {}
    for i in range(draw(st.integers(1, 2))):
        fh, fw = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        # One image in five has a channel more than the first.
        c = channels + (i > 0 and _sometimes(draw, 5))
        files[f"features/{i:04d}.btf"] = _btf(np.random.default_rng(i).normal(size=(c, fh, fw)).astype(np.float32))
        files[f"boxes/{i:04d}.json"] = draw(_boxes(draw(st.integers(1, 64)), draw(st.integers(1, 64)), 4))
    flags = [f"{flag}={draw(values)}" for flag, values in [
        ("--grid-size", _int_texts(st.integers(1, 4))), ("--epochs", _EPOCHS), ("--lr", _float_texts()),
        ("--seed", _int_texts(st.integers(-1, 3))), ("--classes", _int_texts(st.integers(1, 5))),
    ] if _sometimes(draw, 3)]
    return draw(_inputs(files)), flags, _missing(draw, ["--out"])


@settings(max_examples=100, deadline=None)
@given(_train_head_runs())
@example(({"features/0000.btf": _btf(np.full((1, 1, 1), 0.125, np.float32)),  # weights past float32 range
           "boxes/0000.json": b'{"width": 1, "height": 1, "boxes": []}'}, ["--lr=1e5", "--classes=1"], None))
def test_train_head_command_writes_a_loadable_head_or_exits_1_with_none(run):
    files, flags, missing = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).parent.mkdir(exist_ok=True)
            (tmp / name).write_bytes(data)
        out = _output_paths(tmp, {"--out": "head.btf"}, missing)["--out"]
        rc = main(["train-head", "--features-dir", str(tmp / "features"), "--boxes-dir", str(tmp / "boxes"),
                   "--out", str(out), *flags])
        assert rc in (0, 1), run
        if rc == 1:
            assert not out.exists() and not out.with_suffix(".btf.json").exists(), run
        else:
            assert np.all(np.isfinite(clshead.load_head(out).weights)), run


@st.composite
def _labels_runs(draw):
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    channels, num_classes = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(h * 32 + w)
    image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    features = rng.normal(size=(channels, draw(st.integers(1, 8)), draw(st.integers(1, 8)))).astype(np.float32)
    # One head in five scores features of another width.
    dim = channels + _sometimes(draw, 5)
    head = clshead.ClassifierHead(weights=rng.normal(size=(num_classes + 1, dim)),
                                  mode=draw(st.sampled_from(clshead.MODES)), scale=15.0)
    with tempfile.TemporaryDirectory() as tmp:
        fileio.write_image(Path(tmp) / "i.ppm", image)
        clshead.save_head(Path(tmp) / "h.btf", head)
        files = {"features.btf": _btf(features), "image.ppm": (Path(tmp) / "i.ppm").read_bytes(),
                 "head.btf": (Path(tmp) / "h.btf").read_bytes(),
                 "head.btf.json": json.loads((Path(tmp) / "h.btf.json").read_text()),
                 # One class in four past the head's.
                 "boxes.json": draw(_boxes(w, h, num_classes + _sometimes(draw, 4)))}
    flags = [f"--iters={draw(st.sampled_from(['1', '2', '0', '1', '2', '-1', 'x']))}"]
    # Each other flag is set one time in eight, the rest keep their defaults, so that many runs get through.
    flags += [f"{flag}={draw(values)}" for flag, values in [
        ("--grid-size", _int_texts(st.integers(1, 3))),
        ("--attn-threshold", st.floats(0, 1).map(repr) | _float_texts()),
        *((flag, _float_texts()) for flag in _CRF_FLAGS if flag != "--iters"),
    ] if _sometimes(draw, 8)]
    outputs = {"--out-crf": "crf.pgm", "--out-ret": "ret.pgm", "--out-fused": "fused.pgm"}
    outputs.update((flag, name) for flag, name in [("--out-attention", "attn.btf"), ("--filling-rate-csv", "rates.csv")]
                   if draw(st.booleans()))
    return draw(_inputs(files)), flags, outputs, _missing(draw, outputs)


@settings(max_examples=100, deadline=None)
@given(_labels_runs())
def test_labels_command_writes_consistent_maps_or_exits_1_with_none(run):
    files, flags, outputs, missing = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        paths = _output_paths(tmp, outputs, missing)
        rc = main(["labels", "--features", str(tmp / "features.btf"), "--boxes", str(tmp / "boxes.json"),
                   "--image", str(tmp / "image.ppm"), "--head", str(tmp / "head.btf"),
                   *(arg for flag, path in paths.items() for arg in (flag, str(path))), *flags])
        assert rc in (0, 1), run
        if rc == 1:
            assert not any(path.exists() for path in paths.values()), run
            return
        crf, ret, fused = (fileio.read_label_map(paths[flag]) for flag in ("--out-crf", "--out-ret", "--out-fused"))
        assert crf.shape == ret.shape == fileio.read_image(tmp / "image.ppm").shape[:2], run
        assert np.array_equal(fused, np.where(crf == ret, crf, 255)), run


_LOOP_COUNTS = ("head_epochs", "seg_epochs", "crf_iterations")


@functools.cache
def _run_corpus() -> dict:
    """The files of a two-image 16x16 corpus, by path relative to the corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["synth", "--out", tmp, "--images", "2", "--size", "16"]) == 0
        return {str(p.relative_to(tmp)): p.read_bytes() for p in sorted(Path(tmp).rglob("*")) if p.is_file()}


@st.composite
def _run_runs(draw):
    config = {"stages": draw(st.lists(st.sampled_from(pipeline.STAGES), unique=True)),
              "head_epochs": draw(st.integers(1, 3)), "seg_epochs": draw(st.integers(1, 3)),
              "dump_attention": draw(st.booleans()), "dump_confidence_every": draw(st.integers(0, 2))}
    # A setting of a drawn field, or an unknown key, takes a junk value one time in three.
    if _sometimes(draw, 3):
        key = draw(st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)] + ["bogus"]))
        # The paths stay in the run's directory: a string there would name a directory anywhere.
        # And a loop count past 100 is a long run, not an error.
        junk = _JSON_JUNK.filter(lambda v: not (isinstance(v, str) and key.endswith("_dir") or
                                                type(v) is int and v > 100 and key in _LOOP_COUNTS))
        config[key] = draw(junk)
    flags = [f"{flag}={draw(_int_texts(st.integers(-1, 2)))}" for flag in ("--seed", "--jobs") if draw(st.booleans())]
    corpus = draw(_inputs(_run_corpus()))
    return corpus, config, draw(st.sampled_from(["valid"] * 4 + ["damaged", "nodir"])), flags


@settings(max_examples=60, deadline=None)
@given(_run_runs())
def test_run_command_exits_0_or_1(run):
    corpus, config, config_kind, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in corpus.items():
            (tmp / "corpus" / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp / "corpus" / name).write_bytes(data)
        text = json.dumps({"corpus_dir": str(tmp / "corpus"), "out_dir": str(tmp / "out"), **config}).encode()
        path = tmp / ("nodir" if config_kind == "nodir" else "") / "config.json"
        if path.parent.is_dir():
            path.write_bytes(text[: len(text) // 2] if config_kind == "damaged" else text)
        assert main(["run", "--config", str(path), *flags]) in (0, 1), run


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
            for lr, rule in [("-1", "must be > 0, got -1.0"), ("nan", "must be finite, got nan")]:
                assert main(args + ["--lr", lr, "--epochs", "1"]) == 1
                assert f"usage error: argument --lr: {rule}" in capsys.readouterr().err
        # So are a lambda, a gamma or a dump stride out of range, before any training step.
        for flag, value, rule in [("--lambda", "-1", "must be >= 0, got -1.0"), ("--lambda", "nan", "must be finite"),
                                  ("--lambda", "inf", "must be finite"), ("--gamma", "nan", "must be finite"),
                                  ("--gamma", "0.5", "must be >= 1, got 0.5"),
                                  ("--dump-confidence-every", "-1", "must be >= 0, got -1")]:
            assert main(nal_args + [flag, value, "--epochs", "1"]) == 1
            assert f"usage error: argument {flag}: {rule}" in capsys.readouterr().err

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
            "crf": ["--unary", "u", "--image", "i", "--out", "y"],
            "labels": ["--features", "f", "--boxes", "b", "--image", "i", "--head", "h",
                       "--out-crf", "c", "--out-ret", "r", "--out-fused", "u"],
            "run": ["--config", "cfg.json"],
        }[command]

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--images", "0"), ("synth", "--size", "0"), ("synth", "--size", "-4"), ("synth", "--classes", "0"),
        ("train-head", "--classes", "0"), ("nal-train", "--classes", "0"), ("eval", "--classes", "0"),
    ])
    def test_counts_must_be_positive(self, tmp_path, capsys, command, flag, value):
        assert main([command, *self._required(command, tmp_path), flag, value]) == 1
        rule = "must be in [1, 254]" if flag == "--classes" else "must be >= 1"
        assert f"usage error: argument {flag}: {rule}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command", ["synth", "train-head", "nal-train", "eval"])
    def test_class_counts_past_254_rejected(self, tmp_path, capsys, command):
        # Labels are bytes and 255 is IGNORE, so at most 254 object classes.
        assert main([command, *self._required(command, tmp_path), "--classes", "255"]) == 1
        assert "usage error: argument --classes: must be in [1, 254], got 255" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flag", ["--config", "--boxes", "--out-crf", "--out-ret"])
    def test_directory_path_is_input_error(self, corpus, trained_head, tmp_path, capsys, flag):
        d = tmp_path / "d.json"
        d.mkdir()
        if flag == "--config":
            argv = ["run", "--config", str(d)]
        else:
            paths = {"--boxes": corpus / "boxes" / "0000.json", "--out-crf": tmp_path / "crf.pgm",
                     "--out-ret": tmp_path / "ret.pgm", flag: d}
            argv = [
                "labels",
                "--features", str(corpus / "features" / "0000.btf"),
                "--boxes", str(paths["--boxes"]),
                "--image", str(corpus / "images" / "0000.ppm"),
                "--head", str(trained_head),
                "--out-crf", str(paths["--out-crf"]),
                "--out-ret", str(paths["--out-ret"]),
                "--out-fused", str(tmp_path / "fused.pgm"),
            ]
        assert main(argv) == 1
        assert "input error: " in capsys.readouterr().err
        assert d.is_dir() and list(tmp_path.glob("*.tmp")) == [] and list(tmp_path.glob("*.pgm")) == []

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

    def test_eval_class_past_classes_names_its_file_row_and_col(self, tmp_path, capsys):
        for name, data in [("pred", _pgm(2, 2, [0, 1, 1, 3])), ("ref", _pgm(2, 2, [0, 1, 1, 1]))]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "0000.pgm").write_bytes(data)
        assert main(["eval", "--pred-dir", str(tmp_path / "pred"), "--ref-dir", str(tmp_path / "ref"),
                     "--classes", "2"]) == 1
        assert capsys.readouterr().err == (f"input error: {tmp_path / 'pred' / '0000.pgm'}: label out of range: "
                                           "value 3 at (row=1, col=1) with num_classes=2\n")

    def test_nal_train_label_maps_of_different_shapes_named(self, tmp_path, capsys):
        crf, ret = np.zeros((64, 64), np.uint8), np.zeros((32, 32), np.uint8)
        crf[16:48, 16:48] = ret[8:24, 8:24] = 1
        rc, head = _nal_train(tmp_path, [(_features(16, 16), _pgm(64, 64, crf.ravel()), _pgm(32, 32, ret.ravel()))],
                              ["--epochs=1"])
        crf_path, ret_path = tmp_path / "crf" / "0000.pgm", tmp_path / "ret" / "0000.pgm"
        assert rc == 1 and not head.exists()
        assert (f"input error: stage 'nal-train': label maps differ in shape: {crf_path} is 64x64, {ret_path} "
                "is 32x32 (width x height)") in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, low", [
        ("train-head", "--seed", "-3", 0), ("nal-train", "--seed", "-1", 0), ("train-head", "--grid-size", "0", 1),
        ("crf", "--iters", "-1", 0),
    ])
    def test_int_setting_out_of_range_names_its_flag(self, tmp_path, capsys, command, flag, value, low):
        assert main([command, *self._required(command, tmp_path), flag, value]) == 1
        assert f"usage error: argument {flag}: must be >= {low}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, rule", [
        ("synth", "--classes", "255", "must be in [1, 254], got 255"),
        ("run", "--seed", "-1", "must be >= 0, got -1"), ("run", "--jobs", "0", "must be >= 1, got 0"),
        ("train-head", "--classes", "0", "must be in [1, 254], got 0"),
        ("train-head", "--grid-size", "0", "must be >= 1, got 0"),
        ("train-head", "--epochs", "0", "must be >= 1, got 0"),
        ("train-head", "--lr", "0", "must be > 0, got 0.0"), ("train-head", "--lr", "inf", "must be finite, got inf"),
        ("train-head", "--seed", "-1", "must be >= 0, got -1"),
        ("labels", "--grid-size", "0", "must be >= 1, got 0"),
        ("labels", "--attn-threshold", "2", "must be in [0, 1], got 2.0"),
        ("labels", "--attn-threshold", "nan", "must be finite, got nan"),
        ("labels", "--iters", "-1", "must be >= 0, got -1"),
        ("labels", "--w1", "-1", "must be in [0, 1e+100], got -1.0"),
        ("labels", "--theta-alpha", "0", "must be in [1e-100, 1e+100], got 0.0"),
        ("crf", "--iters", "-2", "must be >= 0, got -2"), ("crf", "--w1", "nan", "must be finite, got nan"),
        ("crf", "--w2", "-1", "must be in [0, 1e+100], got -1.0"),
        ("crf", "--theta-alpha", "1e101", "must be in [1e-100, 1e+100], got 1e+101"),
        ("crf", "--theta-beta", "0", "must be in [1e-100, 1e+100], got 0.0"),
        ("crf", "--theta-gamma", "-inf", "must be finite, got -inf"),
        ("nal-train", "--classes", "255", "must be in [1, 254], got 255"),
        ("nal-train", "--gamma", "0.5", "must be >= 1, got 0.5"),
        ("nal-train", "--lambda", "-1", "must be >= 0, got -1.0"),
        ("nal-train", "--epochs", "0", "must be >= 1, got 0"), ("nal-train", "--lr", "-1", "must be > 0, got -1.0"),
        ("nal-train", "--seed", "-1", "must be >= 0, got -1"),
        ("nal-train", "--dump-confidence-every", "-1", "must be >= 0, got -1"),
        ("eval", "--classes", "255", "must be in [1, 254], got 255"),
    ])
    def test_setting_flag_checked_by_its_owner_before_any_read(self, tmp_path, capsys, command, flag, value, rule):
        # The input paths do not exist, so only a check at parse time gives this message.
        assert main([command, *self._required(command, tmp_path), f"{flag}={value}"]) == 1
        assert capsys.readouterr().err == f"usage error: argument {flag}: {rule}\n"
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command, flag", [("synth", "--images"), ("crf", "--w1"), ("crf", "--out")])
    def test_double_dash_as_a_value_is_usage_error(self, tmp_path, capsys, command, flag):
        # argparse drops the value of `--flag=--` and would store [] without calling its type.
        assert main([command, *self._required(command, tmp_path), f"{flag}=--"]) == 1
        assert capsys.readouterr().err == f"usage error: argument {flag}: expected one argument\n"
        assert not (tmp_path / "c").exists()

    def test_option_counts(self):
        # Each flag, config key or CrfParams field a change adds or removes shows up here.
        subcommands = build_parser()._subparsers._group_actions[0].choices.values()
        flags = [a for p in subcommands for a in p._actions if a.option_strings and a.dest != "help"]
        assert (len(flags), len(dataclasses.fields(PipelineConfig)), len(dataclasses.fields(CrfParams))) == (60, 23, 6)

    def test_failed_labels_stage_makes_no_directory(self, tmp_path, capsys):
        corpus, out, cfg = tmp_path / "corpus", tmp_path / "out", tmp_path / "cfg.json"
        assert main(["synth", "--out", str(corpus), "--images", "2", "--size", "16"]) == 0
        (corpus / "images" / "0001.ppm").unlink()
        for stages, message in [(["train-head", "labels"], "missing image file"), (["eval"], "nothing to evaluate")]:
            cfg.write_text(PipelineConfig(corpus_dir=str(corpus), out_dir=str(out), stages=stages,
                                          dump_attention=True).to_json())
            capsys.readouterr()
            assert main(["run", "--config", str(cfg)]) == 1
            assert message in capsys.readouterr().err
            assert not (out / "labels").exists() and not (out / "attention").exists()

    def test_boxes_frame_checked_before_the_unary(self, corpus, trained_head, tmp_path, capsys, monkeypatch):
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps({"width": 1000, "height": 1000,
                                     "boxes": [{"class": 1, "xmin": 0, "ymin": 0, "xmax": 500, "ymax": 500}]}))

        def build_unary(*args):
            raise AssertionError("built the unary of a frame that is not the image's")

        monkeypatch.setattr(pipeline, "build_unary", build_unary)
        outputs = [tmp_path / name for name in ("crf.pgm", "ret.pgm", "fused.pgm")]
        rc = main(["labels", "--features", str(corpus / "features" / "0000.btf"), "--boxes", str(boxes),
                   "--image", str(corpus / "images" / "0000.ppm"), "--head", str(trained_head),
                   *(arg for flag, path in zip(("--out-crf", "--out-ret", "--out-fused"), outputs)
                     for arg in (flag, str(path)))])
        assert rc == 1
        assert ("input error: boxes frame 1000x1000 does not match the 48x48 image (width x height)"
                in capsys.readouterr().err)
        assert not any(path.exists() for path in outputs)

    def test_box_class_past_the_heads_checked_before_any_map(self, corpus, trained_head, tmp_path, capsys,
                                                              monkeypatch):
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps({"width": 48, "height": 48,
                                     "boxes": [{"class": 4, "xmin": 0, "ymin": 0, "xmax": 20, "ymax": 20}]}))

        def background_attention(*args):
            raise AssertionError("built a map for a box class the head does not have")

        monkeypatch.setattr(pipeline, "_background_attention", background_attention)
        outputs = [tmp_path / name for name in ("crf.pgm", "ret.pgm", "fused.pgm")]
        rc = main(["labels", "--features", str(corpus / "features" / "0000.btf"), "--boxes", str(boxes),
                   "--image", str(corpus / "images" / "0000.ppm"), "--head", str(trained_head),
                   *(arg for flag, path in zip(("--out-crf", "--out-ret", "--out-fused"), outputs)
                     for arg in (flag, str(path)))])
        assert rc == 1
        assert capsys.readouterr().err == "input error: box class 4 is past the head's 3 classes\n"
        assert not any(path.exists() for path in outputs)

    def test_box_class_past_classes_names_its_file(self, corpus, tmp_path, capsys, monkeypatch):
        def sgd_train(*args, **kwargs):
            raise AssertionError("trained on a box class past --classes")

        monkeypatch.setattr(pipeline, "sgd_train", sgd_train)
        first = next(path for path in sorted((corpus / "boxes").glob("*.json"))
                     if max(b.class_id for b in fileio.read_boxes(path).boxes) > 1)
        top = max(b.class_id for b in fileio.read_boxes(first).boxes)
        assert main(["train-head", "--features-dir", str(corpus / "features"), "--boxes-dir", str(corpus / "boxes"),
                     "--out", str(tmp_path / "head.btf"), "--classes", "1"]) == 1
        assert (f"input error: stage 'train-head': box class {top} in {first} is past the 1 classes\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "head.btf").exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["eval", "--pred-dir", str(tmp_path / "void"), "--ref-dir", str(tmp_path), "--classes", "1"]
        )
        assert rc == 1


class TestOutputsInAMissingDirectory:
    """A command exits 1 before its first write, so that none of the outputs it names exists."""

    @staticmethod
    def _argv(command, tmp, corpus, head, missing=None, *flags):
        """``command`` on small inputs with every output it names under ``tmp``, the one of flag
        ``missing`` under ``tmp / "nodir"``; returns the argv and the output paths by flag."""
        if command == "crf":
            fileio.write_tensor(tmp / "u.btf", np.full((3, 4, 4), 0.5, dtype=np.float32))
            fileio.write_image(tmp / "i.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
            inputs = ["--unary", str(tmp / "u.btf"), "--image", str(tmp / "i.ppm")]
            outputs = {"--out": "y.pgm", "--marginals": "q.btf"}
        elif command == "train-head":
            inputs = ["--features-dir", str(corpus / "features"), "--boxes-dir", str(corpus / "boxes"), "--epochs", "1"]
            outputs = {"--out": "head.btf"}
        elif command == "eval":
            inputs = ["--pred-dir", str(corpus / "gt"), "--ref-dir", str(corpus / "gt"), "--classes", "3"]
            outputs = {"--out": "report.json"}
        elif command == "labels":
            inputs = ["--features", str(corpus / "features" / "0000.btf"),
                      "--boxes", str(corpus / "boxes" / "0000.json"),
                      "--image", str(corpus / "images" / "0000.ppm"), "--head", str(head)]
            outputs = {"--out-crf": "crf.pgm", "--out-ret": "ret.pgm", "--out-fused": "fused.pgm",
                       "--out-attention": "attn.btf", "--filling-rate-csv": "rates.csv"}
        else:
            for name, data in [("crf", [0, 1, 2, 1]), ("ret", [0, 1, 1, 1])]:  # the third pixel is disputed
                (tmp / name).mkdir()
                (tmp / name / "0000.pgm").write_bytes(_pgm(2, 2, data))
            (tmp / "features").mkdir()
            fileio.write_tensor(tmp / "features" / "0000.btf", _features(2, 2))
            inputs = ["--features-dir", str(tmp / "features"), "--labels-crf-dir", str(tmp / "crf"),
                      "--labels-ret-dir", str(tmp / "ret"), "--epochs", "1", "--dump-confidence-every", "1"]
            outputs = {"--out-head": "seg.btf", "--loss-csv": "loss.csv", "--dump-confidence-dir": "conf"}
        paths = _output_paths(tmp, outputs, missing)
        argv = [command, *inputs, *(arg for flag, path in paths.items() for arg in (flag, str(path))), *flags]
        return argv, paths

    @pytest.mark.parametrize("command, flag", [
        ("train-head", "--out"), ("eval", "--out"), ("nal-train", "--out-head"), ("nal-train", "--loss-csv"),
        ("labels", "--out-crf"), ("labels", "--out-ret"), ("labels", "--out-fused"), ("labels", "--out-attention"),
        ("labels", "--filling-rate-csv"), ("crf", "--out"), ("crf", "--marginals"),
    ])
    def test_output_in_a_missing_directory_writes_nothing(self, corpus, trained_head, tmp_path, capsys, command,
                                                          flag):
        argv, paths = self._argv(command, tmp_path, corpus, trained_head, flag)
        missing = paths[flag]
        assert main(argv) == 1
        assert f"input error: {flag} {missing}: directory {missing.parent} does not exist" in capsys.readouterr().err
        assert not any(path.exists() for path in paths.values())
        missing.parent.mkdir()  # then the same command writes every output
        assert main(argv) == 0 and all(path.exists() for path in paths.values())

    def test_rejected_setting_leaves_no_confidence_directory(self, corpus, trained_head, tmp_path, capsys):
        argv, paths = self._argv("nal-train", tmp_path, corpus, trained_head, None, "--gamma", "0.5")
        assert main(argv) == 1 and "usage error: argument --gamma: must be >= 1, got 0.5" in capsys.readouterr().err
        assert not any(path.exists() for path in paths.values())


    def test_diverged_training_leaves_no_confidence_dumps(self, corpus, trained_head, tmp_path, capsys):
        argv, paths = self._argv("nal-train", tmp_path, corpus, trained_head, None, "--epochs", "2", "--lr", "1e300")
        assert main(argv) == 1 and "input error: training diverged" in capsys.readouterr().err
        assert not any(path.exists() for path in paths.values())

    def test_diverged_training_removes_every_directory_its_dumps_made(self, corpus, trained_head, tmp_path, capsys):
        argv, _ = self._argv("nal-train", tmp_path, corpus, trained_head, None, "--epochs", "2", "--lr", "1e300")
        argv[argv.index("--dump-confidence-dir") + 1] = str(tmp_path / "new" / "a" / "conf")
        assert main(argv) == 1 and "input error: training diverged" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


def test_every_output_file_flag_is_checked_as_parsed():
    # A new output-file flag declared without the check shows up here, and
    # TestOutputsInAMissingDirectory must then name it too. Directories (synth --out,
    # --dump-confidence-dir) are not files.
    subcommands = build_parser()._subparsers._group_actions[0].choices
    declared = {(command, action.option_strings[0]) for command, p in subcommands.items()
                for action in p._actions if isinstance(action, _Output)}
    test = TestOutputsInAMissingDirectory.test_output_in_a_missing_directory_writes_nothing
    parametrized = next(m for m in test.pytestmark if m.name == "parametrize").args[1]
    assert declared == set(parametrized) and len(parametrized) == 11


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

    def test_head_scale_past_float_range(self, corpus, trained_head, tmp_path, capsys):
        head = tmp_path / "head.btf"
        head.write_bytes(trained_head.read_bytes())
        sidecar = head.with_suffix(".btf.json")
        meta = json.loads(trained_head.with_suffix(".btf.json").read_text())
        sidecar.write_text(json.dumps({**meta, "scale": 10**400}))
        self._input_error(capsys, self._labels(corpus, tmp_path, corpus / "boxes" / "0000.json", head), sidecar)
        assert not (tmp_path / "crf.pgm").exists()

    @pytest.mark.parametrize("field, value", [("mode", "bogus"), ("scale", -1.0), ("scale", 0)])
    def test_bad_head_mode_or_scale_names_the_sidecar(self, corpus, trained_head, tmp_path, capsys, field, value):
        head = tmp_path / "head.btf"
        head.write_bytes(trained_head.read_bytes())
        sidecar = head.with_suffix(".btf.json")
        meta = json.loads(trained_head.with_suffix(".btf.json").read_text())
        sidecar.write_text(json.dumps({**meta, field: value}))
        self._input_error(capsys, self._labels(corpus, tmp_path, corpus / "boxes" / "0000.json", head), sidecar)
        assert not (tmp_path / "crf.pgm").exists()

    @pytest.mark.parametrize("value", [2**70, 10**400], ids=["past-int64", "past-float"])
    def test_config_float_given_a_large_int(self, tmp_path, capsys, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corpus_dir": "c", "out_dir": str(tmp_path / "out"), "stages": [],
                                    "head_lr": value}))
        rc = main(["run", "--config", str(path)])
        assert rc == (0 if value < 1e308 else 1)
        if rc:
            assert "input error: head_lr must be finite" in capsys.readouterr().err

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


class TestMalformedInputFiles:
    """An outside input that breaks a rule exits 1 with a message naming the file and the offset or field."""

    def _error(self, capsys, argv) -> str:
        assert main(argv) == 1
        return capsys.readouterr().err

    def _train_head(self, features, boxes, tmp_path):
        return ["train-head", "--features-dir", str(features), "--boxes-dir", str(boxes),
                "--out", str(tmp_path / "h.btf")]

    def test_non_finite_unary_value_names_its_offset(self, tmp_path, capsys):
        values = np.zeros(8, dtype="<f4")
        values[3] = np.nan
        unary = tmp_path / "u.btf"
        unary.write_bytes(b"BTF1" + np.asarray([3, 2, 2, 2], dtype="<u4").tobytes() + values.tobytes())
        fileio.write_image(tmp_path / "i.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        err = self._error(capsys, ["crf", "--unary", str(unary), "--image", str(tmp_path / "i.ppm"),
                                   "--out", str(tmp_path / "y.pgm")])
        assert f"input error: {unary}: non-finite value at offset 32" in err

    def test_head_weights_that_disagree_with_the_sidecar(self, corpus, trained_head, tmp_path, capsys):
        head = tmp_path / "head.btf"
        head.write_bytes(trained_head.read_bytes())
        meta = json.loads(trained_head.with_suffix(".btf.json").read_text())
        head.with_suffix(".btf.json").write_text(json.dumps({**meta, "num_classes": 2}))
        err = self._error(capsys, [
            "labels", "--features", str(corpus / "features" / "0000.btf"),
            "--boxes", str(corpus / "boxes" / "0000.json"), "--image", str(corpus / "images" / "0000.ppm"),
            "--head", str(head),
            "--out-crf", str(tmp_path / "crf.pgm"), "--out-ret", str(tmp_path / "ret.pgm"),
            "--out-fused", str(tmp_path / "fused.pgm"),
        ])
        assert f"input error: {head}: weight shape (4, 8) does not match sidecar (num_classes=2, dim=8)" in err

    def test_empty_features_directory(self, tmp_path, capsys):
        (tmp_path / "features").mkdir()
        err = self._error(capsys, self._train_head(tmp_path / "features", tmp_path, tmp_path))
        assert f"input error: stage 'train-head': no .btf files under {tmp_path / 'features'}" in err

    def test_feature_channel_counts_that_differ(self, corpus, tmp_path, capsys):
        features, boxes = tmp_path / "features", tmp_path / "boxes"
        for image_id in ("0000", "0001"):
            fileio.write_text(boxes / f"{image_id}.json", (corpus / "boxes" / f"{image_id}.json").read_text())
        f = fileio.read_tensor(corpus / "features" / "0000.btf")
        fileio.write_tensor(features / "0000.btf", f)
        fileio.write_tensor(features / "0001.btf", f[:4])
        err = self._error(capsys, self._train_head(features, boxes, tmp_path))
        assert "input error: stage 'train-head': image 0001 has 4 feature channels, image 0000 has 8" in err
