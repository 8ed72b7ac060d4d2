"""Command-line entry point.

Subcommands mirror the pipeline stages plus stand-alone tools::

    bana synth      --out DIR [--seed --images --size --classes]
    bana run        --config config.json [--seed N --jobs N]
    bana train-head --features-dir D --boxes-dir D --out HEAD.btf ...
    bana labels     --features F --boxes B --image I --head H
                    --out-crf P --out-ret P --out-fused P ...
    bana crf        --unary U.btf --image I.ppm --out Y.pgm ...
    bana nal-train  --features-dir D --labels-crf-dir D --labels-ret-dir D
                    --out-head H ...
    bana eval       --pred-dir D --ref-dir D --classes L

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import clshead, fileio, metrics, pipeline, synth
from .core import IGNORE
from .crf import CrfParams, mean_field


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Bad flags are an input error (exit 1), not an internal one.
    def error(self, message):
        raise _UsageError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops the value of `--w1=--` and would store [] without calling the flag's type.
        if arg_strings == ["--"] and action.option_strings:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


# Each stage subcommand's settings flags, by the PipelineConfig field that gives a flag its
# default, type and checks and names its value; `bana labels` and `bana crf` add the CrfParams flags.
_STAGE_FLAGS = {
    "train-head": {"--grid-size": "grid_size_train", "--epochs": "head_epochs", "--lr": "head_lr", "--seed": "seed"},
    "labels": {"--grid-size": "grid_size_label", "--attn-threshold": "attn_threshold"},
    "nal-train": {"--gamma": "gamma", "--lambda": "lam", "--epochs": "seg_epochs", "--lr": "seg_lr", "--seed": "seed"},
}
_CRF_FLAGS = {"--iters": "iterations", "--w1": "w1", "--w2": "w2",
              "--theta-alpha": "theta_alpha", "--theta-beta": "theta_beta", "--theta-gamma": "theta_gamma"}
_FLAG_HELP = {"--attn-threshold": "background score threshold; 0 keeps the raw attention map"}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _setting(base, name: str):
    """The argparse type of a flag that sets field ``name`` of the dataclass ``base``: the text
    as that field's type, checked by replacing the field in ``base``, whose message it keeps."""
    kind = {"int": int, "int | None": int, "float": float}[{f.name: f.type for f in dataclasses.fields(base)}[name]]

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:  # argparse would name this function in its message
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        try:
            dataclasses.replace(base, **{name: value})
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e).removeprefix(f"{name} ")) from None
        return value

    return parse


# The settings every flag below is checked against; their paths are never read.
_CONFIG, _CRF = pipeline.PipelineConfig(corpus_dir="", out_dir=""), CrfParams()
_num_classes = _setting(_CONFIG, "num_classes")


def _add_settings_flags(p: argparse.ArgumentParser, base, flags: dict[str, str]) -> None:
    """Add ``flags``, each defaulting to and checked by the field of the dataclass ``base`` that it names."""
    for flag, name in flags.items():
        p.add_argument(flag, dest=name, type=_setting(base, name), default=getattr(base, name),
                       help=_FLAG_HELP.get(flag))


def _check_outputs(args, *names: str) -> None:
    """Reject each output path ``args.<name>`` that is a directory or lies in a
    missing one, so that a command fails before its first write, not after it."""
    for name in names:
        path = getattr(args, name)
        if path is None:
            continue
        flag, path = "--" + name.replace("_", "-"), Path(path)
        if not path.parent.is_dir():
            raise ValueError(f"{flag} {path}: directory {path.parent} does not exist")
        if path.is_dir():
            raise ValueError(f"{flag} {path} is a directory")


def _crf_params(args) -> CrfParams:
    return CrfParams(**{name: getattr(args, name) for name in _CRF_FLAGS.values()})


def build_parser() -> _Parser:
    parser = _Parser(prog="bana", description="Pseudo segmentation labels from bounding boxes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic test corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images", type=_positive_int, default=50)
    p.add_argument("--size", type=_positive_int, default=64)
    p.add_argument("--classes", type=_num_classes, default=3)

    p = sub.add_parser("run", help="run the configured pipeline stages")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_setting(_CONFIG, "seed"), default=None, help="override the config seed")
    p.add_argument("--jobs", type=_setting(_CONFIG, "jobs"), default=None, help="override the config worker count")

    p = sub.add_parser("train-head", help="train the classification head")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--boxes-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=_num_classes, default=None, help="number of object classes (default: inferred)")

    p = sub.add_parser("labels", help="generate pseudo labels for one image")
    p.add_argument("--features", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--out-crf", required=True)
    p.add_argument("--out-ret", required=True)
    p.add_argument("--out-fused", required=True)
    p.add_argument("--out-attention", default=None, help="also dump the attention map as .btf")
    p.add_argument("--filling-rate-csv", default=None)

    p = sub.add_parser("crf", help="mean-field inference on a unary stack")
    p.add_argument("--unary", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--marginals", default=None, help="dump final marginals as rank-3 .btf")

    p = sub.add_parser("nal-train", help="train the segmentation head")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--labels-crf-dir", required=True)
    p.add_argument("--labels-ret-dir", required=True)
    p.add_argument("--out-head", required=True)
    p.add_argument("--classes", type=_num_classes, default=None)
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--dump-confidence-dir", default=None,
                   help="write per-image confidence maps as .btf while training")
    p.add_argument("--dump-confidence-every", type=_setting(_CONFIG, "dump_confidence_every"), default=10,
                   help="epoch stride for the confidence dumps; 0 writes none")

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--classes", type=_num_classes, required=True)
    p.add_argument("--out", default=None, help="write the JSON report here as well")

    for command, flags in _STAGE_FLAGS.items():
        _add_settings_flags(sub.choices[command], _CONFIG, flags)
    for command in ("labels", "crf"):
        _add_settings_flags(sub.choices[command], _CRF, _CRF_FLAGS)
    return parser


def _cmd_synth(args) -> int:
    manifest = synth.synth_corpus(
        args.out, seed=args.seed, num_images=args.images, size=args.size, num_classes=args.classes
    )
    print(f"wrote {len(manifest['ids'])} images to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = pipeline.PipelineConfig.from_json_file(args.config)
    overrides = {"seed": args.seed, "jobs": args.jobs}
    # replace() builds a new config, so the overrides are validated too.
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    artifacts = pipeline.run_pipeline(cfg)
    for stage, path in artifacts.items():
        print(f"{stage}: {path}")
    return 0


def _cmd_train_head(args) -> int:
    _check_outputs(args, "out")
    features_dir, boxes_dir = Path(args.features_dir), Path(args.boxes_dir)
    ids = pipeline.stage_ids(features_dir, ".btf", "train-head")
    num_classes = pipeline.resolve_num_classes(args.classes, None, pipeline.box_class_ids(boxes_dir, ids))
    head, losses = pipeline.train_head(
        features_dir, boxes_dir, ids, num_classes,
        grid_size=args.grid_size_train, epochs=args.head_epochs, lr=args.head_lr, seed=args.seed,
    )
    clshead.save_head(args.out, head)
    print(f"final loss {losses[-1]:.4f} -> {args.out}")
    return 0


def _cmd_labels(args) -> int:
    _check_outputs(args, "out_crf", "out_ret", "out_fused", "out_attention", "filling_rate_csv")
    f = fileio.read_tensor(args.features, expected_rank=3)
    boxes = fileio.read_boxes(args.boxes)
    image = fileio.read_image(args.image)
    head = clshead.load_head(args.head)
    fused, attn, rates = pipeline.generate_labels_for_image(
        f, boxes, image, head, grid_size=args.grid_size_label, tau=args.attn_threshold, crf_params=_crf_params(args)
    )
    fileio.write_label_map(args.out_crf, fused.y_crf)
    fileio.write_label_map(args.out_ret, fused.y_ret)
    fileio.write_label_map(args.out_fused, fused.fused)
    if args.out_attention:
        fileio.write_tensor(args.out_attention, attn)
    if args.filling_rate_csv:
        lines = ["box_index,class,filling_rate"]
        lines += [f"{i},{b.class_id},{r:.6f}" for i, (b, r) in enumerate(zip(boxes.boxes, rates))]
        fileio.write_text(args.filling_rate_csv, "\n".join(lines) + "\n")
    print(f"coverage {float((fused.fused != IGNORE).mean()):.3f} -> {args.out_fused}")
    return 0


def _cmd_crf(args) -> int:
    _check_outputs(args, "out", "marginals")
    unary = fileio.read_tensor(args.unary, expected_rank=3)
    image = fileio.read_image(args.image)
    labels, marginals = mean_field(unary, image, _crf_params(args))
    fileio.write_label_map(args.out, labels)
    if args.marginals:
        fileio.write_tensor(args.marginals, marginals)
    return 0


def _cmd_nal_train(args) -> int:
    _check_outputs(args, "out_head", "loss_csv")
    features_dir, crf_dir = Path(args.features_dir), Path(args.labels_crf_dir)
    ids = pipeline.stage_ids(features_dir, ".btf", "nal-train")
    num_classes = pipeline.resolve_num_classes(args.classes, None, pipeline.label_class_ids(crf_dir, ids))
    head, losses = pipeline.nal_train(
        features_dir, crf_dir, Path(args.labels_ret_dir), ids, num_classes,
        gamma=args.gamma, lam=args.lam, epochs=args.seg_epochs, lr=args.seg_lr, seed=args.seed,
        confidence_dir=Path(args.dump_confidence_dir) if args.dump_confidence_dir else None,
        confidence_every=args.dump_confidence_every,
    )
    clshead.save_head(args.out_head, head)
    if args.loss_csv:
        pipeline.write_loss_csv(args.loss_csv, losses)
    print(f"final loss {losses[-1]:.4f} -> {args.out_head}")
    return 0


def _cmd_eval(args) -> int:
    _check_outputs(args, "out")
    pred_dir = Path(args.pred_dir)
    ids = pipeline.stage_ids(pred_dir, ".pgm", "eval")
    report = metrics.score(pipeline.label_confusion(pred_dir, Path(args.ref_dir), ids, args.classes))
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        fileio.write_text(args.out, text + "\n")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "train-head": _cmd_train_head,
    "labels": _cmd_labels,
    "crf": _cmd_crf,
    "nal-train": _cmd_nal_train,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # anything else is a bug, not a user mistake
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
