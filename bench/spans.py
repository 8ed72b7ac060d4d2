"""In-memory spans around the package's public functions, installed from outside it.

:class:`Recorder.install` rebinds every listed function, in every ``bana``
module that holds a reference to it, to a wrapper that records one span
(name, start, end, parent, stage call). Nothing under ``src/bana`` changes, and a
wrapper passes arguments and results through untouched, so a traced run
writes the same bytes as an untraced one.

Pool workers of the labels stage are forked while the labels span is open,
so a traced run with a process pool needs the ``fork`` start method (the
default on Linux before Python 3.14; ``run.py`` refuses any other). The
workers inherit the installed wrappers and the open-span stack, record their
spans locally, and write each task's spans to a file when the task ends; the
parent merges those files back with :meth:`Recorder.merge_worker_spans`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# module -> {function: span name}. Functions sharing a span name form one
# layer entry; a layer's time counts only its outermost span of that name.
TARGETS = {
    "bana.synth": {"synth_corpus": "synth.synth_corpus"},
    "bana.fileio": {
        **dict.fromkeys(("read_tensor", "read_label_map", "read_image", "read_boxes"), "fileio.read"),
        **dict.fromkeys(("write_tensor", "write_label_map", "write_image", "write_boxes", "write_text"), "fileio.write"),
    },
    "bana.core": {"as_feature_map": "core.as_feature_map", "bilinear_resize": "core.bilinear_resize"},
    "bana.bgattn": {
        "extract_queries": "bgattn.extract_queries",
        "attention_map": "bgattn.attention_map",
        "bap_pool": "bgattn.bap_pool",
    },
    "bana.clshead": {"sgd_train": "clshead.sgd_train", "cam": "clshead.cam"},
    "bana.crf": {"build_unary": "crf.build_unary", "mean_field": "crf.mean_field"},
    "bana.pseudolabel": {
        "extract_prototypes": "pseudolabel.extract_prototypes",
        "retrieval_labels": "pseudolabel.retrieval_labels",
        "fuse_labels": "pseudolabel.fuse_labels",
        "filling_rate": "pseudolabel.filling_rate",
    },
    "bana.nal": {
        "train_seg_head": "nal.train_seg_head",
        "nal_loss_and_grad": "nal.step",
        "correlation_maps": "nal.confidence",
        "confidence_map": "nal.confidence",
        "predict_labels": "nal.predict_labels",
    },
    "bana.metrics": {"confusion": "metrics.confusion"},
    "bana.pipeline": {
        "run_train_head_stage": "pipeline.train_head",
        "run_labels_stage": "pipeline.labels",
        "run_nal_train_stage": "pipeline.nal_train",
        "run_eval_stage": "pipeline.eval",
        "generate_labels_for_image": "pipeline.generate_labels_for_image",
        "_labels_worker": "pipeline.labels_worker",
    },
}

STAGE_SPANS = ("pipeline.train_head", "pipeline.labels", "pipeline.nal_train", "pipeline.eval")
# The one span a labels-stage pool worker opens per task; see the module docstring.
_TASK_SPAN = "pipeline.labels_worker"


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _nal_split(args, result):
    report = result[0]
    return {"n_agree": report.n_agree, "n_disagree": report.n_disagree}


# Counters taken at a span's end, outside its timed interval.
_ATTRS = {
    "fileio.read": _file_bytes,
    "fileio.write": _file_bytes,
    "nal.step": _nal_split,
}


class Recorder:
    """Spans of one benchmark process, kept in memory until the run ends.

    A span is ``[name, start, end, parent index, call, attrs]``: ``call`` is
    the "stage/index" key of the stage call it ran in, or -1 outside one.
    Times are ``time.perf_counter`` seconds, which share one clock across
    processes.
    """

    def __init__(self, worker_dir: Path):
        self.owner = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = -1
        self._dumps = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.call, None]
            self.spans.append(span)
            self.stack.append(base)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            if name == _TASK_SPAN and os.getpid() != self.owner:
                self._dump_task(base)
            return result

        return wrapper

    def _dump_task(self, base: int) -> None:
        self._dumps += 1
        path = self.worker_dir / f"{os.getpid()}-{self._dumps:06d}.json"
        path.write_text(json.dumps({"base": base, "spans": self.spans[base:]}))
        del self.spans[base:]

    def merge_worker_spans(self) -> None:
        """Append the spans pool workers wrote, re-indexing their parents."""
        for path in sorted(self.worker_dir.iterdir()):
            dump = json.loads(path.read_text())
            offset = len(self.spans) - dump["base"]
            for span in dump["spans"]:
                if span[3] >= dump["base"]:
                    span[3] += offset
                self.spans.append(span)
            path.unlink()

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "bana" or k.startswith("bana.")]
        for modname, funcs in TARGETS.items():
            for fname, span_name in funcs.items():
                original = getattr(sys.modules[modname], fname)
                wrapper = self._wrap(original, span_name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "call", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _p80(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def layer_metrics(spans: list[list], jobs: int, stage_wall: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced stage calls.

    ``X.s`` is X's time in one pass of the pipeline: for each stage, the
    median over its calls of the time inside outermost spans named X, summed
    over stages. Counts and byte totals are taken the same way; percentiles
    and ratios pool every traced call. Each stage's first call ("stage/0")
    is the warm-up pass and is left out, as in ``stage_wall``, which holds
    each stage's median wall time as timed around the call.
    """
    n = len(spans)
    outer = [True] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, span in enumerate(spans):
        p = span[3]
        if p >= 0:
            children[p].append(i)
        while p >= 0:
            if spans[p][0] == span[0]:
                outer[i] = False
                break
            p = spans[p][3]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def timed(key):
        return isinstance(key, str) and not key.endswith("/0")

    # call key "stage/index" -> name -> [seconds, calls, attrs summed]
    per_call: dict[str, dict[str, list]] = {}
    for i, (name, _, _, _, key, attrs) in enumerate(spans):
        if timed(key) and outer[i]:
            entry = per_call.setdefault(key, {}).setdefault(name, [0.0, 0, {}])
            entry[0] += dur(i)
            entry[1] += 1
            for k, v in (attrs or {}).items():
                entry[2][k] = entry[2].get(k, 0) + v
    by_stage: dict[str, list[str]] = {}
    for key in per_call:
        by_stage.setdefault(key.split("/")[0], []).append(key)

    def per_pass(name, pick):
        total = 0.0
        for keys in by_stage.values():
            total += statistics.median(pick(per_call[k].get(name, [0.0, 0, {}])) for k in keys)
        return total

    def seconds(name):
        return per_pass(name, lambda e: e[0])

    def count(name):
        return per_pass(name, lambda e: e[1])

    def attr(name, key):
        return per_pass(name, lambda e: e[2].get(key, 0))

    def ids(name):
        return [i for i, s in enumerate(spans) if s[0] == name and timed(s[4])]

    def attr_total(name, key):
        return sum(spans[i][5][key] for i in ids(name))

    m: dict[str, tuple[float, str]] = {}
    for name in STAGE_SPANS:
        m[f"{name}.s"] = (seconds(name), "s")
    m["pipeline.stage_frac"] = (sum(seconds(name) for name in STAGE_SPANS) / sum(stage_wall.values()), "1")

    gen = ids("pipeline.generate_labels_for_image")
    gen_ms = [1e3 * dur(i) for i in gen]
    self_ms = [1e3 * (dur(i) - sum(dur(c) for c in children[i])) for i in gen]
    m["pipeline.generate_labels_for_image.p50_ms"] = (statistics.median(gen_ms), "ms")
    m["pipeline.generate_labels_for_image.p80_ms"] = (_p80(gen_ms), "ms")
    m["pipeline.generate_labels_for_image.self_ms"] = (statistics.median(self_ms), "ms")
    m["pipeline.generate_labels_for_image.count"] = (len(gen), "count")
    m["pipeline.generate_labels_for_image.child_frac"] = (1.0 - sum(self_ms) / sum(gen_ms), "1")
    m["pipeline.labels.parallel_eff"] = (
        statistics.median(
            per_call[k].get(_TASK_SPAN, [0.0])[0] / (jobs * per_call[k]["pipeline.labels"][0])
            for k in by_stage["labels"]
        ),
        "1",
    )

    mf_ms = [1e3 * dur(i) for i in ids("crf.mean_field")]
    m["crf.mean_field.s"] = (seconds("crf.mean_field"), "s")
    m["crf.mean_field.p50_ms"] = (statistics.median(mf_ms), "ms")
    m["crf.mean_field.p80_ms"] = (_p80(mf_ms), "ms")
    m["crf.mean_field.count"] = (len(mf_ms), "count")
    m["crf.build_unary.s"] = (seconds("crf.build_unary"), "s")

    step_ms = [1e3 * dur(i) for i in ids("nal.step")]
    disagree = attr_total("nal.step", "n_disagree")
    m["nal.train_seg_head.s"] = (seconds("nal.train_seg_head"), "s")
    m["nal.step.p50_ms"] = (statistics.median(step_ms), "ms")
    m["nal.step.p80_ms"] = (_p80(step_ms), "ms")
    m["nal.step.calls"] = (count("nal.step"), "count")
    m["nal.confidence.s"] = (seconds("nal.confidence"), "s")
    m["nal.disagree_frac"] = (disagree / (disagree + attr_total("nal.step", "n_agree")), "1")
    m["nal.predict_labels.s"] = (seconds("nal.predict_labels"), "s")

    m["core.as_feature_map.calls"] = (count("core.as_feature_map"), "count")
    m["core.as_feature_map.s"] = (seconds("core.as_feature_map"), "s")
    m["core.bilinear_resize.s"] = (seconds("core.bilinear_resize"), "s")
    for name in ("extract_queries", "attention_map", "bap_pool"):
        m[f"bgattn.{name}.s"] = (seconds(f"bgattn.{name}"), "s")
    m["bgattn.bap_pool.calls"] = (count("bgattn.bap_pool"), "count")
    m["clshead.sgd_train.s"] = (seconds("clshead.sgd_train"), "s")
    m["clshead.cam.s"] = (seconds("clshead.cam"), "s")
    for name in ("extract_prototypes", "retrieval_labels", "fuse_labels", "filling_rate"):
        m[f"pseudolabel.{name}.s"] = (seconds(f"pseudolabel.{name}"), "s")
    m["fileio.read.s"] = (seconds("fileio.read"), "s")
    m["fileio.write.s"] = (seconds("fileio.write"), "s")
    m["fileio.bytes_read"] = (attr("fileio.read", "bytes"), "bytes")
    m["fileio.bytes_written"] = (attr("fileio.write", "bytes"), "bytes")
    m["metrics.confusion.s"] = (seconds("metrics.confusion"), "s")
    return m
