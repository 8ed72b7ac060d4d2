"""The bana benchmark: pipeline workloads, end-to-end metrics and a traced run.

Run from the repository root (numpy is the only requirement)::

    python3 bench/run.py --workload corpus64 --seed 1 --seconds 35 --trace 0

The workload's corpus is synthesized from ``--seed``. The pipeline's four
stages then run on it, pass after pass, for ``--seconds``: a closed loop,
one stage call at a time. The outputs are checked after the last call.
Each line printed is a JSON object: the environment record, every stage
call's wall time, and last the result ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``. With ``--trace 1`` they are the per-layer ones: the run
measures untraced for half of ``--seconds``, then traced for ``--seconds``
with spans around the package's functions (see ``spans.py``), byte-compares
the two runs' artifacts, and last probes the CRF's set-up/iteration cost
split outside any span. The spans are written to
``.bench_out/trace-<workload>-s<seed>.jsonl``.

Scratch files live under ``.bench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Outcome, check_outputs, read_pnm
from spans import Recorder, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = (
    ("train-head", "run_train_head_stage"),
    ("labels", "run_labels_stage"),
    ("nal-train", "run_nal_train_stage"),
    ("eval", "run_eval_stage"),
)
MIN_PASSES = 2
MAX_CALLS_PER_PASS = 10
SETUP_TRIALS = 7

# Defaults of bana.crf.CrfParams, which `bana labels` and `bana crf` use.
PAPER_CRF = {
    "crf_w1": 4.0,
    "crf_w2": 3.0,
    "crf_theta_alpha": 49.0,
    "crf_theta_beta": 5.0,
    "crf_theta_gamma": 3.0,
    "crf_iterations": 10,
}


# Every workload's corpus: 64x64 images, 3 classes, an 8-channel feature
# grid at stride 4 -- the acceptance suite's corpus.
CORPUS = {"size": 64, "num_classes": 3, "feat_stride": 4, "feat_dim": 8}


@dataclass(frozen=True)
class Workload:
    name: str
    images: int
    jobs: int = 1
    crf: dict = field(default_factory=dict)  # PipelineConfig CRF fields
    miou_floor: float | None = None  # the acceptance suite's fused-mIoU floor


WORKLOADS = {
    w.name: w
    for w in (
        # PipelineConfig defaults: the windowed CRF from cached kernels is
        # ~95% of the run, training layers almost nothing.
        Workload("corpus64", images=12, miou_floor=0.85),
        # The stand-alone CRF defaults: `auto` picks the dense 4096^2 kernel,
        # whose build dominates, and peak RSS is ~5x corpus64's.
        Workload("paper-crf64", images=2, crf=PAPER_CRF),
        # corpus64 through the labels stage's process pool: the same outputs,
        # so its scaling and per-worker memory read directly against corpus64.
        Workload("corpus64-jobs2", images=12, jobs=2, miou_floor=0.85),
    )
}


def synth_kwargs(seed: int, images: int) -> dict:
    return {"seed": seed, "num_images": images, **CORPUS}


# Runs in a fresh interpreter, so its time covers the package imports as well.
_SETUP_TRIAL = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from bana.synth import synth_corpus
synth_corpus(sys.argv[2], **json.loads(sys.argv[3]))
print(time.perf_counter() - t0)
"""


@dataclass
class Measured:
    """Every call's wall time per stage, and the outcome of the output checks.

    A stage's first call belongs to the warm-up pass: it pays one-off costs
    (first-touch memory, caches) and is left out of the median.
    """

    stage_s: dict[str, list[float]]
    outcome: Outcome

    def median(self, stage: str) -> float:
        return statistics.median(self.stage_s[stage][1:])

    @property
    def pipeline_s(self) -> float:
        return sum(self.median(stage) for stage, _ in STAGES)


def pipeline_config(wl: Workload, corpus: Path, out: Path, seed: int):
    from bana.pipeline import PipelineConfig

    return PipelineConfig(corpus_dir=str(corpus), out_dir=str(out), seed=seed, jobs=wl.jobs, **wl.crf)


def set_up(seed: int, images: int, work: Path) -> tuple[Path, float]:
    """Synthesize the corpus SETUP_TRIALS times in fresh interpreters.

    Returns the first trial's corpus and the median trial time.
    """
    kwargs = json.dumps(synth_kwargs(seed, images))
    times = []
    for trial in range(SETUP_TRIALS):
        corpus = work / f"corpus{trial}"
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_TRIAL, str(SRC), str(corpus), kwargs],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(done.stdout))
        if trial > 0:
            shutil.rmtree(corpus)
    return work / "corpus0", statistics.median(times)


def measure(wl, corpus, out, seed, ids, budget, recorder=None) -> Measured:
    """Run the four stages in order, pass after pass, for about ``budget`` seconds.

    Every stage is deterministic, so a repeat rewrites identical bytes. After
    the first pass, a cheap stage is called several times per pass, enough
    to fill about a tenth of a pass, so it too gets enough samples for a
    steady median. Spreading each stage's calls over the whole run lets every
    stage's median see the same mix of machine load. A traced run tags each
    call's spans "stage/index".
    """
    from bana import pipeline

    cfg = pipeline_config(wl, corpus, out, seed)
    stage_s: dict[str, list[float]] = {stage: [] for stage, _ in STAGES}
    calls: list[tuple[str, str | None]] = []

    def call(stage, fn):
        times = stage_s[stage]
        if recorder is not None:
            recorder.call = f"{stage}/{len(times)}"
        # Looked up at call time, so a traced run calls the wrapped stage.
        run_stage = getattr(pipeline, fn)
        t0 = time.perf_counter()
        try:
            run_stage(cfg)
            error = None
        except Exception as e:  # a failed stage call is counted and the run goes on
            error = f"{stage}: {type(e).__name__}: {e}"
        times.append(time.perf_counter() - t0)
        calls.append((stage, error))
        if recorder is not None:
            recorder.merge_worker_spans()

    t0 = time.perf_counter()
    for stage, fn in STAGES:
        call(stage, fn)
    first_pass = time.perf_counter() - t0
    per_pass = {stage: min(MAX_CALLS_PER_PASS, max(1, round(0.1 * first_pass / times[0]))) for stage, times in stage_s.items()}
    passes = 1
    while passes < MIN_PASSES or (time.perf_counter() - t0) * (passes + 1) / passes <= budget:
        for stage, fn in STAGES:
            for _ in range(per_pass[stage]):
                call(stage, fn)
        passes += 1
    return Measured(stage_s, check_outputs(corpus, out, ids, CORPUS["num_classes"], calls, wl.miou_floor))


def artifacts_problem(a: Path, b: Path) -> str | None:
    """Why the two output trees are not byte-identical, or None."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"traced and untraced runs wrote different files: {sorted(set(files_a) ^ set(files_b))[:5]}"
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return f"traced and untraced runs differ in {rel}"
    return None


def crf_probe(cfg, image_id: str, budget: float) -> tuple[dict, str | None]:
    """mean_field on one image's unary, with 0 iterations and the workload's count.

    The unary is the one the labels stage builds: the image goes once through
    the stage's own per-image worker with ``mean_field`` wrapped to keep its
    arguments. Returns the set-up/iteration split as metrics, and a problem
    when the probe's label map is not the one the labels stage wrote.
    """
    from bana import pipeline

    label_map = Path(cfg.out_dir) / "labels" / "crf" / f"{image_id}.pgm"
    _, _, written = read_pnm(label_map, b"P5")
    seen = []
    original = pipeline.mean_field

    def keep_args(*args):
        seen.append(args)
        return original(*args)

    pipeline.mean_field = keep_args
    try:
        pipeline._labels_worker((cfg, image_id))  # rewrites the same bytes
    finally:
        pipeline.mean_field = original
    unary, image, params = seen[0]

    zero = dataclasses.replace(params, iterations=0)
    t_setup, t_full = [], []
    t0 = time.perf_counter()
    while len(t_full) < MIN_PASSES or (time.perf_counter() - t0) * (len(t_full) + 1) / len(t_full) <= budget:
        t = time.perf_counter()
        original(unary, image, zero)
        t_setup.append(time.perf_counter() - t)
        t = time.perf_counter()
        labels, _ = original(unary, image, params)
        t_full.append(time.perf_counter() - t)

    problem = None if labels.tobytes() == written else "crf probe: label map differs from the labels stage's"
    setup_s, full_s = statistics.median(t_setup), statistics.median(t_full)
    iter_ms = 1e3 * (full_s - setup_s) / max(params.iterations, 1)
    pixels = unary.shape[1] * unary.shape[2]
    return {
        "crf.setup_ms": (1e3 * setup_s, "ms"),
        "crf.iter_ms": (iter_ms, "ms"),
        "crf.ns_per_pixel_iter": (1e6 * iter_ms / pixels, "ns"),
    }, problem


def environment(wl: Workload, args, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):  # numpy < 1.25 has no dict form
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "seed": args.seed,
        "workload": wl.name,
        **CORPUS,
        "images": wl.images,
        "jobs": wl.jobs,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(run: Measured, setup_s: float, images: int, out: Path) -> dict:
    try:
        report = json.loads((out / "metrics.json").read_text("ascii"))
        fused_miou = report["pseudo_labels"]["fused_claimed"]["miou"]
        coverage = report["pseudo_labels"]["fused_coverage"]
        seg_miou = report["segmentation"]["miou"]
    except (OSError, ValueError, KeyError, TypeError):  # already counted as a failed check
        fused_miou = coverage = seg_miou = 0.0
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    outcome = run.outcome
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (run.pipeline_s, "s"),
        "labels_img_per_s": (images / run.median("labels"), "img/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "fused_miou": (fused_miou, "1"),
        "fused_coverage": (coverage, "1"),
        "seg_miou": (seg_miou, "1"),
        "ok_frac": ((outcome.attempted - outcome.failed) / outcome.attempted, "1"),
    }


def benchmark(wl: Workload, args, work: Path) -> tuple[Outcome, dict, dict]:
    images = wl.images
    corpus, setup_s = set_up(args.seed, images, work)
    ids = sorted(p.stem for p in (corpus / "features").glob("*.btf"))

    if not args.trace:
        run = measure(wl, corpus, work / "out", args.seed, ids, args.seconds)
        return run.outcome, end_to_end(run, setup_s, images, work / "out"), run.stage_s

    plain = measure(wl, corpus, work / "plain", args.seed, ids, args.seconds / 2)
    recorder = Recorder(work / "worker_spans")
    recorder.worker_dir.mkdir()
    recorder.install()
    try:
        from bana.synth import synth_corpus

        synth_corpus(work / "traced_corpus", **synth_kwargs(args.seed, images))
        traced = measure(wl, corpus, work / "traced", args.seed, ids, args.seconds, recorder)
    finally:
        recorder.uninstall()
    outcome = plain.outcome
    outcome.merge(traced.outcome)
    outcome.record(artifacts_problem(work / "plain", work / "traced"))
    probe, problem = crf_probe(pipeline_config(wl, corpus, work / "plain", args.seed), ids[0], args.seconds / 4)
    outcome.record(problem)

    metrics = layer_metrics(recorder.spans, wl.jobs, {stage: traced.median(stage) for stage, _ in STAGES})
    metrics["synth.synth_corpus.s"] = (
        sum(s[2] - s[1] for s in recorder.spans if s[0] == "synth.synth_corpus" and s[4] == -1),
        "s",
    )
    metrics.update(probe)
    seg_epochs = pipeline_config(wl, corpus, work, args.seed).seg_epochs
    metrics["nal.img_steps_per_s"] = (seg_epochs * images / plain.median("nal-train"), "img-steps/s")
    metrics["trace.overhead_frac"] = (traced.pipeline_s / plain.pipeline_s - 1.0, "1")
    recorder.write_jsonl(ROOT / ".bench_out" / f"trace-{wl.name}-s{args.seed}.jsonl")
    return outcome, metrics, traced.stage_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    if wl.jobs > nproc:
        print(f"error: workload {wl.name} needs {wl.jobs} jobs but only {nproc} CPUs are available", file=sys.stderr)
        return 2
    if args.trace and wl.jobs > 1 and multiprocessing.get_start_method() != "fork":
        # Pool workers see the span wrappers only when forked; see spans.py.
        print(f"error: a traced run of {wl.name} needs the 'fork' start method, "
              f"not {multiprocessing.get_start_method()!r}", file=sys.stderr)
        return 2
    # One BLAS thread per process, so jobs x threads <= nproc; set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import bana
    except ImportError as e:
        print(f"error: cannot import the bana package from {SRC}: {e}", file=sys.stderr)
        return 2
    if SRC not in Path(bana.__file__).resolve().parents:
        print(f"error: imported bana from {bana.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome, metrics, stage_s = benchmark(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(wl, args, nproc)}))
    print(json.dumps({"stage_call_s": stage_s}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
