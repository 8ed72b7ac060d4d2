"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench/tests

They take under two minutes: each workload runs once untraced and once
traced on a two-image corpus.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# Runs bench/run.py's main on a workload cut down to a few images.
_TINY = """
import dataclasses, sys
sys.path.insert(0, "bench")
import run
name, images, *argv = sys.argv[1:]
run.WORKLOADS[name] = dataclasses.replace(run.WORKLOADS[name], images=int(images))
sys.exit(run.main(["--workload", name, *argv]))
"""


def bench(*args, cwd=ROOT, **kwargs):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170, **kwargs
    )


def tiny(workload, images, *args):
    return subprocess.run(
        [sys.executable, "-c", _TINY, workload, str(images), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    res = result(tiny(workload, 2, "--seed", "1", "--seconds", "1", "--trace", str(trace)))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        assert values["pipeline.stage_frac"] >= 0.95
        assert values["pipeline.generate_labels_for_image.child_frac"] >= 0.90
    else:
        assert values["ok_frac"] == 1.0
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("seed", [2, 3])
def test_other_seeds_pass_the_output_check(seed):
    res = result(tiny("corpus64", 3, "--seed", str(seed), "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0


def test_corrupted_label_map_counts_as_failed(tmp_path):
    from bana.synth import synth_corpus

    wl = run.WORKLOADS["corpus64"]
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    synth_corpus(corpus, **run.synth_kwargs(seed=4, images=2))
    ids = ["0000", "0001"]
    measured = run.measure(wl, corpus, out, 4, ids, budget=0.0)
    assert measured.outcome.failed == 0

    fused = out / "labels" / "fused" / "0001.pgm"
    data = bytearray(fused.read_bytes())
    data[-1] = 7  # with L = 3 classes, 7 is neither a class nor IGNORE
    fused.write_bytes(bytes(data))
    calls = [(stage, None) for stage, _ in run.STAGES]
    outcome = checks.check_outputs(corpus, out, ids, run.CORPUS["num_classes"], calls, wl.miou_floor)
    assert outcome.failed == 1 and "[7]" in outcome.problems[0]

    metrics = run.end_to_end(run.Measured(measured.stage_s, outcome), 0.1, len(ids), out)
    assert metrics["ok_frac"][0] == (outcome.attempted - 1) / outcome.attempted


def test_more_jobs_than_cpus_is_refused():
    one_cpu = min(os.sched_getaffinity(0))
    proc = bench(
        "--workload", "corpus64-jobs2", "--seed", "1", "--seconds", "1",
        preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu}),
    )
    assert proc.returncode != 0 and "jobs" in proc.stderr and proc.stdout == ""


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "corpus64", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_traced_pool_run_needs_fork():
    code = _TINY.replace("import run\n", "import run, multiprocessing\nmultiprocessing.set_start_method('spawn')\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "corpus64-jobs2", "2", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and "fork" in proc.stderr and proc.stdout == ""
